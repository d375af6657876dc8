"""The benchmark's workloads: job lists generated from a workload seed.

A job is one unit the benchmark times and checks.  Its ``run`` returns
``(correct, result)``: ``correct`` compares verdicts against an
independent reading (never a recorded sample stream), and ``result`` is a
summary that must be identical on every pass and with tracing on or off.
Package functions are looked up on their module at call time, so a traced
run sees the wrapped versions.  The seed sets each job's RNG and the job
order, never which jobs run, so every seed asks for the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nilcommute import burge, cli, commutator
from nilcommute.modpoly import DEFAULT_PRIME
from nilcommute.partitions import Partition, is_stable, partitions_of

# Sizes are cut from the acceptance suite's (300 oracle samples, 50 verify
# samples, round trip to n = 30) so that a job takes milliseconds and is
# repeated 30 to 250 times in a run: the shorter a job, the likelier one of
# its repeats misses the host's slow spells (see README.md).  Each workload
# keeps the layer that dominates it.
ORACLE_SAMPLES = 2
ORACLE_SIZES = range(1, 9)
ROUNDTRIP_SIZES = range(0, 24)
VERIFY_SAMPLES = 2
VERIFY_SHAPES = ((8, 3), (12, 5), (13, 4))
SURVEY_SAMPLES = 5
SURVEY_SHAPES = ((8, 5, 2), (10, 7, 4, 1))


@dataclass(frozen=True)
class Job:
    key: str
    items: int
    run: Callable[[], tuple[bool, object]]


def oracle_job(p: Partition, seed: int) -> Job:
    def run():
        rng = np.random.default_rng([seed] + list(p))
        est = commutator.dmap_oracle(p, ORACLE_SAMPLES, rng)
        return est == burge.dmap(p), tuple(est)

    return Job(f"oracle {tuple(p)}", ORACLE_SAMPLES, run)


def roundtrip_job(p: Partition, seed: int) -> Job:
    def run():
        back = burge.decode(burge.encode(p))
        d = burge.dmap(p)
        return back == p and is_stable(d), (tuple(back), tuple(d))

    return Job(f"roundtrip {tuple(p)}", 1, run)


def cli_job(command: tuple[str, ...], seed: int) -> Job:
    """One in-process CLI call; `command` is the subcommand and its flags."""
    argv = ["--format", "json", "--seed", str(seed), "--prime", str(DEFAULT_PRIME), *command]
    samples = int(command[command.index("--samples") + 1])
    # verify reads one type per on-locus sample and one per converse sample
    items, verdict = (2 * samples, "pass") if command[0] == "verify" else (samples, "all_in_box")

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        if code != 0:
            return False, (code, text + err.getvalue())
        payload = json.loads(text)
        return all(rep[verdict] for rep in payload.get("reports", [payload])), (code, text)

    return Job(" ".join(command), items, run)


def _cli_commands() -> list[tuple[str, ...]]:
    cmds = [
        ("verify", "--q", f"{u},{v}", "--cell", f"{k},{l}", "--samples", str(VERIFY_SAMPLES))
        for u, v in VERIFY_SHAPES
        for k in range(1, u - v)
        for l in range(1, v + 1)
    ]
    cmds += [("survey", "--q", ",".join(map(str, q)), "--samples", str(SURVEY_SAMPLES))
             for q in SURVEY_SHAPES]
    return cmds


@dataclass(frozen=True)
class Workload:
    job: Callable[[object, int], Job]
    inputs: Callable[[], list]
    warmup: object  # input of the untimed warm-up job, the same for every seed


WORKLOADS = {
    "oracle_sweep": Workload(
        oracle_job, lambda: [p for n in ORACLE_SIZES for p in partitions_of(n)], Partition((4, 2, 1))),
    "code_roundtrip": Workload(
        roundtrip_job, lambda: [p for n in ROUNDTRIP_SIZES for p in partitions_of(n)],
        Partition((5, 4, 3, 3, 3, 2, 2, 1))),
    "locus_verify": Workload(
        cli_job, _cli_commands, ("verify", "--q", "12,5", "--cell", "3,2", "--samples", str(VERIFY_SAMPLES))),
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in a seed-dependent order."""
    wl = WORKLOADS[workload]
    jobs = [wl.job(x, seed) for x in wl.inputs()]
    random.Random(seed).shuffle(jobs)
    return jobs


def warmup_job(workload: str, seed: int) -> Job:
    wl = WORKLOADS[workload]
    return wl.job(wl.warmup, seed)
