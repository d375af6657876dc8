"""Benchmark of the nilcommute package.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 40 --trace 0

Runs one workload (see perfbench/README.md) in this process, with no
threads or worker pools: whole passes over the workload's jobs until
--seconds have gone by, every job timed and checked.  With --trace 0 it
reports the end-to-end metrics, timing set-up in fresh interpreters that
it starts one at a time between passes; with --trace 1 it runs untraced passes for
half the time, then traced passes for the other half, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
is a JSON report with the environment and the run's details.
--workload all runs every workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

# one thread per process: numpy's BLAS pool would otherwise start worker
# threads that compete for the cores the measured work runs on
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 15
TAIL_BEYOND = 10

END_TO_END = {
    "items_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "burge.encode.calls": "count",
    "burge.encode.us_per_call": "us",
    "burge.decode.calls": "count",
    "burge.decode.us_per_call": "us",
    "burge.table.calls": "count",
    "burge.table.us_self": "us",
    "commutator.sample.us_self": "us",
    "commutator.assemble_blocks.calls": "count",
    "commutator.assemble_blocks.us_per_call": "us",
    "commutator.jordan_type_of_matrix.calls": "count",
    "commutator.jordan_type_of_matrix.us_per_call": "us",
    "commutator.rank_calls_per_readout": "ratio",
    "commutator.oracle_top_hit_rate": "ratio",
    "modpoly.truncpoly.count": "count",
    "modpoly.rank.calls": "count",
    "modpoly.rank.us_per_call": "us",
    "modpoly.rank.busy_s": "s",
    "modpoly.rank.entries": "count",
    "modpoly.matmul.calls": "count",
    "modpoly.matmul.us_per_call": "us",
    "loci.sample_on_locus.us_per_call": "us",
    "loci.equations.calls": "count",
    "loci.jacobian_rank_at.us_per_call": "us",
    "loci.verify_cell.us_self": "us",
    "loci.match_rate": "ratio",
    "loci.converse_hit_rate": "ratio",
    "tropical.predicted_jordan_type.us_per_call": "us",
    "partitions.jordan_from_coranks.calls": "count",
    "partitions.dominance_max.us_per_call": "us",
    "cli.main.us_self": "us",
    "trace.items_per_s_ratio": "ratio",
}


@dataclass
class Pass:
    seconds: float
    times: array  # seconds per job, in job order
    failed: list[str]
    mismatched: list[str]  # jobs whose result differs from the reference


def run_passes(jobs, seconds: float, reference: dict, tracer=None) -> list[Pass]:
    """Whole passes over the jobs until `seconds` have gone by (at least one).

    `reference` maps job keys to results: a job's first result is stored
    there and every later one must equal it.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        times, failed, mismatched = array("d"), [], []
        for job in jobs:
            t0 = time.perf_counter()
            try:
                ok, result = job.run()
            except Exception as exc:  # a failing job is counted, the run goes on
                ok, result = False, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.flush()
            if not ok:
                failed.append(job.key)
            if reference.setdefault(job.key, result) != result:
                mismatched.append(job.key)
        passes.append(Pass(sum(times), times, failed, mismatched))
    return passes


def best_times(passes: list[Pass]) -> list[float]:
    """Each job's fastest time over the passes.

    On a shared host, other tenants' load only adds time, and it comes and
    goes within seconds: within one run, the same pass over the jobs took
    up to 1.8 times as long as at its fastest.  The fastest repeat is the
    steadiest reading of a job's own cost.
    """
    return [min(ts) for ts in zip(*(p.times for p in passes))]


def nearest_rank_tail(times: list[float]) -> tuple[float, float, int]:
    """(time, percentile, jobs beyond it) at the highest percentile with ten jobs beyond it."""
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[-beyond - 1], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def end_to_end_metrics(passes: list[Pass], jobs, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    best = best_times(passes)
    tail, percentile, beyond = nearest_rank_tail(best)
    metrics = {
        "items_per_s": sum(j.items for j in jobs) / sum(best),
        "job_p50_ms": statistics.median(best) * 1e3,
        "job_tail_ms": tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return metrics, {"tail_percentile": percentile, "tail_jobs_beyond": beyond}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr, passes: int, overhead_ratio: float) -> dict:
    """Per-layer numbers of a traced run; counts and busy time are per pass."""
    stats = tr.stats

    def calls(name):
        return stats[name][0] / passes

    def us_per_call(name):
        return _ratio(stats[name][1], stats[name][0]) / 1e3

    def us_self(*names):
        return _ratio(sum(stats[n][2] for n in names), sum(stats[n][0] for n in names)) / 1e3

    jt, rank, oracle = "commutator.jordan_type_of_matrix", "modpoly.rank", "commutator.dmap_oracle"
    reports = tr.collected["loci.verify_cell"]
    return {
        "burge.encode.calls": calls("burge.encode"),
        "burge.encode.us_per_call": us_per_call("burge.encode"),
        "burge.decode.calls": calls("burge.decode"),
        "burge.decode.us_per_call": us_per_call("burge.decode"),
        "burge.table.calls": calls("burge.table"),
        "burge.table.us_self": us_self("burge.table"),
        "commutator.sample.us_self": us_self(oracle, "commutator.sample_commutator"),
        "commutator.assemble_blocks.calls": calls("commutator.assemble_blocks"),
        "commutator.assemble_blocks.us_per_call": us_per_call("commutator.assemble_blocks"),
        "commutator.jordan_type_of_matrix.calls": calls(jt),
        "commutator.jordan_type_of_matrix.us_per_call": us_per_call(jt),
        "commutator.rank_calls_per_readout": _ratio(tr.edges[jt, rank], stats[jt][0]),
        "commutator.oracle_top_hit_rate": _ratio(tr.same_result[oracle, jt], tr.edges[oracle, jt]),
        "modpoly.truncpoly.count": tr.counts["modpoly.truncpoly.count"] / passes,
        "modpoly.rank.calls": calls(rank),
        "modpoly.rank.us_per_call": us_per_call(rank),
        "modpoly.rank.busy_s": stats[rank][1] / 1e9 / passes,
        "modpoly.rank.entries": tr.counts["modpoly.rank.entries"] / passes,
        "modpoly.matmul.calls": calls("modpoly.matmul"),
        "modpoly.matmul.us_per_call": us_per_call("modpoly.matmul"),
        "loci.sample_on_locus.us_per_call": us_per_call("loci.sample_on_locus"),
        "loci.equations.calls": calls("loci.equations"),
        "loci.jacobian_rank_at.us_per_call": us_per_call("loci.jacobian_rank_at"),
        "loci.verify_cell.us_self": us_self("loci.verify_cell"),
        "loci.match_rate": _ratio(sum(r.match_rate for r in reports), len(reports)),
        "loci.converse_hit_rate": _ratio(sum(r.converse_hits for r in reports),
                                         sum(r.samples for r in reports)),
        "tropical.predicted_jordan_type.us_per_call": us_per_call("tropical.predicted_jordan_type"),
        "partitions.jordan_from_coranks.calls": calls("partitions.jordan_from_coranks"),
        "partitions.dominance_max.us_per_call": us_per_call("partitions.dominance_max"),
        "cli.main.us_self": us_self("cli.main"),
        "trace.items_per_s_ratio": overhead_ratio,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the package and run one warm-up job."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    out = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def environment(seed: int) -> dict:
    import numpy as np

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    found = re.search(r'^version\s*=\s*"([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "package_version": found.group(1) if found else "unknown",
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result, report) of one run; result is the contract's last line."""
    from layertrace import Tracer
    from workloads import jobs_for, warmup_job

    jobs = jobs_for(workload, seed)
    ok, _ = warmup_job(workload, seed).run()
    if not ok:
        raise RuntimeError(f"{workload}: warm-up job failed")
    report = {"workload": workload, "environment": environment(seed), "jobs_per_pass": len(jobs),
              "items_per_pass": sum(j.items for j in jobs)}
    reference: dict = {}
    if trace:
        untraced = run_passes(jobs, seconds / 2, reference)
        with Tracer() as tr:
            traced = run_passes(jobs, seconds / 2, reference, tr)
        ratio = sum(best_times(untraced)) / sum(best_times(traced))
        metrics, units = per_layer_metrics(tr, len(traced), ratio), PER_LAYER
        passes = untraced + traced
        report.update(untraced_passes=len(untraced), traced_passes=len(traced))
    else:
        # set-up probes are spread over the run, so that their median sees
        # the host's load at several moments, as the passes do
        start, passes, probes = time.perf_counter(), [], []
        for i in range(SETUP_PROBES):
            probes.append(setup_probe(workload, seed))
            deadline = start + seconds * (i + 1) / SETUP_PROBES
            passes += run_passes(jobs, deadline - time.perf_counter(), reference)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, details = end_to_end_metrics(passes, jobs, statistics.median(probes), rss_mb)
        units = END_TO_END
        report.update(details, passes=len(passes))
    failed = sum(len(p.failed) for p in passes)
    attempted = sum(len(p.times) for p in passes)
    mismatched = sorted({k for p in passes for k in p.mismatched})
    report.update(
        fail_frac=failed / attempted,
        pass_seconds=[p.seconds for p in passes],
        failed_jobs=sorted({k for p in passes for k in p.failed})[:10],
        mismatched_jobs=mismatched[:10],
    )
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, report


def run_all(args, names) -> int:
    code = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT, timeout=600).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    if not (ROOT / "src" / "nilcommute" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:15s} {name:45s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:15s} {'fail_frac':45s} {report['fail_frac']:14.6g}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
