"""Command-line front end with reproducible JSON reports.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal error (any other exception, reported in one stderr line).
Partitions on the command line are comma-separated decreasing integers;
codes are whitespace-separated run-length tokens (a3 = aaa).  Defaults for
the prime and seed come from NILCOMMUTE_PRIME and NILCOMMUTE_SEED.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from .burge import BurgeWord, box_codes, box_partitions, decode, dmap, encode, table
from .commutator import dmap_oracle
from .loci import intersect_experiment, survey, verify_cell
from .modpoly import DEFAULT_PRIME, is_prime
from .partitions import Partition, ar_notation, is_stable, key

import numpy as np


class UsageError(ValueError):
    """Bad flags or malformed input; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    prime: int
    seed: int
    samples: int
    size_bound: int
    output: str


def _parse_partition(text: str) -> Partition:
    try:
        parts = [int(x) for x in text.split(",") if x != ""]
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def _parse_cell(text: str) -> tuple[int, int]:
    bits = text.split(",")
    if len(bits) != 2:
        raise UsageError(f"bad cell {text!r}, expected k,l")
    try:
        return int(bits[0]), int(bits[1])
    except ValueError as exc:
        raise UsageError(f"bad cell {text!r}: {exc}") from exc


def _parse_cells(text: str) -> list[tuple[int, int]]:
    return [_parse_cell(chunk) for chunk in text.split("+")]


def _two_part(q: Partition) -> tuple[int, int]:
    if len(q) != 2 or not is_stable(q):
        raise UsageError(f"need a stable two-part partition, got {tuple(q)}")
    return q[0], q[0] - q[1]


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name}={text!r} is not an integer") from None


def _config(args) -> RunConfig:
    prime = args.prime
    if prime is None:
        prime = _env_int("NILCOMMUTE_PRIME", DEFAULT_PRIME)
    # samples and assembled matrices are int64
    if prime >= 2**63:
        raise UsageError(f"--prime {prime} is too large: supported primes are 2 <= p < 2^63")
    if not is_prime(prime):
        raise UsageError(f"--prime {prime} is not prime")
    seed = args.seed
    if seed is None:
        seed = _env_int("NILCOMMUTE_SEED", 0)
    samples = getattr(args, "samples", 1) or 1
    if samples < 1:
        raise UsageError("--samples must be at least 1")
    return RunConfig(
        prime=prime,
        seed=seed,
        samples=samples,
        size_bound=args.size_bound,
        output=args.format,
    )


def _emit(cfg: RunConfig, payload: dict, text_lines) -> None:
    """Print the JSON payload, with the run config appended, or the text lines."""
    if cfg.output == "json":
        print(json.dumps({**payload, "config": asdict(cfg)}))
    else:
        for line in text_lines:
            print(line)


def _fmt_partition(p) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def cmd_burge(args) -> int:
    cfg = _config(args)
    if args.action == "encode":
        if args.partition is None:
            raise UsageError("encode needs --partition")
        p = _parse_partition(args.partition)
        word = encode(p)
        payload = {"command": "encode", "partition": list(p), "code": word.tokens()}
        _emit(cfg, payload, [word.tokens()])
        return 0
    if args.action == "decode":
        if args.code is None:
            raise UsageError("decode needs --code")
        word = BurgeWord.from_tokens(args.code)
        p = decode(word)
        payload = {"command": "decode", "code": word.tokens(), "parts": list(p)}
        _emit(cfg, payload, [_fmt_partition(p)])
        return 0
    if args.action == "dmap":
        if args.partition is None:
            raise UsageError("dmap needs --partition")
        p = _parse_partition(args.partition)
        d = dmap(p)
        payload = {"command": "dmap", "partition": list(p), "parts": list(d)}
        _emit(cfg, payload, [_fmt_partition(d)])
        return 0
    raise UsageError(f"unknown burge action {args.action!r}")


def _box_payload(q: Partition) -> tuple[dict, list[str]]:
    codes = box_codes(q)
    cells = box_partitions(q)
    entries = []
    lines = [f"box of {_fmt_partition(q)}  key={_fmt_partition(key(q))}  cells={len(cells)}"]
    ok = True
    for idx in sorted(codes):
        p = cells[idx]
        checks = len(p) == sum(idx) and dmap(p) == q
        ok = ok and checks
        entries.append(
            {
                "index": list(idx),
                "code": codes[idx].tokens(),
                "partition": list(p),
            }
        )
        lines.append(
            f"  I={_fmt_partition(idx)}  code='{codes[idx].tokens()}'  "
            f"P={_fmt_partition(p)}  {ar_notation(p)}  parts={len(p)} dmap_ok={dmap(p) == q}"
        )
    distinct = len(set(cells.values())) == len(cells)
    lines.append(f"  distinct={distinct} all_checks={ok and distinct}")
    payload = {"q": list(q), "key": list(key(q)), "cells": entries}
    return payload, lines


def cmd_box(args) -> int:
    cfg = _config(args)
    q = _parse_partition(args.q)
    if not q or not is_stable(q):
        raise UsageError(f"--q must be a nonempty stable partition, got {tuple(q)}")
    payload, lines = _box_payload(q)
    _emit(cfg, payload, lines)
    return 0


def cmd_table(args) -> int:
    cfg = _config(args)
    q = _parse_partition(args.q)
    u, r = _two_part(q)
    grid = table(q)
    payload = {
        "q": list(q),
        "key": list(key(q)),
        "rows": [[list(p) for p in row] for row in grid],
    }
    lines = [f"table of {_fmt_partition(q)}: {r - 1} rows x {u - r} columns"]
    for ki, row in enumerate(grid, start=1):
        lines.append(
            f"  k={ki}: " + "  ".join(f"{ar_notation(p)}={_fmt_partition(p)}" for p in row)
        )
    _emit(cfg, payload, lines)
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    q = _parse_partition(args.q)
    u, r = _two_part(q)
    if args.cell is not None:
        k, l = _parse_cell(args.cell)
        cells = [(k, l)]
    else:
        cells = [(k, l) for k in range(1, r) for l in range(1, u - r + 1)]
    reports = [verify_cell(u, r, k, l, cfg.samples, seed=cfg.seed, prime=cfg.prime) for k, l in cells]
    passed = sum(rep.passed for rep in reports)
    payload = {
        "q": list(q),
        "passed": passed,
        "total": len(reports),
        "reports": [rep.to_dict() for rep in reports],
    }
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(
            f"cell ({rep.cell[0]},{rep.cell[1]}): max={ar_notation(rep.max_type)}"
            f"={_fmt_partition(rep.max_type)} expected={_fmt_partition(rep.expected)} "
            f"match={rep.match_rate:.2f} jac={rep.jacobian_rank_ok} trop={rep.tropical_agree} "
            f"{status}"
        )
    lines.append(f"{passed}/{len(reports)} cells pass")
    _emit(cfg, payload, lines)
    return 0 if passed == len(reports) else 1


def cmd_survey(args) -> int:
    cfg = _config(args)
    q = _parse_partition(args.q)
    if not q or not is_stable(q):
        raise UsageError(f"--q must be a nonempty stable partition, got {tuple(q)}")
    rep = survey(q, cfg.samples, seed=cfg.seed, prime=cfg.prime)
    payload = rep.to_dict()
    lines = [f"survey of {_fmt_partition(q)}: {cfg.samples} samples, box size {rep.box_size}"]
    for t, c in rep.type_counts:
        lines.append(f"  {_fmt_partition(t)}: {c}")
    lines.append(f"all observed types in box: {rep.all_in_box}")
    _emit(cfg, payload, lines)
    return 0 if rep.all_in_box else 1


def cmd_intersect(args) -> int:
    cfg = _config(args)
    q = _parse_partition(args.q)
    u, r = _two_part(q)
    cells = _parse_cells(args.cells)
    rep = intersect_experiment(u, r, cells, cfg.samples, seed=cfg.seed, prime=cfg.prime)
    payload = rep.to_dict()
    lines = [f"intersection on {_fmt_partition(q)} cells {args.cells}"]
    if not rep.sampled:
        lines.append(f"not sampled: {rep.reason}")
    for br in rep.branches:
        name = br.label or "single branch"
        lines.append(f"  {name}: generic type {_fmt_partition(br.max_type)} {ar_notation(br.max_type)}")
    _emit(cfg, payload, lines)
    return 0


def cmd_oracle(args) -> int:
    cfg = _config(args)
    p = _parse_partition(args.p)
    if p.size > cfg.size_bound:
        raise UsageError(f"|P|={p.size} exceeds --size-bound {cfg.size_bound}")
    rng = np.random.default_rng([abs(cfg.seed)] + list(p))
    est = dmap_oracle(p, cfg.samples, rng, prime=cfg.prime, size_limit=cfg.size_bound)
    truth = dmap(p)
    agree = est == truth
    payload = {
        "p": list(p),
        "oracle": list(est),
        "dmap": list(truth),
        "agree": agree,
    }
    lines = [f"{_fmt_partition(est)}", f"agrees with dmap: {agree}"]
    _emit(cfg, payload, lines)
    return 0 if agree else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcommute",
        description="Jordan types of commuting nilpotent matrices at desk scale.",
    )
    parser.add_argument("--prime", type=int, default=None, help="field modulus (prime)")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--size-bound", type=int, default=12, dest="size_bound")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_burge = sub.add_parser("burge", help="encode / decode / dmap")
    p_burge.add_argument("action", choices=("encode", "decode", "dmap"))
    p_burge.add_argument("--partition", default=None)
    p_burge.add_argument("--code", default=None)
    p_burge.set_defaults(func=cmd_burge)

    p_box = sub.add_parser("box", help="box of a stable partition")
    p_box.add_argument("--q", required=True)
    p_box.set_defaults(func=cmd_box)

    p_table = sub.add_parser("table", help="table of a two-part stable partition")
    p_table.add_argument("--q", required=True)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="verify table cells by sampling")
    p_verify.add_argument("--q", required=True)
    p_verify.add_argument("--cell", default=None)
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.set_defaults(func=cmd_verify)

    p_survey = sub.add_parser("survey", help="bucket sampled commutant Jordan types")
    p_survey.add_argument("--q", required=True)
    p_survey.add_argument("--samples", type=int, default=500)
    p_survey.set_defaults(func=cmd_survey)

    p_int = sub.add_parser("intersect", help="sample intersections of cell loci")
    p_int.add_argument("--q", required=True)
    p_int.add_argument("--cells", required=True, help="e.g. 1,2+2,1")
    p_int.add_argument("--samples", type=int, default=200)
    p_int.set_defaults(func=cmd_intersect)

    p_oracle = sub.add_parser("oracle", help="Monte-Carlo dmap estimate vs the code")
    p_oracle.add_argument("--p", required=True)
    p_oracle.add_argument("--samples", type=int, default=300)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        # UsageError, and the library's own checks on its input (cells, codes, sizes)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
