"""Command-line front end with reproducible JSON reports.

Every command `cmd_*(args, cfg)` returns `(payload, lines, ok)`: the JSON
payload dict, the text lines (maybe a generator, which JSON output never
runs) and the verdict.  `main` reads the run config once, writes the payload
with the config appended or the lines, and exits 1 only when `ok` is false.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal error (any other exception, reported in one stderr line).
Numbers, in flags, partitions, cells or environment variables, are ASCII
decimal: an optional '-' and digits 0-9 (`_decimal`).  Partitions are
comma-separated decreasing integers; codes are whitespace-separated
run-length tokens (a3 = aaa).  Defaults for the prime and seed come from
NILCOMMUTE_PRIME and NILCOMMUTE_SEED.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass

from .burge import BurgeWord, box_codes, box_partitions, decode, dmap, encode, table
from .commutator import dmap_oracle
from .loci import intersect_experiment, survey, verify_cell
from .modpoly import DEFAULT_PRIME, _check_modulus
from .partitions import Partition, ar_notation, is_stable, key

import numpy as np


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Bad flags or malformed input (exit 2); argparse shows it for a flag."""


@dataclass(frozen=True)
class RunConfig:
    prime: int
    seed: int
    samples: int
    size_bound: int
    output: str


def _decimal(text: str) -> int:
    """An optional '-' and ASCII digits, the one reading of a number: `int`
    alone also takes underscores, other scripts' digits and spaces."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"{text!r} is not an ASCII decimal integer")
    return int(text)


def _parse_partition(text: str) -> Partition:
    """Comma-separated parts, none of them empty; "" is the zero partition."""
    try:
        return Partition([_decimal(x) for x in text.split(",")] if text else ())
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def _parse_cell(text: str) -> tuple[int, int]:
    bits = text.split(",")
    if len(bits) != 2:
        raise UsageError(f"bad cell {text!r}, expected k,l")
    try:
        return _decimal(bits[0]), _decimal(bits[1])
    except ValueError as exc:
        raise UsageError(f"bad cell {text!r}: {exc}") from exc


def _parse_cells(text: str) -> list[tuple[int, int]]:
    return [_parse_cell(chunk) for chunk in text.split("+")]


def _stable_shape(text: str) -> Partition:
    q = _parse_partition(text)
    if not q or not is_stable(q):
        raise UsageError(f"--q must be a nonempty stable partition, got {tuple(q)}")
    return q


def _two_part(q: Partition) -> tuple[int, int]:
    if len(q) != 2 or not is_stable(q):
        raise UsageError(f"need a stable two-part partition, got {tuple(q)}")
    return q[0], q[0] - q[1]


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return _decimal(text)
    except UsageError:
        raise UsageError(f"{name}={text!r} is not an integer") from None


def _config(args) -> RunConfig:
    prime = args.prime
    if prime is None:
        prime = _env_int("NILCOMMUTE_PRIME", DEFAULT_PRIME)
    _check_modulus(prime)
    seed, source = args.seed, f"--seed {args.seed}"
    if seed is None:
        seed = _env_int("NILCOMMUTE_SEED", 0)
        source = f"NILCOMMUTE_SEED={seed}"
    if seed < 0:
        raise UsageError(f"{source} is negative: seeds must be at least 0")
    samples = getattr(args, "samples", 1)
    if samples < 1:
        raise UsageError("--samples must be at least 1")
    return RunConfig(
        prime=prime,
        seed=seed,
        samples=samples,
        size_bound=args.size_bound,
        output=args.format,
    )


def _fmt_partition(p) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


_NO_GENERIC_TYPE = "no generic type (no sampled type dominates the rest)"


def cmd_burge(args, cfg: RunConfig):
    needs = "code" if args.action == "decode" else "partition"
    if getattr(args, needs) is None:
        raise UsageError(f"{args.action} needs --{needs}")
    if args.action == "decode":
        word = BurgeWord.from_tokens(args.code)
        p = decode(word)
        return {"command": "decode", "code": word.tokens(), "parts": p}, [_fmt_partition(p)], True
    p = _parse_partition(args.partition)
    if args.action == "encode":
        code = encode(p).tokens()
        return {"command": "encode", "partition": p, "code": code}, [code], True
    d = dmap(p)
    return {"command": "dmap", "partition": p, "parts": d}, [_fmt_partition(d)], True


def cmd_box(args, cfg: RunConfig):
    q = _stable_shape(args.q)
    codes = box_codes(q)
    cells = box_partitions(q)
    entries = []
    lines = [f"box of {_fmt_partition(q)}  key={_fmt_partition(key(q))}  cells={len(cells)}"]
    ok = True
    for idx in sorted(codes):
        p = cells[idx]
        dmap_ok = dmap(p) == q
        ok = ok and dmap_ok
        entries.append({"index": idx, "code": codes[idx].tokens(), "partition": p})
        lines.append(
            f"  I={_fmt_partition(idx)}  code='{codes[idx].tokens()}'  "
            f"P={_fmt_partition(p)}  {ar_notation(p)}  parts={len(p)} dmap_ok={dmap_ok}"
        )
    distinct = len(set(cells.values())) == len(cells)
    lines.append(f"  distinct={distinct} all_checks={ok and distinct}")
    return {"q": q, "key": key(q), "cells": entries}, lines, ok and distinct


def cmd_table(args, cfg: RunConfig):
    q = _parse_partition(args.q)
    u, r = _two_part(q)
    grid = table(q)
    lines = [f"table of {_fmt_partition(q)}: {r - 1} rows x {u - r} columns"]
    for ki, row in enumerate(grid, start=1):
        lines.append(
            f"  k={ki}: " + "  ".join(f"{ar_notation(p)}={_fmt_partition(p)}" for p in row)
        )
    return {"q": q, "key": key(q), "rows": grid}, lines, True


def _verify_lines(reports, passed: int):
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        if rep.max_type:
            found = f"max={ar_notation(rep.max_type)}={_fmt_partition(rep.max_type)}"
        else:
            found = _NO_GENERIC_TYPE
        yield (
            f"cell ({rep.cell[0]},{rep.cell[1]}): {found} expected={_fmt_partition(rep.expected)} "
            f"match={rep.match_rate:.2f} jac={rep.jacobian_rank_ok} trop={rep.tropical_agree} "
            f"{status}"
        )
    yield f"{passed}/{len(reports)} cells pass"


def cmd_verify(args, cfg: RunConfig):
    q = _parse_partition(args.q)
    u, r = _two_part(q)
    if args.cell is not None:
        k, l = _parse_cell(args.cell)
        cells = [(k, l)]
    else:
        cells = [(k, l) for k in range(1, r) for l in range(1, u - r + 1)]
    reports = [verify_cell(u, r, k, l, cfg.samples, seed=cfg.seed, prime=cfg.prime) for k, l in cells]
    passed = sum(rep.passed for rep in reports)
    payload = {"q": q, "passed": passed, "total": len(reports), "reports": reports}
    return payload, _verify_lines(reports, passed), passed == len(reports)


def cmd_survey(args, cfg: RunConfig):
    q = _stable_shape(args.q)
    rep = survey(q, cfg.samples, seed=cfg.seed, prime=cfg.prime)
    lines = [f"survey of {_fmt_partition(q)}: {cfg.samples} samples, box size {rep.box_size}"]
    for t, c in rep.type_counts:
        lines.append(f"  {_fmt_partition(t)}: {c}")
    lines.append(f"all observed types in box: {rep.all_in_box}")
    return rep.to_dict(), lines, rep.all_in_box


def cmd_intersect(args, cfg: RunConfig):
    q = _parse_partition(args.q)
    u, r = _two_part(q)
    cells = _parse_cells(args.cells)
    rep = intersect_experiment(u, r, cells, cfg.samples, seed=cfg.seed, prime=cfg.prime)
    lines = [f"intersection on {_fmt_partition(q)} cells {args.cells}"]
    if not rep.sampled:
        lines.append(f"not sampled: {rep.reason}")
    for br in rep.branches:
        name = br.label or "single branch"
        if br.max_type:
            lines.append(f"  {name}: generic type {_fmt_partition(br.max_type)} {ar_notation(br.max_type)}")
        else:
            lines.append(f"  {name}: {_NO_GENERIC_TYPE}")
    return rep.to_dict(), lines, True


def cmd_oracle(args, cfg: RunConfig):
    p = _parse_partition(args.p)
    if p.size > cfg.size_bound:
        raise UsageError(f"|P|={p.size} exceeds --size-bound {cfg.size_bound}")
    rng = np.random.default_rng([cfg.seed] + list(p))
    est = dmap_oracle(p, cfg.samples, rng, prime=cfg.prime, size_limit=cfg.size_bound)
    truth = dmap(p)
    agree = est == truth
    # an empty estimate for a nonempty P: no sampled type dominates the rest
    lines = [_fmt_partition(est) if est or not p else _NO_GENERIC_TYPE, f"agrees with dmap: {agree}"]
    return {"p": p, "oracle": est, "dmap": truth, "agree": agree}, lines, agree


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="nilcommute",
        description="Jordan types of commuting nilpotent matrices at desk scale.",
    )
    parser.add_argument("--prime", type=_decimal, default=None, help="field modulus (prime)")
    parser.add_argument("--seed", type=_decimal, default=None, help="master RNG seed")
    parser.add_argument("--size-bound", type=_decimal, default=12, dest="size_bound")
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
    p_verify.add_argument("--samples", type=_decimal, default=50)
    p_verify.set_defaults(func=cmd_verify)

    p_survey = sub.add_parser("survey", help="bucket sampled commutant Jordan types")
    p_survey.add_argument("--q", required=True)
    p_survey.add_argument("--samples", type=_decimal, default=500)
    p_survey.set_defaults(func=cmd_survey)

    p_int = sub.add_parser("intersect", help="sample intersections of cell loci")
    p_int.add_argument("--q", required=True)
    p_int.add_argument("--cells", required=True, help="e.g. 1,2+2,1")
    p_int.add_argument("--samples", type=_decimal, default=200)
    p_int.set_defaults(func=cmd_intersect)

    p_oracle = sub.add_parser("oracle", help="Monte-Carlo dmap estimate vs the code")
    p_oracle.add_argument("--p", required=True)
    p_oracle.add_argument("--samples", type=_decimal, default=300)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
        payload, lines, ok = args.func(args, cfg)
        if cfg.output == "json":
            # reports nested in the payload are written through their to_dict
            print(json.dumps({**payload, "config": asdict(cfg)}, default=lambda rep: rep.to_dict()))
        else:
            print("\n".join(lines))
        return 0 if ok else 1
    except ValueError as exc:
        # UsageError, and the library's own checks on its input (cells, codes, sizes)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
