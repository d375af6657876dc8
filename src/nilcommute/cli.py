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

The grammar is one table, `_GLOBALS` then `_COMMANDS`: each flag or
positional with its dest, converter, choices, default, help and whether it
is required, and each command with its `cmd_*` function.  `build_parser`
builds the argparse parser from it, and `_scan` reads the plain forms, exact
`--flag value` pairs and positionals in their scope, in one pass over the
same table into the namespace argparse would return.  Every other form, and
`--help`, abbreviations, `=` forms, repeats and every error, goes to
argparse, built on the first such call: it alone writes help, usage and
error text, so exit codes and messages are argparse's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .burge import BurgeWord, box_codes, box_partitions, decode, dmap, encode, table
from .commutator import _rng, dmap_oracle
from .loci import intersect_experiment, survey, verify_cell
from .modpoly import DEFAULT_PRIME, _check_modulus
from .partitions import Partition, ar_notation, is_stable, key


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
    rng = _rng([cfg.seed] + list(p))
    est = dmap_oracle(p, cfg.samples, rng, prime=cfg.prime, size_limit=cfg.size_bound)
    truth = dmap(p)
    agree = est == truth
    # an empty estimate for a nonempty P: no sampled type dominates the rest
    lines = [_fmt_partition(est) if est or not p else _NO_GENERIC_TYPE, f"agrees with dmap: {agree}"]
    return {"p": p, "oracle": est, "dmap": truth, "agree": agree}, lines, agree


class _Arg(NamedTuple):
    """One flag ("--q") or positional ("action") of the grammar: the namespace
    attribute `dest` it sets, the converter of its token, its choices, its
    default, whether a flag is required (a positional always is) and help."""

    name: str
    dest: str
    convert: Callable[[str], object] = str
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    help: str | None = None


class _Command(NamedTuple):
    """One command: its word, its help line, its `cmd_*` function and its
    own flags and positionals."""

    name: str
    help: str
    func: Callable
    args: tuple[_Arg, ...]


# The CLI grammar, read by `build_parser` and by `_scan`: the global flags,
# which go before the command word, then each command with its own flags
# and positionals, which go after it
_GLOBALS = (
    _Arg("--prime", "prime", _decimal, help="field modulus (prime)"),
    _Arg("--seed", "seed", _decimal, help="master RNG seed"),
    _Arg("--size-bound", "size_bound", _decimal, default=12,
         help="largest |P| that oracle samples (default %(default)s)"),
    _Arg("--format", "format", choices=("text", "json"), default="text", help="output format (default %(default)s)"),
)
_COMMANDS = (
    _Command("burge", "encode / decode / dmap", cmd_burge, (
        _Arg("action", "action", choices=("encode", "decode", "dmap"), help="what to compute"),
        _Arg("--partition", "partition", help="partition to encode or map, e.g. 4,2,1"),
        _Arg("--code", "code", help="code to decode, run-length tokens, e.g. 'a b a b2 a'"),
    )),
    _Command("box", "box of a stable partition", cmd_box, (
        _Arg("--q", "q", required=True, help="stable partition, e.g. 8,5,2"),
    )),
    _Command("table", "table of a two-part stable partition", cmd_table, (
        _Arg("--q", "q", required=True, help="stable two-part partition, e.g. 8,3"),
    )),
    _Command("verify", "verify table cells by sampling", cmd_verify, (
        _Arg("--q", "q", required=True, help="stable two-part partition, e.g. 8,3"),
        _Arg("--cell", "cell", help="one cell k,l (default every cell)"),
        _Arg("--samples", "samples", _decimal, default=50, help="on-locus samples per cell (default %(default)s)"),
    )),
    _Command("survey", "bucket sampled commutant Jordan types", cmd_survey, (
        _Arg("--q", "q", required=True, help="stable partition, e.g. 8,5,2"),
        _Arg("--samples", "samples", _decimal, default=500, help="commutant samples (default %(default)s)"),
    )),
    _Command("intersect", "sample intersections of cell loci", cmd_intersect, (
        _Arg("--q", "q", required=True, help="stable two-part partition, e.g. 8,3"),
        _Arg("--cells", "cells", required=True, help="e.g. 1,2+2,1"),
        _Arg("--samples", "samples", _decimal, default=200, help="samples per branch (default %(default)s)"),
    )),
    _Command("oracle", "Monte-Carlo dmap estimate vs the code", cmd_oracle, (
        _Arg("--p", "p", required=True, help="partition to estimate dmap of, e.g. 4,2,1"),
        _Arg("--samples", "samples", _decimal, default=300, help="commutant samples (default %(default)s)"),
    )),
)


def _add_argument(parser: argparse.ArgumentParser, arg: _Arg) -> None:
    if arg.name.startswith("-"):
        parser.add_argument(arg.name, dest=arg.dest, type=arg.convert, choices=arg.choices,
                            default=arg.default, required=arg.required, help=arg.help)
    else:
        parser.add_argument(arg.dest, type=arg.convert, choices=arg.choices, help=arg.help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the grammar, built on first use and shared by
    every `main` call."""
    parser = argparse.ArgumentParser(
        prog="nilcommute",
        description="Jordan types of commuting nilpotent matrices at desk scale.",
    )
    for arg in _GLOBALS:
        _add_argument(parser, arg)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub_parser = sub.add_parser(command.name, help=command.help)
        for arg in command.args:
            _add_argument(sub_parser, arg)
        sub_parser.set_defaults(func=command.func)
    return parser


class _Scope(NamedTuple):
    """One scope of the grammar as `_scan` reads it: its flags by token, its
    positionals in order, the dests it must set, and the namespace before
    any token is read."""

    flags: dict[str, _Arg]
    positionals: tuple[_Arg, ...]
    required: frozenset[str]
    defaults: dict[str, object]


def _scope(args: tuple[_Arg, ...], **defaults) -> _Scope:
    positionals = tuple(arg for arg in args if not arg.name.startswith("-"))
    return _Scope(
        {arg.name: arg for arg in args if arg.name.startswith("-")},
        positionals,
        frozenset(arg.dest for arg in args if arg.required or arg in positionals),
        {**{arg.dest: arg.default for arg in args}, **defaults},
    )


_GLOBAL_SCOPE = _scope(_GLOBALS)
_COMMAND_SCOPES = {c.name: _scope(c.args, command=c.name, func=c.func) for c in _COMMANDS}


def _scan(argv) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, read in one
    pass over the grammar, or None where only argparse knows the answer.

    It reads exact `--flag value` pairs and positionals, the global flags
    before the command word and the command's own after it, through the same
    converters and choices.  Any other form is None: an unknown or
    abbreviated token, `--flag=value`, a repeated flag, a value starting
    with '-', `--`, `-h`, a missing flag or positional, a converter that
    raises or a value outside its choices."""
    scope, values = _GLOBAL_SCOPE, dict(_GLOBAL_SCOPE.defaults)
    positionals, seen = (), set()
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            # a flag with no value after it reads as one with value "-"
            arg, value = scope.flags.get(token), next(tokens, "-")
            if arg is None or arg.dest in seen or value.startswith("-"):
                return None
        elif scope is _GLOBAL_SCOPE:
            scope = _COMMAND_SCOPES.get(token)
            if scope is None:
                return None
            values.update(scope.defaults)
            positionals = scope.positionals
            continue
        elif positionals:
            arg, positionals, value = positionals[0], positionals[1:], token
        else:
            return None
        try:
            value = arg.convert(value)
        except ValueError:
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.dest] = value
        seen.add(arg.dest)
    if scope is _GLOBAL_SCOPE or not scope.required <= seen:
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    # one list, so the scan and the argparse fallback read the same tokens
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _scan(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        cfg = _config(args)
        payload, lines, ok = args.func(args, cfg)
        if cfg.output == "json":
            # reports nested in the payload are written through their to_dict;
            # the config's fields are plain values, so its own dict needs no copy
            print(json.dumps({**payload, "config": vars(cfg)}, default=lambda rep: rep.to_dict()))
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
