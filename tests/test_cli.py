import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcommute import cli, commutator
from nilcommute.cli import UsageError, main
from nilcommute.partitions import EMPTY

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBurgeCommands:
    def test_encode(self, capsys):
        code, out, _ = run(capsys, "burge", "encode", "--partition", "5,4,3,3,3,2,2,1")
        assert code == 0
        assert out.strip() == "b a2 b2 a7 b5 a"

    def test_dmap(self, capsys):
        code, out, _ = run(capsys, "burge", "dmap", "--partition", "5,4,3,3,3,2,2,1")
        assert code == 0
        assert out.strip() == "[17,5,1]"

    def test_decode(self, capsys):
        code, out, _ = run(capsys, "burge", "decode", "--code", "a a b b a")
        assert code == 0
        assert out.strip() == "[2,2]"

    def test_decode_run_length(self, capsys):
        code, out, _ = run(capsys, "burge", "decode", "--code", "b a2 b2 a7 b5 a")
        assert code == 0
        assert out.strip() == "[5,4,3,3,3,2,2,1]"

    def test_tallest_shapes_run_in_span_time(self, capsys):
        # one part of 100,000 is a 100,000-letter code, and (200000, 100000)
        # a 200,000-letter one; each step visits only the runs of the parts,
        # not the gaps between them, so both directions take milliseconds
        for parts, tokens in [("100000", "a99999 b a"), ("200000,100000", "a99999 b a99999 b a")]:
            code, out, _ = run(capsys, "burge", "encode", "--partition", parts)
            assert code == 0 and out.strip() == tokens
            code, out, _ = run(capsys, "burge", "decode", "--code", tokens)
            assert code == 0 and out.strip() == f"[{parts}]"

    def test_bad_partition_exits_2(self, capsys):
        code, _, err = run(capsys, "burge", "encode", "--partition", "3,5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text", ["3,,2", "5,2,", ",5,2", ",", " "])
    def test_empty_field_exits_2(self, capsys, text):
        code, out, err = run(capsys, "burge", "encode", "--partition", text)
        assert code == 2 and out == ""
        assert "bad partition" in err and "Traceback" not in err

    def test_empty_text_is_the_zero_partition(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "burge", "dmap", "--partition", "")
        assert code == 0 and json.loads(out)["partition"] == []
        assert cli._parse_partition("") == ()

    def test_bad_code_exits_2(self, capsys):
        code, _, err = run(capsys, "burge", "decode", "--code", "a a")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text", ["b2 a0 b a", "b0 a", "a0", "b² a"])
    def test_bad_run_count_exits_2(self, capsys, text):
        code, out, err = run(capsys, "burge", "decode", "--code", text)
        assert code == 2 and out == ""
        assert "bad code token" in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_code_names_the_ending_rule(self, capsys, fmt):
        code, out, err = run(capsys, "--format", fmt, "burge", "decode", "--code", "b a2")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "ends in 'ba'" in lines[0] and "Traceback" not in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "burge", "dmap", "--partition", "2,2")
        assert code == 0
        data = json.loads(out)
        assert data["parts"] == [4]
        assert data["config"]["prime"] == 1_000_000_007


class TestBoxCommands:
    def test_box_52(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "box", "--q", "5,2")
        assert code == 0
        data = json.loads(out)
        assert data["key"] == [2, 2]
        cells = {tuple(c["index"]): c["partition"] for c in data["cells"]}
        assert cells[(2, 2)] == [4, 1, 1, 1]

    def test_box_852(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "box", "--q", "8,5,2")
        data = json.loads(out)
        assert code == 0 and len(data["cells"]) == 8

    def test_box_unstable_exits_2(self, capsys):
        code, _, err = run(capsys, "box", "--q", "5,4")
        assert code == 2 and "stable" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_failed_check_exits_1(self, capsys, monkeypatch, fmt):
        # a box whose cells no longer map back to q is a failed verification
        monkeypatch.setattr(cli, "dmap", lambda p: EMPTY)
        code, out, _ = run(capsys, "--format", fmt, "box", "--q", "5,2")
        assert code == 1
        if fmt == "text":
            assert "all_checks=False" in out
        else:
            assert len(json.loads(out)["cells"]) == 4

    def test_dmap_once_per_cell(self, capsys, monkeypatch):
        calls, real = [], cli.dmap
        monkeypatch.setattr(cli, "dmap", lambda p: calls.append(p) or real(p))
        for fmt in ("json", "text"):
            calls.clear()
            code, _, _ = run(capsys, "--format", fmt, "box", "--q", "8,5,2")
            assert code == 0 and len(calls) == len(set(calls)) == 8

    def test_table(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "table", "--q", "5,2")
        data = json.loads(out)
        assert code == 0
        assert data["rows"] == [[[5, 2], [5, 1, 1]], [[4, 2, 1], [4, 1, 1, 1]]]


class TestVerifyCommand:
    def test_all_cells_pass(self, capsys):
        code, out, _ = run(capsys, "--seed", "42", "verify", "--q", "5,2", "--samples", "20")
        assert code == 0
        assert "4/4 cells pass" in out

    def test_single_cell(self, capsys):
        code, out, _ = run(
            capsys, "--seed", "42", "--format", "json",
            "verify", "--q", "5,2", "--cell", "2,2", "--samples", "10",
        )
        assert code == 0
        data = json.loads(out)
        assert data["reports"][0]["max_type"] == [4, 1, 1, 1]

    def test_unstable_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--q", "6,5")
        assert code == 2 and "stable" in err

    def test_nonprime_exits_2(self, capsys):
        code, _, err = run(capsys, "--prime", "1000000006", "verify", "--q", "5,2")
        assert code == 2 and "prime" in err

    def test_determinism(self, capsys):
        argv = ["--seed", "7", "--format", "json", "verify", "--q", "5,2", "--samples", "10"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_json_formats_no_text_lines(self, capsys, monkeypatch):
        def no_text(p):
            raise AssertionError("text line built for JSON output")

        monkeypatch.setattr(cli, "ar_notation", no_text)
        code, out, _ = run(capsys, "--format", "json", "verify", "--q", "5,2", "--samples", "4")
        assert code == 0 and json.loads(out)["passed"] == 4


class TestOtherCommands:
    def test_intersect(self, capsys):
        code, out, _ = run(
            capsys, "--seed", "3", "--format", "json",
            "intersect", "--q", "5,2", "--cells", "1,2+2,1", "--samples", "60",
        )
        assert code == 0
        data = json.loads(out)
        assert data["branches"][0]["max_type"] == [3, 3, 1]

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "--seed", "5", "oracle", "--p", "2,1,1", "--samples", "60")
        assert code == 0
        assert out.splitlines()[0] == "[4]"

    def test_oracle_oversize_exits_2(self, capsys):
        code, _, err = run(capsys, "oracle", "--p", "13", "--samples", "5")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oracle_size_bound_checked_before_any_draw(self, capsys, monkeypatch, fmt):
        # |P| = 13 is one past the default bound of 12
        calls = []
        draw = commutator._draw_free
        monkeypatch.setattr(commutator, "_draw_free", lambda *a, **kw: calls.append(a) or draw(*a, **kw))
        code, out, err = run(capsys, "--format", fmt, "oracle", "--p", "7,6", "--samples", "2")
        assert code == 2 and out == "" and calls == []
        assert err.strip().splitlines() == ["error: |P|=13 exceeds --size-bound 12"]
        code, out, err = run(capsys, "--format", fmt, "--size-bound", "13",
                             "oracle", "--p", "7,6", "--samples", "1")
        assert code == 0 and err == "" and len(calls) == 1

    def test_survey(self, capsys):
        code, out, _ = run(
            capsys, "--seed", "9", "--format", "json", "survey", "--q", "5,2", "--samples", "40"
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_in_box"] is True

    def test_env_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("NILCOMMUTE_SEED", "123")
        monkeypatch.setenv("NILCOMMUTE_PRIME", "999999937")
        code, out, _ = run(capsys, "--format", "json", "burge", "dmap", "--partition", "1")
        assert code == 0
        data = json.loads(out)
        assert data["config"]["seed"] == 123
        assert data["config"]["prime"] == 999999937

    @pytest.mark.parametrize("name, value", [("NILCOMMUTE_PRIME", "abc"), ("NILCOMMUTE_SEED", "1.5")])
    def test_bad_env_default_names_the_variable(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, "table", "--q", "5,2")
        assert code == 2 and out == ""
        assert err.strip().splitlines() == [f"error: {name}='{value}' is not an integer"]

    def test_negative_seed_flag_exits_2(self, capsys):
        # -3 and 3 would name one generator state under two seeds
        code, out, err = run(capsys, "--seed", "-3", "survey", "--q", "8,5,2")
        assert code == 2 and out == ""
        assert err.strip().splitlines() == ["error: --seed -3 is negative: seeds must be at least 0"]

    def test_negative_seed_variable_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("NILCOMMUTE_SEED", "-3")
        code, out, err = run(capsys, "survey", "--q", "8,5,2")
        assert code == 2 and out == ""
        assert err.strip().splitlines() == ["error: NILCOMMUTE_SEED=-3 is negative: seeds must be at least 0"]

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, env", [
        (("burge", "dmap", "--partition", "1_0,\u0663,2"), {}),
        (("burge", "dmap", "--partition", " 5,2"), {}),
        (("--seed", "1_0", "table", "--q", "5,2"), {}),
        (("--prime", "\uff17", "table", "--q", "5,2"), {}),
        (("--size-bound", "1_2", "oracle", "--p", "2,1"), {}),
        (("verify", "--q", "5,2", "--samples", "\u0663"), {}),
        (("verify", "--q", "5,2", "--cell", "1, 1"), {}),
        (("table", "--q", "5,2"), {"NILCOMMUTE_SEED": " 1_2 "}),
        (("table", "--q", "5,2"), {"NILCOMMUTE_PRIME": "1_000_000_007"}),
    ])
    def test_numbers_are_ascii_decimal(self, capsys, monkeypatch, argv, env):
        # int() takes each of these: underscores, other scripts' digits, spaces
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err and "Traceback" not in err


class TestSamples:
    @pytest.mark.parametrize("command", [
        ("verify", "--q", "5,2", "--cell", "1,1"),
        ("survey", "--q", "5,2"),
        ("intersect", "--q", "5,2", "--cells", "1,2+2,1"),
        ("oracle", "--p", "2,1"),
    ])
    def test_zero_samples_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--samples", "0")
        assert code == 2 and out == ""
        assert err.strip().splitlines() == ["error: --samples must be at least 1"]


class TestIntersectWithoutGenericType:
    ARGV = ("--prime", "2", "intersect", "--q", "7,3", "--cells", "2,1+1,3", "--samples", "200")

    def test_json_reports_empty_max_type(self, capsys):
        code, out, err = run(capsys, "--format", "json", *self.ARGV)
        assert code == 0 and err == ""
        assert [br["max_type"] for br in json.loads(out)["branches"]] == [[]]

    def test_text_says_there_is_none(self, capsys):
        code, out, _ = run(capsys, *self.ARGV)
        assert code == 0
        assert out.splitlines()[1] == "  single branch: no generic type (no sampled type dominates the rest)"


class TestOracleWithoutGenericType:
    ARGV = ("--prime", "2", "--seed", "3", "oracle", "--p", "3,3,2,1,1", "--samples", "40")

    def test_json_reports_empty_oracle(self, capsys):
        code, out, err = run(capsys, "--format", "json", *self.ARGV)
        assert code == 1 and err == ""
        data = json.loads(out)
        assert data["oracle"] == [] and data["agree"] is False

    def test_text_says_there_is_none(self, capsys):
        code, out, err = run(capsys, *self.ARGV)
        assert code == 1 and err == ""
        assert out.splitlines() == ["no generic type (no sampled type dominates the rest)",
                                    "agrees with dmap: False"]


class TestVerifyWithoutGenericType:
    ARGV = ("--prime", "2", "verify", "--q", "5,2", "--cell", "2,1")

    def test_json_reports_empty_max_type(self, capsys):
        code, out, err = run(capsys, "--format", "json", *self.ARGV)
        assert code == 1 and err == ""
        (rep,) = json.loads(out)["reports"]
        assert rep["max_type"] == [] and rep["pass"] is False

    def test_text_says_there_is_none(self, capsys):
        code, out, err = run(capsys, *self.ARGV)
        assert code == 1 and err == ""
        assert out.splitlines() == [
            "cell (2,1): no generic type (no sampled type dominates the rest) expected=[4,2,1] "
            "match=0.00 jac=True trop=True FAIL",
            "0/1 cells pass",
        ]


def test_parser_is_shared_and_formats_do_not_leak(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "--format", "json", "table", "--q", "5,2")
    assert code == 0 and json.loads(out)["q"] == [5, 2]
    code, out, _ = run(capsys, "table", "--q", "5,2")
    assert code == 0 and out.splitlines()[0] == "table of [5,2]: 2 rows x 2 columns"


def test_every_flag_and_positional_has_help(capsys, monkeypatch):
    # the grammar gives each flag and positional a description, and each
    # help page shows every one of its own, unwrapped on a wide terminal
    monkeypatch.setenv("COLUMNS", "200")
    args = [*cli._GLOBALS, *(arg for command in cli._COMMANDS for arg in command.args)]
    assert [arg.name for arg in args if not (arg.help or "").strip()] == []
    for argv, own in [((), cli._GLOBALS), *(((c.name,), c.args) for c in cli._COMMANDS)]:
        code, out, _ = run(capsys, *argv, "--help")
        assert code == 0
        for arg in own:
            assert arg.help % {"default": arg.default} in out


class TestParsers:
    # arbitrary text either parses or is a usage error (exit 2), never anything else
    @pytest.mark.parametrize("parse", [cli._parse_partition, cli._parse_cell, cli._parse_cells])
    @given(text=st.text() | st.text(alphabet="0123456789,+- _\n"))
    def test_parse_or_usage_error(self, parse, text):
        try:
            parse(text)
        except UsageError:
            pass


class TestPrimeRange:
    def test_large_prime_is_checked_quickly(self, capsys):
        code, out, _ = run(capsys, "--prime", "2305843009213693951", "table", "--q", "5,2")
        assert code == 0 and "table of [5,2]" in out

    def test_largest_prime_below_2_63_runs(self, capsys):
        code, out, _ = run(capsys, "--prime", "9223372036854775783", "--format", "json",
                           "oracle", "--p", "2,1", "--samples", "20")
        assert code == 0 and json.loads(out)["agree"]

    def test_prime_from_2_63_exits_2(self, capsys):
        code, out, err = run(capsys, "--prime", "18446744073709551557", "table", "--q", "5,2")
        assert code == 2 and out == ""
        assert "2^63" in err and "Traceback" not in err


class TestExitCodes:
    def test_failed_verification_exits_1(self, capsys):
        # at p = 2 cancellations are common and some cell sees incomparable types
        code, out, _ = run(capsys, "--prime", "2", "--format", "json", "verify", "--q", "5,2")
        assert code == 1
        reports = json.loads(out)["reports"]
        assert any(rep["max_type"] == [] and not rep["pass"] for rep in reports)
        keys = {"q", "cell", "prime", "seed", "samples", "max_type", "expected", "jacobian_rank_ok",
                "tropical_agree", "pass", "match_rate", "converse_hits", "converse_ok"}
        assert all(set(rep) == keys for rep in reports)

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sampler bug")

        monkeypatch.setattr(cli, "dmap_oracle", broken)
        code, out, err = run(capsys, "oracle", "--p", "2,1")
        assert code == 3 and out == ""
        assert err.strip().splitlines() == ["internal error: RuntimeError: sampler bug"]

    def test_text_formatting_error_exits_3(self, capsys, monkeypatch):
        def broken(p):
            raise RuntimeError("formatting bug")

        monkeypatch.setattr(cli, "ar_notation", broken)
        code, out, err = run(capsys, "verify", "--q", "5,2", "--samples", "4")
        assert code == 3 and out == ""
        assert err.strip().splitlines() == ["internal error: RuntimeError: formatting bug"]


def refuse_argparse(monkeypatch):
    """Fail any `main` call that would fall back to argparse."""
    def refuse():
        raise AssertionError("argv sent to argparse")

    monkeypatch.setattr(cli, "build_parser", refuse)


def parse_or_exit(argv):
    """`build_parser().parse_args(argv)`, or the exit code it leaves with,
    with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code


# forms only argparse reads: abbreviations, `=` forms, negative values,
# `--`, help, unknown words and stray dashes
JUNK = ["--sam", "--s", "--pr", "--cel", "--samples=3", "--q=5,2", "-1", "--", "-h", "--help",
        "frobnicate", "-", "--seed=1"]
TEXTS = ["5,2", "8,5,2", "1,1", "1,2+2,1", "", "a a b b a", "verify", "x"]


def tokens_of(arg):
    """Values for one flag or positional of the grammar, a few of them bad."""
    if arg.choices:
        return st.sampled_from([*arg.choices, "xml"])
    if arg.convert is cli._decimal:
        return st.sampled_from(["0", "3", "12", "1_0"])
    return st.sampled_from(TEXTS)


@st.composite
def grammar_argv(draw):
    """Most of one command's form, from the grammar's own flags and values,
    in any order: each flag or positional is dropped with chance 1/8, and a
    global flag put after the command word with chance 1/16; then, each
    with chance 1/4, a flag repeated and a junk token spliced in."""
    command = draw(st.sampled_from(cli._COMMANDS))
    before, after, pairs = [], [], []
    for args in (cli._GLOBALS, command.args):
        for arg in draw(st.permutations(args)):
            place, value = draw(st.integers(0, 15)), draw(tokens_of(arg))
            if place > 13:
                continue
            if not arg.name.startswith("-"):
                after.append(value)
                continue
            pairs.append([arg.name, value])
            (before if args is cli._GLOBALS and place < 13 else after).extend(pairs[-1])
    argv = [*before, command.name, *after]
    if pairs and draw(st.integers(0, 3)) == 3:
        argv += draw(st.sampled_from(pairs))
    if draw(st.integers(0, 3)) == 3:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


class TestScan:
    """`_scan` reads the plain argv forms in one pass over the grammar and
    leaves every other form to argparse, which stays the oracle."""

    BENCHMARK_FORMS = [
        ("--format", "json", "--seed", "1", "--prime", "1000000007",
         "verify", "--q", "12,5", "--cell", "3,2", "--samples", "2"),
        ("--format", "json", "--seed", "1", "--prime", "1000000007",
         "survey", "--q", "10,7,4,1", "--samples", "5"),
    ]
    PLAIN_FORMS = [
        ("burge", "encode", "--partition", "5,4,3,3,3,2,2,1"),
        ("--format", "json", "burge", "--code", "a a b b a", "decode"),
        ("box", "--q", "8,5,2"),
        ("--seed", "4", "table", "--q", "7,3"),
        ("--seed", "3", "intersect", "--q", "7,3", "--cells", "1,2+2,2", "--samples", "10"),
        ("--size-bound", "8", "oracle", "--p", "4,2,1", "--samples", "10"),
    ]

    @settings(max_examples=300)
    @given(argv=grammar_argv() | st.lists(st.sampled_from(
        [arg.name for arg in cli._GLOBALS] + [c.name for c in cli._COMMANDS] + TEXTS + JUNK), max_size=10))
    def test_scan_is_none_or_what_argparse_parses(self, argv):
        scanned = cli._scan(argv)
        assert scanned is None or scanned == parse_or_exit(argv)

    @pytest.mark.parametrize("argv", BENCHMARK_FORMS + PLAIN_FORMS)
    def test_plain_forms_are_scanned(self, capsys, monkeypatch, argv):
        scanned = cli._scan(list(argv))
        assert scanned is not None and scanned == parse_or_exit(list(argv))
        refuse_argparse(monkeypatch)
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("argv", [
        ("burge", "--partition", "5,2"),
        ("burge", "encode", "dmap", "--partition", "5,2"),
        ("intersect", "--q", "5,2"),
        ("verify", "--q", "5,2", "--seed", "1"),
        ("--q", "5,2", "verify"),
        ("--format", "xml", "table", "--q", "5,2"),
        ("--seed", "1_0", "table", "--q", "5,2"),
        ("table", "--q"),
        ("--seed", "1"),
    ])
    def test_forms_argparse_refuses_are_not_scanned(self, capsys, argv):
        assert cli._scan(list(argv)) is None
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage: nilcommute")

    def test_help_is_argparse(self, capsys):
        for argv in (["--help"], ["verify", "--help"]):
            assert cli._scan(argv) is None
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "" and out.startswith("usage: nilcommute")

    @pytest.mark.parametrize("flag", [("--sam", "3"), ("--samples=3",)])
    def test_abbreviated_and_equals_forms_run_as_before(self, capsys, flag):
        argv = ["--seed", "5", "--format", "json", "verify", "--q", "5,2"]
        assert cli._scan(argv + list(flag)) is None
        assert run(capsys, *argv, *flag) == run(capsys, *argv, "--samples", "3")

    def test_repeated_flag_keeps_its_last_value(self, capsys):
        argv = ["--seed", "1", "--format", "json", "--seed", "2", "table", "--q", "5,2"]
        assert cli._scan(argv) is None
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["config"]["seed"] == 2

    def test_negative_value_keeps_its_message(self, capsys):
        argv = ["--seed", "-1", "table", "--q", "5,2"]
        assert cli._scan(argv) is None
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.strip().splitlines() == ["error: --seed -1 is negative: seeds must be at least 0"]


    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["verify", "--q", "5,2", "--sam", "3"],
        ["--format", "json", "verify", "--q", "5,2", "--cell", "1,1", "--samples", "2"],
    ])
    def test_one_shot_iterator_reaches_both_paths(self, capsys, argv):
        # the scan does not use up an iterator before the argparse fallback
        expected = run(capsys, *argv)
        code = main(iter(argv))
        out = capsys.readouterr()
        assert (code, out.out, out.err) == expected


class TestEntryPoint:
    """`python -m nilcommute.cli`, which the `nilcommute` script runs, exits with main's code."""

    @pytest.mark.parametrize("argv, expected", [
        (("burge", "dmap", "--partition", "4,2,1"), 0),
        (("--prime", "2", "verify", "--q", "5,2"), 1),
        (("box", "--q", "5,4"), 2),
        (("--format", "json", "verify", "--q", "5,2", "--cell", "1,1", "--samples", "2"), 0),
    ])
    def test_module_exit_code(self, argv, expected):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-m", "nilcommute.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == expected, out.stderr
        assert "Traceback" not in out.stderr

    def test_sys_argv_goes_through_the_scan(self, capsys, monkeypatch):
        # main() with no argv reads sys.argv[1:], as the script does
        argv = ["--format", "json", "verify", "--q", "5,2", "--cell", "1,1", "--samples", "2"]
        monkeypatch.setattr(sys, "argv", ["nilcommute", *argv])
        refuse_argparse(monkeypatch)
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["passed"] == 1


class TestGoldenPayloads:
    """SHA-256 digests and exit codes of fixed-seed JSON payloads and text
    reports of every command form.

    They pin every sampled type, verdict, report key and text line: a
    refactor must leave them byte-identical.  A change that moves an RNG
    draw on purpose updates the digests and says so in CHANGES.md.  At
    p = 3 cancellations fail some `verify` cells and put types outside the
    `survey` box (exit 1).
    """

    COMMANDS = {
        "verify": ("verify", "--q", "5,2", "--samples", "10"),
        "verify-cell": ("verify", "--q", "13,4", "--cell", "3,2", "--samples", "6"),
        "intersect": ("intersect", "--q", "7,3", "--cells", "1,2+2,2", "--samples", "40"),
        "survey": ("survey", "--q", "8,5,2", "--samples", "30"),
        "oracle": ("oracle", "--p", "4,2,1", "--samples", "30"),
        "encode": ("burge", "encode", "--partition", "5,4,3,3,3,2,2,1"),
        "decode": ("burge", "decode", "--code", "b a2 b2 a7 b5 a"),
        "dmap": ("burge", "dmap", "--partition", "5,4,3,3,3,2,2,1"),
        "box": ("box", "--q", "8,5,2"),
        "table": ("table", "--q", "7,3"),
    }
    GOLDEN = {
        (3, "verify"): (1, "8826c0e0305e7759914b5dc79749d27b003643d2136d71113e6e3b2bf90831a1"),
        (3, "verify-cell"): (1, "b4f1b392e6becb45e3caa4179ae6b1d70f8e2c7392bdcb6fab63b50200cb25ac"),
        (3, "intersect"): (0, "a360930fae5077f65f0b5afdbc71d1993afdfc55519577b9deea5d55af0afa21"),
        (3, "survey"): (1, "2ee73c2ea74228e77555b2dbe5e67294d7641242577b27a0c547d17d67614da3"),
        (3, "oracle"): (0, "2aeef75cd149a1d053364425fca20560c2feddedd8c2b58921c78f0400cb4e3e"),
        (1_000_000_007, "verify"): (0, "a6dd0da9fedd83b3cb2a31bb9576b50c899dae9af68040126b973fa5fa0039b5"),
        (1_000_000_007, "verify-cell"): (0, "bb635b671de7323592d23bdbf3960b5d98d129d5fe785ae3de9ae66c5b8730ef"),
        (1_000_000_007, "intersect"): (0, "20e08bf6797f5b0141c24117edb2acde15501c5d472ef7f85fc19a4a10d9e7a3"),
        (1_000_000_007, "survey"): (0, "aa0d3c12145d81508e85ffae94471451fc961fa489e218374588282293c8f94a"),
        (1_000_000_007, "oracle"): (0, "229af358f5471c9d31f0f141873e48e923acf744e70193dcc9791a162f783a17"),
        (2_147_483_659, "verify"): (0, "c78b37b8830486439c98313a8f1061e64a7ebdbd59951a900343f5cc63b913d5"),
        (2_147_483_659, "verify-cell"): (0, "7da4d7a5ee39b101cde23d59e867fa3021651edfc89ba2025782fc08445ede06"),
        (2_147_483_659, "intersect"): (0, "ab2db732faadc045e64ecf591f5ed0b88c2f7770e167dde270d0c3d2ebda3d61"),
        (2_147_483_659, "survey"): (0, "9bdb915e1eb3a1623d51ed78f76c98dba3d86d252f58835338a1a4e20c8500b0"),
        (2_147_483_659, "oracle"): (0, "f1487fa1aa121e3abef30c71e15f6b6d50bb39068fd2ee6dd3fa3fb2a9d67c8f"),
        (1_000_000_007, "encode"): (0, "101bf8dfb00dc1f49cb6aedd11da3e80c896b55c4eeb84ffa6a0907abb9b809d"),
        (1_000_000_007, "decode"): (0, "c2ce1f009bfd244e59fb7879a539c3818c6eddd14b94f4873b70cdbbb86eb76d"),
        (1_000_000_007, "dmap"): (0, "6bbebefc5d571e32fc6509c36e9438c67c40d053fb47a1de107423fe1d729204"),
        (1_000_000_007, "box"): (0, "6a0a48feaf1971ca9834c91bede2baca6a2f8ac51e3d37aca3c461b5ab16901f"),
        (1_000_000_007, "table"): (0, "6d048ba079f38195e48292f18c2a246e6a038d178ecc9f0ff4d5493cbcc5c427"),
    }
    TEXT_GOLDEN = {
        (3, "verify"): (1, "49a6dace98bb231f7f87259400ac4ebac831a537acb4e4cb999d2a3fc9206e20"),
        (3, "verify-cell"): (1, "21639be1ecaa515d63b649721128e971437c6daf18f8addfd348afcd25fb2b49"),
        (3, "intersect"): (0, "d9d4850eee87c5a7ee7242a365ba58d2c90b791ed303a8f22b6d2e8e4687defd"),
        (3, "survey"): (1, "ca5e6cc763d01d6eedfb9887c705d7cbffd656b18d5bd254344e02b01a7d69bf"),
        (3, "oracle"): (0, "0d8d88b2d6102727a4178fc969009ba4e3b9f6bc97fc1dea72282a35bbfe0a75"),
        (1_000_000_007, "verify"): (0, "d72ddbeb31e26ded86668b86efec8dcb6a12a5acb98fa1ba3a6ed00aa4eab380"),
        (1_000_000_007, "verify-cell"): (0, "790e1ca613e5d084446ecdcad37ec834f4b68e6ab1e41dbff6c78571b027e565"),
        (1_000_000_007, "intersect"): (0, "d9d4850eee87c5a7ee7242a365ba58d2c90b791ed303a8f22b6d2e8e4687defd"),
        (1_000_000_007, "survey"): (0, "3b907159258f2af344e22e71c7da1fa363a1e6582ecb8f5b4728b8b21b750876"),
        (1_000_000_007, "oracle"): (0, "0d8d88b2d6102727a4178fc969009ba4e3b9f6bc97fc1dea72282a35bbfe0a75"),
        (1_000_000_007, "encode"): (0, "7abf2d7fa98c11fab889be9fb84840236096d471c88ea9fceeb9464954453e36"),
        (1_000_000_007, "decode"): (0, "cd4926af4b38703945777ade83ba32fbcbc7f15cce09f5629307240ffe5eebac"),
        (1_000_000_007, "dmap"): (0, "fcf877984542cdcbea8414cbea775125d79e18bfc1dfc69e1f941e16792c9c54"),
        (1_000_000_007, "box"): (0, "bf19948ce351fb4372d3914c20a63cffc9f57a12257876bfe181e5b7f1b88491"),
        (1_000_000_007, "table"): (0, "b487194a4d9e8b38d1a5e6d2c515626e449a50b62de0ce813d84adfe2f10695b"),
    }

    def digest(self, capsys, fmt, prime, name):
        argv = ("--prime", str(prime), "--format", fmt, "--seed", "3", *self.COMMANDS[name])
        code, out, err = run(capsys, *argv)
        assert err == ""
        return code, hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("prime, name", sorted(GOLDEN))
    def test_payload_is_unchanged(self, capsys, prime, name):
        assert self.digest(capsys, "json", prime, name) == self.GOLDEN[prime, name]

    @pytest.mark.parametrize("prime, name", sorted(TEXT_GOLDEN))
    def test_text_is_unchanged(self, capsys, prime, name):
        assert self.digest(capsys, "text", prime, name) == self.TEXT_GOLDEN[prime, name]

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_form_is_scanned(self, name):
        argv = ["--prime", "3", "--format", "json", "--seed", "3", *self.COMMANDS[name]]
        scanned = cli._scan(argv)
        assert scanned is not None and scanned == parse_or_exit(argv)

    @pytest.fixture
    def argparse_only(self, monkeypatch):
        """Send every argv to the argparse fallback, which must print the same bytes."""
        monkeypatch.setattr(cli, "_scan", lambda argv: None)

    @pytest.mark.parametrize("prime, name", sorted(GOLDEN))
    def test_payload_is_unchanged_through_argparse(self, capsys, argparse_only, prime, name):
        assert self.digest(capsys, "json", prime, name) == self.GOLDEN[prime, name]

    @pytest.mark.parametrize("prime, name", sorted(TEXT_GOLDEN))
    def test_text_is_unchanged_through_argparse(self, capsys, argparse_only, prime, name):
        assert self.digest(capsys, "text", prime, name) == self.TEXT_GOLDEN[prime, name]
