import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcommute import cli, commutator
from nilcommute.cli import UsageError, main


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

    def test_bad_partition_exits_2(self, capsys):
        code, _, err = run(capsys, "burge", "encode", "--partition", "3,5")
        assert code == 2 and "error" in err

    def test_bad_code_exits_2(self, capsys):
        code, _, err = run(capsys, "burge", "decode", "--code", "a a")
        assert code == 2 and "error" in err

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


class TestGoldenPayloads:
    """SHA-256 digests and exit codes of fixed-seed JSON payloads.

    They pin every sampled type, verdict and report key: a refactor must
    leave them byte-identical.  A change that moves an RNG draw on purpose
    updates the digests and says so in CHANGES.md.  At p = 3 cancellations
    fail some `verify` cells and put types outside the `survey` box (exit 1).
    """

    COMMANDS = {
        "verify": ("verify", "--q", "5,2", "--samples", "10"),
        "verify-cell": ("verify", "--q", "13,4", "--cell", "3,2", "--samples", "6"),
        "intersect": ("intersect", "--q", "7,3", "--cells", "1,2+2,2", "--samples", "40"),
        "survey": ("survey", "--q", "8,5,2", "--samples", "30"),
        "oracle": ("oracle", "--p", "4,2,1", "--samples", "30"),
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
    }

    @pytest.mark.parametrize("prime, name", sorted(GOLDEN))
    def test_payload_is_unchanged(self, capsys, prime, name):
        argv = ("--prime", str(prime), "--format", "json", "--seed", "3", *self.COMMANDS[name])
        code, out, err = run(capsys, *argv)
        assert err == ""
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.GOLDEN[prime, name]
