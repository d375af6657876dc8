import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcommute import cli
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

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2


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
