"""Tests of the benchmark harness: names, tracing hygiene and smoke-sized runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import nilcommute  # noqa: E402
import run as bench  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LOCI = ("loci.equations.calls", "loci.sample_on_locus.us_per_call",
        "loci.jacobian_rank_at.us_per_call", "loci.verify_cell.us_self")
GF_P = ("modpoly.rank.calls", "modpoly.matmul.calls", "modpoly.truncpoly.count",
        "commutator.assemble_blocks.calls", "commutator.jordan_type_of_matrix.calls") + LOCI


def _smoke_jobs(workload):
    # a handful of jobs spread over the workload's sizes, plus its last one
    wl = WORKLOADS[workload]
    inputs = wl.inputs()
    return [wl.job(x, 0) for x in inputs[:: len(inputs) // 4] + inputs[-1:]]


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "nilcommute" or name.startswith("nilcommute."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (nilcommute.TruncPoly, nilcommute.EquationSet):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_tracer_wraps_importers_and_restores_originals():
    import nilcommute.cli  # noqa: F401  (cli is not imported by the package)

    before = _bindings()
    with Tracer() as tr:
        assert nilcommute.loci.rank is nilcommute.commutator.rank is nilcommute.modpoly.rank
        assert nilcommute.loci.rank is not before["nilcommute.modpoly", "rank"]
        assert nilcommute.cli.verify_cell is nilcommute.loci.verify_cell
        bench.run_passes(_smoke_jobs("locus_verify")[:1], 0, {}, tr)
    assert tr.stats["modpoly.rank"][0] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_originals_when_a_job_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(_bindings()[k] is v for k, v in before.items())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_traced_results_match(workload):
    jobs = _smoke_jobs(workload)
    reference = {}
    untraced = bench.run_passes(jobs, 0, reference)
    with Tracer() as tr:
        traced = bench.run_passes(jobs, 0, reference, tr)
    assert all(not p.failed and not p.mismatched for p in untraced + traced)
    assert len(reference) == len(jobs)

    metrics, _ = bench.end_to_end_metrics(untraced, jobs, 0.1, 1.0)
    assert metrics.keys() == bench.END_TO_END.keys()
    assert all(v > 0 for v in metrics.values())
    layers = bench.per_layer_metrics(tr, len(traced), 1.0)
    assert layers.keys() == bench.PER_LAYER.keys()
    if workload == "code_roundtrip":
        assert all(layers[m] == 0 for m in GF_P)
        assert layers["burge.decode.calls"] == len(jobs)
    if workload == "oracle_sweep":
        assert all(layers[m] == 0 for m in LOCI)
        assert layers["commutator.oracle_top_hit_rate"] > 0
    if workload == "locus_verify":
        assert layers["loci.match_rate"] == 1.0
        assert layers["burge.table.calls"] > 0


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    value, percentile, beyond = bench.nearest_rank_tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "oracle_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
