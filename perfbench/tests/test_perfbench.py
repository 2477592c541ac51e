"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import common  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds="0.2", cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def names_and_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", ["sweep", "oneshot"])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_the_declared_metrics(workload, trace, section):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == names_and_units(section)
    info = json.loads(done.stdout.strip().splitlines()[-2].removeprefix("perfbench-info "))
    assert info["env"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace == 0:
        assert info["checked_against_reference"] >= 1


def test_declared_names_match_the_code():
    assert names_and_units("per_layer") == tracing.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(common.WORKLOADS)


def test_traced_run_reports_a_missing_name_as_absent(monkeypatch, tmp_path):
    import fredreg.assembly
    import inproc

    # An adaptive-only run never builds a Galerkin matrix, so it still
    # works without the name, as it would after a commit that drops it.
    monkeypatch.delattr(fredreg.assembly, "galerkin_matrix")
    spec = replace(common.WORKLOADS["deep"], m_cap=4, levels=(5e-3,), trace_rate=4.0)
    # Seed 1: the recorded reference holds the full-size workload's outcomes.
    tally, layers, details = inproc.run_traced(spec, 1, 1.0, tmp_path / "trace.json")
    assert details["absent"] == ["fredreg.assembly.galerkin_matrix"]
    assert tally.failed == 0 and tally.attempted == 8
    metrics = tracing.report(layers)
    assert metrics["assembly.galerkin.fills"] == (0, "count")
    assert metrics["shifted.solve.calls"][0] > 0
    assert not hasattr(fredreg.assembly.exp_haar_matrix, "__wrapped__")


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    for workload in common.WORKLOADS:
        done = run_bench(workload, 0, cwd=tmp_path)
        assert done.returncode != 0
        assert done.stdout == ""


def test_tail_has_ten_samples_beyond_it_capped_at_p90():
    assert common.tail(list(range(29))) == (18, 100.0 * 19 / 29)
    assert common.tail(list(range(99))) == (88, 100.0 * 89 / 99)
    assert common.tail(list(range(100))) == (89, 90.0)
    assert common.tail(list(range(570))) == (512, 90.0)
    assert common.tail(list(range(14000))) == (12599, 90.0)
    assert common.tail([3.0, 1.0]) == (3.0, 100.0)
