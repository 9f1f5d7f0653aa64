"""Tests of the benchmark itself: its correctness gate and its trace counters.

    python3 -m pytest bench/test_bench.py -q

The trace tests run real workloads (about a minute in all).
"""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import workloads
from workloads import BENCH_DIR, ROOT, WORKLOADS


def _reference(name, index=0):
    return run.load_reference(WORKLOADS[name])[index]


def _write_run(path, columns, rows, summary):
    path.mkdir()
    lines = [",".join(columns)] + [",".join(r) for r in rows]
    (path / "results.csv").write_text("\n".join(lines) + "\n")
    (path / "summary.json").write_text(json.dumps(summary))  # writes NaN as NaN
    return str(path)


def _copy(ref):
    return json.loads(json.dumps(ref))


def test_gate_accepts_the_reference_outputs(tmp_path):
    for name in WORKLOADS:
        for i, ref in enumerate(run.load_reference(WORKLOADS[name])):
            d = _write_run(tmp_path / f"{name}-{i}", ref["columns"], ref["rows"], ref["summary"])
            assert gate.check_run(d, ref, at_reference_seed=True) == []


def test_gate_rejects_nan_in_results_at_any_seed(tmp_path):
    ref = _reference("paths_h16")
    rows = _copy(ref["rows"])
    rows[1][2] = "nan"
    d = _write_run(tmp_path / "run", ref["columns"], rows, ref["summary"])
    problems = gate.check_run(d, ref, at_reference_seed=False)
    assert any("results.csv row 1 mean_distance = 'nan'" in p for p in problems)


def test_gate_rejects_nan_in_summary_that_max_would_hide(tmp_path):
    ref = _reference("noise_draws")  # ou_checks
    summary = _copy(ref["summary"])
    summary["ks_pvalue"]["1.0"] = float("nan")
    d = _write_run(tmp_path / "run", ref["columns"], ref["rows"], summary)
    problems = gate.check_run(d, ref, at_reference_seed=False, require_passed=False)
    assert any("ks_pvalue.1.0 = nan" in p for p in problems)


@pytest.mark.parametrize("factor, accepted", [(1 + 3e-13, True), (1 + 3e-12, False)])
def test_gate_compares_every_value_at_the_reference_seed(tmp_path, factor, accepted):
    ref = _reference("paths_h16")
    moved = _copy(ref)
    moved["rows"][2][2] = repr(float(moved["rows"][2][2]) * factor)
    d = _write_run(tmp_path / "run", moved["columns"], moved["rows"], moved["summary"])
    assert (gate.check_run(d, ref, at_reference_seed=True) == []) is accepted
    # away from the reference seed the outputs are not compared
    assert gate.check_run(d, ref, at_reference_seed=False) == []


def test_gate_requires_passed(tmp_path):
    ref = _reference("paths_h16")
    summary = {**ref["summary"], "passed": False}
    d = _write_run(tmp_path / "run", ref["columns"], ref["rows"], summary)
    assert any("passed = False" in p for p in gate.check_run(d, ref, at_reference_seed=False))


@pytest.mark.parametrize(
    "change, accepted",
    [
        ({"action": "rel", "by": 1e-11}, True),
        ({"action": "rel", "by": 1e-9}, False),
        ({"converged": False}, False),
    ],
)
def test_instanton_gate(tmp_path, change, accepted):
    ref = _reference("instanton32")
    summary = _copy(ref["summary"])
    if "action" in change:
        summary["action"] *= 1 + change["by"]
    else:
        summary.update(change)
    d = _write_run(tmp_path / "run", ref["columns"], ref["rows"], summary)
    # the optimizer draws nothing, so the action is checked at every seed
    problems = gate.check_run(d, ref, at_reference_seed=False, require_passed=False)
    assert (problems == []) is accepted


def _traced_counts(name, seed, tmp_path):
    from tracer import Tracer, layer_metrics

    workloads.use_program_source()
    runs = run.Runs(WORKLOADS[name], seed, str(tmp_path), run.load_reference(WORKLOADS[name]))
    tr = Tracer()
    assert runs.once(tr) is not None and runs.failed == 0
    return {k: v for k, (v, unit) in layer_metrics(tr).items() if unit in run.COUNT_UNITS}


def test_trace_counts_match_the_workloads(tmp_path):
    h16 = _traced_counts("paths_h16", 1, tmp_path)
    besov = _traced_counts("paths_besov16", 1, tmp_path)
    draws = _traced_counts("noise_draws", 1, tmp_path)
    # 4 epsilons x 32 replicas x 50 steps, plus the 50-step skeleton
    assert h16["nonlinear.b_core.calls"] == besov["nonlinear.b_core.calls"] == 128 * 50 + 50
    assert h16["dynamics.steps"] == 128 * 50 + 50
    assert draws["nonlinear.b_core.calls"] == 0
    assert draws["noise.normals"] > h16["noise.normals"] > 0
    assert h16["spectral.besov_norm.calls"] == 0 < besov["spectral.besov_norm.calls"]
    assert besov["fields.to_grid.calls"] == besov["spectral.lp_norm.calls"] > 0


def test_two_traced_runs_at_one_seed_give_identical_counts():
    def counts():
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "paths_h16",
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in run.COUNT_UNITS}

    first = counts()
    assert first["nonlinear.b_core.calls"] > 0
    assert counts() == first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paths_h16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
