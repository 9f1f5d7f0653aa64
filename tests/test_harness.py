import ast
import csv
import dataclasses
import json
import os
import pathlib
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

import sns2d.experiments as experiments
from sns2d.cli import main as cli_main
from sns2d.experiments import (
    ExperimentConfig,
    numpy_dispatch,
    report,
    run,
    set_by_path,
    sweep,
    write_json_atomic,
)
from sns2d.fields import save_field, taylor_green
from sns2d.grid import SAMPLES_PER_CALL, grid_for
from sns2d.noise import wick_diagonal
from sns2d.spectral import lp_powers

from _oracles import load_trajectory, wick_diagonal_whole


def minimal_ou_config(seed=1):
    return {
        "schema_version": 1,
        "kind": "ou_checks",
        "numerics": {"cutoff": 6, "dt": 0.02},
        "noise": {"epsilon": 0.4, "delta": 0.1, "gamma": 1.0},
        "statistics": {"replicas": 3000, "seed": seed},
        "params": {"alphas": [0.0]},
        "thresholds": {"max_variance_rel_err": 0.2, "min_ks_pvalue": 0.005},
    }


def test_config_rejects_unknown_keys():
    raw = minimal_ou_config()
    raw["extra"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        ExperimentConfig.from_dict(raw)
    raw = minimal_ou_config()
    raw["numerics"]["dx"] = 0.1
    with pytest.raises(ValueError, match="unknown keys"):
        ExperimentConfig.from_dict(raw)
    raw = minimal_ou_config()
    raw["params"] = {"alpha": [0.0]}
    with pytest.raises(ValueError, match="unknown keys"):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_bad_schema_and_kind():
    raw = minimal_ou_config()
    raw["schema_version"] = 2
    with pytest.raises(ValueError, match="schema_version"):
        ExperimentConfig.from_dict(raw)
    raw = minimal_ou_config()
    raw["kind"] = "mystery"
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig.from_dict(raw)


def test_validation_names_the_violated_inequality():
    raw = {
        "schema_version": 1,
        "kind": "converge_besov",
        "noise": {
            "epsilons": [0.1, 0.01],
            "schedule": {"kind": "power", "exponent": 1.0},
        },
        "params": {"sigma": -0.8, "p": 4.0, "alpha": 0.3, "beta": 3.0},
    }
    with pytest.raises(ValueError, match=r"sigma > max\(-2/p, 2/p - 1\)"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "section, key, value",
    [("noise", "epsilon", float("nan")), ("numerics", "dt", float("inf")),
     ("params", "alphas", [0.0, -float("inf")])],
)
def test_config_rejects_non_finite_numbers(section, key, value):
    raw = minimal_ou_config()
    raw[section][key] = value
    with pytest.raises(ValueError, match=f"config.{section}.{key}.*non-finite"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "section, key, value",
    [("statistics", "replicas", 1.5), ("statistics", "replicas", 3000.0),
     ("statistics", "seed", True), ("statistics", "seed", "1"),
     ("numerics", "cutoff", True), ("numerics", "cutoff", 6.0),
     ("numerics", "grid_factor", 2.5), ("numerics", "grid_factor", False)],
)
def test_config_rejects_non_integer_counts(section, key, value):
    raw = minimal_ou_config()
    raw[section][key] = value
    with pytest.raises(ValueError, match=f"{section}.{key} must be an integer"):
        ExperimentConfig.from_dict(raw)


def test_json_writer_refuses_nan_and_keeps_finite_output(tmp_path):
    path = tmp_path / "s.json"
    with pytest.raises(ValueError):
        write_json_atomic(path, {"x": np.float64("nan")})
    assert not path.exists()
    write_json_atomic(path, {"b": np.float64(0.1), "a": [1, 2.5e-17]})
    assert path.read_text() == '{\n  "a": [\n    1,\n    2.5e-17\n  ],\n  "b": 0.1\n}\n'


def test_nan_variance_fails_ou_checks_and_is_never_written(tmp_path, monkeypatch):
    exact = experiments.mode_variances

    def poisoned(g, spec, alpha):
        out = exact(g, spec, alpha)
        out[3] = np.nan
        return out

    monkeypatch.setattr(experiments, "mode_variances", poisoned)
    cfg = ExperimentConfig.from_dict(minimal_ou_config())
    _, summary = experiments._run_ou_checks(experiments._RunContext(cfg))
    assert np.isnan(summary["max_variance_rel_err"])
    assert summary["passed"] is False
    with pytest.raises(ValueError):
        run(cfg, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_config_hash_deterministic_and_seed_sensitive():
    a = ExperimentConfig.from_dict(minimal_ou_config(seed=1))
    b = ExperimentConfig.from_dict(minimal_ou_config(seed=1))
    c = ExperimentConfig.from_dict(minimal_ou_config(seed=2))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_run_produces_outputs_and_passes(tmp_path):
    cfg = ExperimentConfig.from_dict(minimal_ou_config())
    record = run(cfg, str(tmp_path))
    assert record.passed
    assert os.path.isfile(record.results_csv)
    assert os.path.isfile(record.summary_json)
    assert os.path.isfile(os.path.join(record.run_dir, "config.json"))
    assert os.path.isfile(os.path.join(record.run_dir, "record.json"))
    # the sidecar names the numpy and dispatch the outputs' bits come from
    with open(os.path.join(record.run_dir, "record.json")) as fh:
        assert json.load(fh)["numpy"] == numpy_dispatch()
    with open(record.summary_json) as fh:
        summary = json.load(fh)
    assert summary["kind"] == "ou_checks"
    assert summary["max_variance_rel_err"] < 0.2
    # no stray temp files after atomic writes
    leftovers = [p for p in os.listdir(record.run_dir) if p.endswith(".part")]
    assert leftovers == []


def test_run_twice_is_byte_identical(tmp_path):
    cfg = ExperimentConfig.from_dict(minimal_ou_config())
    rec_a = run(cfg, str(tmp_path / "a"))
    rec_b = run(cfg, str(tmp_path / "b"))
    with open(rec_a.results_csv, "rb") as fh:
        csv_a = fh.read()
    with open(rec_b.results_csv, "rb") as fh:
        csv_b = fh.read()
    assert csv_a == csv_b
    with open(rec_a.summary_json, "rb") as fh:
        sum_a = fh.read()
    with open(rec_b.summary_json, "rb") as fh:
        sum_b = fh.read()
    assert sum_a == sum_b


def test_set_by_path():
    raw = {"a": {"b": 1}}
    set_by_path(raw, "a.b", 2)
    set_by_path(raw, "a.c.d", 3)
    assert raw == {"a": {"b": 2, "c": {"d": 3}}}


def lp_moment_config():
    return {
        "schema_version": 1,
        "kind": "lp_moment",
        "numerics": {"cutoff": 6},
        "noise": {"epsilon": 0.5},
        "statistics": {"replicas": 2000, "seed": 3},
        "params": {"p": 2.0, "deltas": [0.1, 0.01]},
        "thresholds": {"max_ratio_spread": 5.0, "max_closed_form_rel_err": 0.1},
    }


# members in this process, and on a pool of two workers
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_members_and_partial_failure(tmp_path, workers):
    records, errors = sweep(
        lp_moment_config(), "noise.epsilon", [0.5, 0.1, -1.0], str(tmp_path), workers=workers
    )
    assert len(records) == 2
    assert len(errors) == 1
    assert errors[0][0] == -1.0
    assert os.path.isfile(tmp_path / "sweep.csv")
    text = (tmp_path / "sweep.csv").read_text()
    assert "ERROR" in text
    # the failing member on its own row, the other two finished on theirs
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = {r["value"]: r for r in csv.DictReader(fh)}
    assert sorted(rows) == ["-1.0", "0.1", "0.5"]
    assert rows["-1.0"]["run_dir"].startswith("ERROR: ")
    assert all(os.path.isdir(rows[v]["run_dir"]) for v in ("0.1", "0.5"))


def test_cli_sweep_whose_members_all_fail_writes_its_table_into_a_new_outdir(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(lp_moment_config()))
    outdir = tmp_path / "new" / "runs"
    out = _cli("sweep", "-c", str(cfg_path), "-o", str(outdir),
               "--axis", "noise.epsilon", "--values=-1.0,-2.0")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert [line.split(": FAILED (")[0] for line in out.stderr.splitlines()] == [
        "noise.epsilon=-1.0", "noise.epsilon=-2.0",
    ]
    with open(outdir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["-1.0", "-2.0"]
    assert all(r["run_dir"].startswith("ERROR: ") and r["passed"] == "False" for r in rows)


def test_a_sweep_refuses_an_outdir_under_a_file_before_any_member_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_sweep_member", lambda job: pytest.fail("a member ran"))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    with pytest.raises(OSError, match="is not a writable directory"):
        sweep(lp_moment_config(), "noise.epsilon", [0.5], str(blocker / "runs"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(lp_moment_config()))
    out = _cli("sweep", "-c", str(cfg_path), "-o", str(blocker),
               "--axis", "noise.epsilon", "--values", "0.5")
    assert out.returncode == 1
    assert out.stderr.startswith("sweep failed: ") and "is not a writable directory" in out.stderr
    assert "Traceback" not in out.stderr
    assert blocker.read_text() == "keep"


def test_report_merges_and_rejects_mixed_kinds(tmp_path):
    rec1 = run(ExperimentConfig.from_dict(lp_moment_config()), str(tmp_path))
    cfg2 = lp_moment_config()
    cfg2["statistics"]["seed"] = 4
    rec2 = run(ExperimentConfig.from_dict(cfg2), str(tmp_path))
    text, ok = report([rec1.run_dir, rec2.run_dir], str(tmp_path / "merged.csv"))
    assert "lp_moment" in text
    assert ok
    assert (tmp_path / "merged.csv").exists()
    other = run(ExperimentConfig.from_dict(minimal_ou_config()), str(tmp_path))
    with pytest.raises(ValueError, match="mixed"):
        report([rec1.run_dir, other.run_dir])
    with pytest.raises(ValueError):
        report([])


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sns2d.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_round_trip(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(minimal_ou_config()))
    out = _cli("validate", "-c", str(cfg_path))
    assert out.returncode == 0, out.stderr
    assert "ok:" in out.stdout

    out = _cli("run", "-c", str(cfg_path), "-o", str(tmp_path / "runs"))
    assert out.returncode == 0, out.stderr
    run_dir = out.stdout.split("run dir:")[1].split()[0]
    out = _cli("report", run_dir)
    assert out.returncode == 0
    assert "all passed: True" in out.stdout


def test_cli_rejects_invalid_config(tmp_path):
    cfg = minimal_ou_config()
    cfg["kind"] = "nope"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert _cli("validate", "-c", str(cfg_path)).returncode == 2
    assert _cli("run", "-c", str(cfg_path)).returncode == 2


def test_cli_rejects_non_finite_constants(tmp_path):
    runs = str(tmp_path / "runs")
    cfg_path = tmp_path / "bad.json"
    for constant in ("NaN", "Infinity", "-Infinity"):
        body = json.dumps(minimal_ou_config()).replace('"epsilon": 0.4', f'"epsilon": {constant}')
        cfg_path.write_text(body)
        out = _cli("validate", "-c", str(cfg_path))
        assert out.returncode == 2 and "is not strict JSON" in out.stderr, constant
    assert _cli("run", "-c", str(cfg_path), "-o", runs).returncode == 2
    sweep_args = ("--axis", "noise.delta", "--values", "0.1", "-o", runs)
    assert _cli("sweep", "-c", str(cfg_path), *sweep_args).returncode == 2
    assert not os.path.exists(runs)


def test_cli_failing_threshold_exit_code(tmp_path):
    cfg = minimal_ou_config()
    cfg["thresholds"] = {"max_variance_rel_err": 1e-9, "min_ks_pvalue": 0.0}
    cfg_path = tmp_path / "strict.json"
    cfg_path.write_text(json.dumps(cfg))
    out = _cli("run", "-c", str(cfg_path), "-o", str(tmp_path / "runs"))
    assert out.returncode == 1
    assert "passed:  False" in out.stdout


def test_cli_seed_override_reads_a_null_statistics_as_validate_does(tmp_path):
    # --seed set statistics.seed into the null, a TypeError traceback
    dirs = []
    for stats in ({}, None):
        cfg = minimal_ou_config()
        cfg["statistics"] = stats
        cfg["thresholds"] = {"max_variance_rel_err": 10.0, "min_ks_pvalue": 0.0}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in (["run"], ["sweep", "--axis", "noise.delta", "--values", "0.1"]):
            outdir = tmp_path / f"{command[0]}-{stats}"
            args = [command[0], "-c", str(cfg_path), "-o", str(outdir), "--seed", "11"]
            assert cli_main(args + command[1:]) == 0
            dirs.append(sorted(os.listdir(outdir)))
    assert dirs[:2] == dirs[2:]


def test_cli_seed_override_changes_hash(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(minimal_ou_config()))
    out1 = _cli("run", "-c", str(cfg_path), "-o", str(tmp_path / "r1"), "--seed", "11")
    out2 = _cli("run", "-c", str(cfg_path), "-o", str(tmp_path / "r2"), "--seed", "12")
    d1 = out1.stdout.split("run dir:")[1].split()[0]
    d2 = out2.stdout.split("run dir:")[1].split()[0]
    assert os.path.basename(d1) != os.path.basename(d2)


SMOKE_CONFIGS = {
    "renorm": {
        "schema_version": 1,
        "kind": "renorm",
        "numerics": {"cutoff": 6},
        "noise": {"epsilon": 0.4, "delta": 0.1, "gamma": 1.0},
        "statistics": {"replicas": 100, "seed": 5},
        "params": {
            "deltas": [0.1],
            "cutoffs": [32, 64],
            "tail_tol": 1e-8,
            "wick_replicas": 400,
            "crosscheck_replicas": 5,
        },
        "thresholds": {"max_wick_zscore": 4.0},
    },
    "besov_moment": {
        "schema_version": 1,
        "kind": "besov_moment",
        "numerics": {"cutoff": 6, "dt": 0.02, "t_final": 0.06},
        "noise": {"schedule": {"kind": "power", "exponent": 1.0}},
        "statistics": {"replicas": 40, "seed": 6},
        "params": {"epsilons": [0.1, 0.01]},
    },
    "converge_h": {
        "schema_version": 1,
        "kind": "converge_h",
        "numerics": {"cutoff": 6, "dt": 0.02, "t_final": 0.2},
        "noise": {
            "eta": 1.0,
            "epsilons": [1e-1, 1e-2, 1e-3],
            "schedule": {"kind": "power", "exponent": 0.5},
        },
        "statistics": {"replicas": 4, "seed": 7},
        "params": {},
    },
    "converge_besov": {
        "schema_version": 1,
        "kind": "converge_besov",
        "numerics": {"cutoff": 6, "dt": 0.02, "t_final": 0.2},
        "noise": {
            "epsilons": [1e-1, 1e-2, 1e-3],
            "schedule": {"kind": "power", "exponent": 1.0},
        },
        "statistics": {"replicas": 4, "seed": 8},
        "params": {},
    },
    "wick_decay": {
        "schema_version": 1,
        "kind": "wick_decay",
        "numerics": {"cutoff": 6},
        "noise": {"schedule": {"kind": "power", "exponent": 1.0}},
        "statistics": {"replicas": 60, "seed": 9},
        "params": {"epsilons": [1e-1, 1e-2, 1e-3]},
    },
    "instanton": {
        "schema_version": 1,
        "kind": "instanton",
        "numerics": {"cutoff": 6, "dt": 0.02, "t_final": 0.2},
        "statistics": {"replicas": 1, "seed": 10},
        "params": {
            "initial": {"kind": "taylor_green", "amplitude": 0.4},
            "target": {"kind": "free_decay"},
            "endpoint_tolerance": 1e-6,
            "gradient_check_directions": 2,
        },
    },
    "laplace": {
        "schema_version": 1,
        "kind": "laplace",
        "numerics": {"cutoff": 6, "dt": 0.02, "t_final": 0.1},
        "noise": {"schedule": {"kind": "power", "exponent": 0.5}},
        "statistics": {"replicas": 8, "seed": 11},
        "params": {"functional": {"kind": "constant", "value": 0.3}},
    },
    "tube": {
        "schema_version": 1,
        "kind": "tube",
        "numerics": {"cutoff": 6, "dt": 0.02, "t_final": 0.2},
        "noise": {"epsilon": 0.01, "delta": 0.1},
        "statistics": {"replicas": 30, "seed": 12},
        "params": {
            "initial": {"kind": "taylor_green", "amplitude": 0.4},
            "radii": [0.05, 0.2, 1.0],
        },
    },
}


@pytest.mark.parametrize("kind", sorted(SMOKE_CONFIGS))
def test_every_kind_runs(tmp_path, kind):
    record = run(ExperimentConfig.from_dict(SMOKE_CONFIGS[kind]), str(tmp_path))
    assert os.path.isfile(record.results_csv)
    with open(record.summary_json) as fh:
        summary = json.load(fh)
    assert summary["kind"] == kind
    assert record.passed, summary


def _shell_instanton(tmp_path, cutoff, dt, n_steps):
    """The instanton summary from Taylor-Green 0.5 to 0.8 at the cutoff, and
    the discrete closed form of its endpoint-constrained minimum.

    Both ends lie in the shell |k|^2 = 2, where b vanishes along the path, so
    the minimum is sum_k |r_k|^2 / (dt psi1^2 S_k), r = exp(-|k|^2 T) u0 -
    target, S_k = sum_{m<n} exp(-2 |k|^2 dt m)."""
    raw = {
        "schema_version": 1,
        "kind": "instanton",
        "numerics": {"cutoff": cutoff, "dt": dt, "t_final": dt * n_steps},
        "statistics": {"replicas": 1, "seed": 0},
        "params": {
            "initial": {"kind": "taylor_green", "amplitude": 0.5},
            "target": {"kind": "taylor_green", "amplitude": 0.8},
            "endpoint_tolerance": 1e-3,
        },
    }
    record = run(ExperimentConfig.from_dict(raw), str(tmp_path))
    with open(record.summary_json) as fh:
        summary = json.load(fh)
    assert summary["converged"]
    action, weight, err = (summary[k] for k in ("action", "penalty_weight", "endpoint_error"))
    assert summary["constrained_action"] == action + 2.0 * weight * err**2
    g = grid_for(cutoff)
    z = g.ksq * dt
    decay, psi1 = np.exp(-z), -np.expm1(-z) / z
    S = np.sum(decay[None, :] ** (2 * np.arange(n_steps)[:, None]), axis=0)
    r = decay**n_steps * taylor_green(cutoff, 0.5).coeffs - taylor_green(cutoff, 0.8).coeffs
    return summary, float(np.sum(np.abs(r) ** 2 / (dt * psi1**2 * S)))


def test_instanton_constrained_action_is_near_the_shell_closed_form(tmp_path):
    summary, closed = _shell_instanton(tmp_path, 8, 0.02, 10)
    assert abs(summary["constrained_action"] - closed) * 100 <= abs(summary["action"] - closed)


def test_instanton_constrained_action_meets_the_shell_closed_form_at_cutoff_32(tmp_path):
    # the minimum-action benchmark's case (about 1.3 s); both bounds were
    # fixed before the run, against measured 2.9e-7 and 1,550x
    summary, closed = _shell_instanton(tmp_path, 32, 0.01, 50)
    gap = abs(summary["constrained_action"] - closed)
    assert gap <= 1e-6 * closed
    assert gap * 1000 <= abs(summary["action"] - closed)


@pytest.mark.parametrize("axis, values", [
    # the failed member's error text holds commas
    ("params.sigma", [-0.75, 0.1]),
    # the list values print with commas
    ("params.epsilons", [[0.1, 0.01], [0.1, -0.01]]),
])
def test_sweep_csv_rows_keep_four_columns_when_cells_hold_commas(tmp_path, axis, values):
    records, errors = sweep(SMOKE_CONFIGS["besov_moment"], axis, values, str(tmp_path))
    assert len(records) == 1 and len(errors) == 1
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis", "value", "run_dir", "passed"]
    assert [len(row) for row in rows] == [4, 4, 4]
    assert [row[1] for row in rows[1:]] == [str(v) for v in values]
    assert rows[2][2] == "ERROR: " + errors[0][1] and rows[2][3] == "False"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("configs/converge_besov.json", "36d77ca3b39b"),
        ("configs/converge_h.json", "0fa0a8a34099"),
        ("configs/lp_moment.json", "03e03ccede5c"),
        ("configs/ou_checks.json", "30b3abcbd9a2"),
        ("configs/renorm.json", "86107062c7bb"),
        ("bench/configs/instanton32.json", "b94e50cb0bf6"),
        ("besov_moment", "f9dfdcc6213d"),
        ("converge_besov", "36fe0da718bc"),
        ("converge_h", "15f1ed186b80"),
        ("instanton", "a67f6f7a8b0c"),
        ("laplace", "e55cb8ac19d4"),
        ("renorm", "2ab91bdbaf74"),
        ("tube", "49f020b173e2"),
        ("wick_decay", "97bfdc5be9d8"),
    ],
)
def test_config_hashes_are_pinned_and_defaults_pass_their_rules(name, digest):
    if name.endswith(".json"):
        raw = json.loads((pathlib.Path(__file__).parents[1] / name).read_text())
    else:
        raw = json.loads(json.dumps(SMOKE_CONFIGS[name]))
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.config_hash()[:12] == digest
    for key, (default, rule) in experiments.KINDS[cfg.kind].params.items():
        rule(f"{cfg.kind}: ", key, default)
    # the rules that span params pass on the defaults too
    ExperimentConfig.from_dict(raw | {"params": {}})


def test_force_lets_validate_accept_a_schedule_outside_the_regime():
    raw = json.loads(json.dumps(SMOKE_CONFIGS["converge_h"]))
    raw["noise"]["schedule"]["exponent"] = 2.0
    raw["params"]["force"] = True
    assert ExperimentConfig.from_dict(raw).params["force"] is True


def test_parallel_sweep_matches_serial(tmp_path):
    cfg = lp_moment_config()
    serial, err_s = sweep(cfg, "noise.epsilon", [0.5, 0.1], str(tmp_path / "s"), workers=1)
    parallel, err_p = sweep(cfg, "noise.epsilon", [0.5, 0.1], str(tmp_path / "p"), workers=2)
    assert not err_s and not err_p
    for a, b in zip(serial, parallel):
        bytes_a = open(a.results_csv, "rb").read()
        bytes_b = open(b.results_csv, "rb").read()
        assert bytes_a == bytes_b


@pytest.mark.parametrize("values, pool_size", [([0.5, 0.1], 2), ([0.5], None)])
def test_sweep_starts_no_more_workers_than_members(tmp_path, monkeypatch, values, pool_size):
    # the pool forks every worker at the first submit; a fake pool records
    # the count asked for and runs the members in this process
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            fut = concurrent.futures.Future()
            fut.set_result(fn(job))
            return fut

    def member(job):
        return job[0], types.SimpleNamespace(run_dir=str(job[0]), passed=True)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_sweep_member", member)
    records, errors = sweep(lp_moment_config(), "noise.epsilon", values, str(tmp_path), workers=64)
    assert len(records) == len(values) and not errors
    assert sizes == ([] if pool_size is None else [pool_size])


def test_dump_trajectories_flag(tmp_path):
    cfg_raw = SMOKE_CONFIGS["converge_h"] | {"io": {"dump_trajectories": True}}
    record = run(ExperimentConfig.from_dict(cfg_raw), str(tmp_path))
    files = os.listdir(record.run_dir)
    assert "skeleton.csv" in files
    assert "controlled_0.csv" in files
    traj = load_trajectory(os.path.join(record.run_dir, "skeleton.csv"))
    assert traj.n_steps == 10


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("max_iterations", 2.5, "max_iterations must be an integer >= 1"),
        ("max_iterations", -1, "max_iterations must be an integer >= 1"),
        ("max_iterations", 0, "max_iterations must be an integer >= 1"),
        ("max_iterations", True, "max_iterations must be an integer >= 1"),
        ("endpoint_tolerance", -1.0, "endpoint_tolerance must be finite and > 0"),
        ("endpoint_tolerance", 0.0, "endpoint_tolerance must be finite and > 0"),
        ("endpoint_tolerance", "1e-3", "endpoint_tolerance must be finite and > 0"),
        ("gradient_check_directions", 1.5, "gradient_check_directions must be an integer >= 0"),
        ("gradient_check_directions", -2, "gradient_check_directions must be an integer >= 0"),
    ],
)
def test_instanton_params_are_validated(key, value, match):
    raw = json.loads(json.dumps(SMOKE_CONFIGS["instanton"]))
    raw["params"][key] = value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict(raw)


def test_validate_exits_2_on_a_fractional_instanton_iteration_count(tmp_path):
    raw = json.loads(json.dumps(SMOKE_CONFIGS["instanton"]))
    raw["params"]["max_iterations"] = 2.5
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    out = _cli("validate", "-c", str(cfg_path))
    assert out.returncode == 2
    assert "max_iterations must be an integer >= 1, got 2.5" in out.stderr


def test_validate_rejects_a_misspelled_threshold(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "configs", "converge_h.json")) as fh:
        raw = json.load(fh)
    raw["thresholds"] = {"slope_sigma": 2.0}
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps(raw))
    out = _cli("validate", "-c", str(cfg_path))
    assert out.returncode == 2
    assert "thresholds(converge_h): unknown keys ['slope_sigma']" in out.stderr
    runs = tmp_path / "runs"
    assert _cli("run", "-c", str(cfg_path), "-o", str(runs)).returncode == 2
    assert not runs.exists()


@pytest.mark.parametrize("command", [
    ["validate"],
    ["run", "--seed", "3"],
    ["sweep", "--seed", "3", "--axis", "noise.epsilon", "--values", "0.1,0.01"],
])
@pytest.mark.parametrize("content, match", [
    (None, "cannot read"),
    ("[1, 2]", "holds a JSON list, not an object"),
    ('"ou_checks"', "holds a JSON str, not an object"),
    ("{", "Expecting property name"),
    # --seed set statistics.seed into the list, a TypeError traceback
    ('{"schema_version": 1, "kind": "ou_checks", "statistics": [1]}',
     "statistics: expected a mapping, got list"),
])
def test_the_cli_refuses_an_unreadable_or_non_object_config_with_exit_2(
    tmp_path, capsys, command, content, match
):
    cfg_path = tmp_path / "config.json"
    if content is not None:
        cfg_path.write_text(content)
    outdir = tmp_path / "runs"
    args = command[:1] + ["-c", str(cfg_path)] + command[1:]
    if command[0] != "validate":
        args += ["-o", str(outdir)]
    assert cli_main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid config: ") and match in err[0], err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "kind, section, key, value, match",
    [
        ("lp_moment", "statistics", "replicas", 1, "statistics.replicas must be an integer >= 2"),
        ("lp_moment", "params", "p", 0.5, "p must be a number >= 1, got 0.5"),
        ("lp_moment", "params", "deltas", [], "deltas must be a non-empty list of numbers > 0"),
        ("ou_checks", "params", "alphas", [], "alphas must be a non-empty list"),
        ("ou_checks", "statistics", "replicas", 1, "statistics.replicas must be an integer >= 2"),
        ("renorm", "params", "wick_replicas", 0, "wick_replicas must be an integer >= 2"),
        ("renorm", "params", "wick_replicas", 1, "wick_replicas must be an integer >= 2"),
        ("renorm", "params", "deltas", [0.0], "deltas must be a non-empty list of numbers > 0"),
        ("renorm", "params", "cutoffs", [], "cutoffs must be a non-empty list"),
        ("renorm", "params", "cutoffs", [32.5], "each cutoff must be an integer >= 1"),
        ("renorm", "noise", "delta", 0.0, "noise.delta must be > 0"),
        # run failed with "cannot convert float NaN to integer"
        ("renorm", "params", "tail_tol", -1, "renorm: tail_tol must be > 0, got -1"),
        # run raised RenormTailError on the theta table
        ("renorm", "params", "cutoffs", [4, 8],
         "renorm: params.cutoffs: tail estimate 2.526e-08 exceeds tail_tol 1.000e-08 at "
         "cutoff 4; approximately cutoff >= 6 required (delta=0.1)"),
    ],
)
def test_validate_exits_2_on_a_noise_config_that_run_fails_on(
    tmp_path, capsys, kind, section, key, value, match
):
    raw = lp_moment_config() if kind == "lp_moment" else minimal_ou_config()
    if kind == "renorm":
        raw = json.loads(json.dumps(SMOKE_CONFIGS["renorm"]))
    raw[section][key] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["validate", "-c", str(cfg_path)]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, section, key, value, match",
    [
        # run wrote a nan stderr and reported passed: true
        ("converge_h", "statistics", "replicas", 1,
         "converge_h: statistics.replicas must be an integer >= 2, got 1"),
        ("converge_besov", "statistics", "replicas", 1,
         "converge_besov: statistics.replicas must be an integer >= 2, got 1"),
        # run failed with "need at least 3 sweep points to fit a slope"
        ("converge_h", "noise", "epsilons", [1e-1, 1e-2],
         "converge_h: noise.epsilons must hold at least 3 distinct values to fit a slope"),
        ("converge_besov", "noise", "epsilons", [1e-1, 1e-2],
         "converge_besov: noise.epsilons must hold at least 3 distinct values to fit a slope"),
        ("converge_h", "noise", "epsilons", [1e-1, 1e-2, 1e-2],
         "converge_h: noise.epsilons must hold at least 3 distinct values to fit a slope"),
        ("converge_h", "noise", "epsilons", [1e-1, 1e-2, 0.0],
         "converge_h: noise.epsilons must be a non-empty list of numbers > 0"),
        # run failed with "the adjoint gradient is implemented for exponential_euler"
        ("instanton", "numerics", "scheme", "etd2",
         "instanton: the adjoint gradient is implemented for numerics.scheme "
         "'exponential_euler', got 'etd2'"),
        # run failed on the regime: eps * delta^(-1) = 10, 100, 1000, or delta grows
        ("converge_h", "noise", "schedule", {"kind": "power", "exponent": 2.0},
         "converge_h: schedule violates the scaling condition eps * delta(eps)^(-eta) -> 0"),
        ("converge_h", "noise", "schedule", {"kind": "power", "exponent": -1.0},
         "converge_h: schedule must satisfy delta(eps) -> 0"),
        # a truthy string ran as force
        ("converge_h", "params", "force", "yes", "converge_h: force must be true or false"),
        # run failed (IndexError, UFuncTypeError) or passed with a negative radius
        ("tube", "params", "radii", [], "tube: radii must be a non-empty list of numbers > 0"),
        ("tube", "params", "radii", "0.1", "tube: radii must be a non-empty list of numbers > 0"),
        ("tube", "params", "radii", [0.1, -0.2],
         "tube: radii must be a non-empty list of numbers > 0"),
        # run failed, or wrote a non-finite stderr
        ("wick_decay", "params", "epsilons", [],
         "wick_decay: epsilons must be a non-empty list of numbers > 0"),
        ("wick_decay", "params", "epsilons", [1e-1, 1e-2, 1e-2],
         "wick_decay: epsilons must hold at least 3 distinct values to fit a slope"),
        ("wick_decay", "params", "epsilons", [1e-1, 1e-2, 0.0],
         "wick_decay: epsilons must be a non-empty list of numbers > 0"),
        ("wick_decay", "statistics", "replicas", 1,
         "wick_decay: statistics.replicas must be an integer >= 2, got 1"),
        ("besov_moment", "params", "epsilons", [],
         "besov_moment: epsilons must be a non-empty list of numbers > 0"),
        ("besov_moment", "params", "epsilons", [0.1, -0.01],
         "besov_moment: epsilons must be a non-empty list of numbers > 0"),
        ("besov_moment", "params", "p", 0.5, "besov_moment: p must be a number >= 1, got 0.5"),
        ("besov_moment", "statistics", "replicas", 1,
         "besov_moment: statistics.replicas must be an integer >= 2, got 1"),
        # run failed, or reported a finite infimum that is -inf (scale < 0)
        ("laplace", "params", "epsilons", [], "laplace: epsilons must be a non-empty list"),
        ("laplace", "params", "epsilons", [0.1, 0.0],
         "laplace: epsilons must be a non-empty list of numbers > 0"),
        ("laplace", "statistics", "replicas", 1,
         "laplace: statistics.replicas must be an integer >= 2, got 1"),
        ("laplace", "params", "functional",
         {"kind": "clipped_endpoint", "target": {"kind": "taylor_green"}, "scale": 0},
         "laplace: functional.scale must be > 0, got 0"),
        ("laplace", "params", "functional",
         {"kind": "clipped_endpoint", "target": {"kind": "taylor_green"}, "scale": -1},
         "laplace: functional.scale must be > 0, got -1"),
        # the variational side is one fixed-weight descent: no candidates
        ("laplace", "params", "candidates", 5, "params(laplace): unknown keys ['candidates']"),
        ("laplace", "params", "functional", {"kind": "clipped_endpoint"},
         "laplace: functional: kind 'clipped_endpoint' needs target"),
        # descriptors: an unknown kind, or a mode without its mode (TypeError)
        ("converge_h", "params", "initial", {"kind": "spiral"},
         "converge_h: initial.kind must be one of"),
        ("converge_h", "params", "control", {"kind": "spiral"},
         "converge_h: control.kind must be one of"),
        ("instanton", "params", "target", {"kind": "spiral"},
         "instanton: target.kind must be one of"),
        ("converge_h", "params", "initial", {"kind": "mode"},
         "converge_h: initial: kind 'mode' needs k"),
        # run failed with "grid_factor must be >= 2"
        ("converge_besov", "numerics", "grid_factor", 1,
         "converge_besov: numerics.grid_factor must be an integer >= 2, got 1"),
        # run marched 7 steps, to T = 0.21 instead of 0.2
        ("converge_h", "numerics", "dt", 0.03,
         "converge_h: numerics.t_final must be a whole number of steps of dt=0.03, got 0.2"),
        # run failed with "band limit 0 invalid for cutoff 1", or for renorm
        # with "cutoff must be >= 1, got 0"
        *(
            (kind, "numerics", "cutoff", 1,
             f"{kind}: numerics.cutoff: dealias 'two_thirds' keeps no mode at cutoff 1")
            for kind in ("converge_h", "converge_besov", "instanton", "laplace", "tube",
                         "wick_decay", "renorm")
        ),
    ],
)
def test_validate_exits_2_on_a_sweep_or_descent_config_that_run_fails_on(
    tmp_path, capsys, kind, section, key, value, match
):
    raw = json.loads(json.dumps(SMOKE_CONFIGS[kind]))
    raw[section][key] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["validate", "-c", str(cfg_path)]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["ou_checks", "lp_moment", "besov_moment"])
def test_a_kind_without_the_dealiased_band_runs_at_cutoff_1(tmp_path, kind):
    raw = {
        "ou_checks": minimal_ou_config(),
        "lp_moment": lp_moment_config(),
        "besov_moment": json.loads(json.dumps(SMOKE_CONFIGS["besov_moment"])),
    }[kind]
    raw["numerics"]["cutoff"] = 1
    assert run(ExperimentConfig.from_dict(raw), str(tmp_path)).passed


def test_a_non_finite_results_cell_is_never_written(tmp_path, monkeypatch):
    def nan_row(ctx):
        return [{"epsilon": 0.1, "mean": 1.0}, {"epsilon": 0.01, "mean": float("nan")}], {
            "passed": True
        }

    kind = experiments.KINDS["converge_h"]
    monkeypatch.setitem(experiments.KINDS, "converge_h", dataclasses.replace(kind, run=nan_row))
    cfg = ExperimentConfig.from_dict(SMOKE_CONFIGS["converge_h"])
    with pytest.raises(ValueError, match="refusing to write non-finite mean = nan"):
        run(cfg, str(tmp_path))
    # formatted before anything is written: not even the run directory
    assert list(tmp_path.iterdir()) == []


def test_threshold_defaults_stay_out_of_the_config():
    raw = minimal_ou_config()
    raw["thresholds"] = {"min_ks_pvalue": 0.005}
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.thresholds == {"min_ks_pvalue": 0.005}
    assert cfg.threshold_values() == {"max_variance_rel_err": 0.05, "min_ks_pvalue": 0.005}
    raw["thresholds"] = {"slope_sigmas": 2.0}  # another kind's threshold
    with pytest.raises(ValueError, match=r"thresholds\(ou_checks\): unknown keys"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("t_final", [-1.0, 0.0, 0.02, 0.029])
def test_config_rejects_a_horizon_below_two_steps(t_final):
    raw = json.loads(json.dumps(SMOKE_CONFIGS["tube"]))
    raw["numerics"]["t_final"] = t_final
    with pytest.raises(ValueError, match="numerics.t_final must be > 0"):
        ExperimentConfig.from_dict(raw)
    raw["numerics"]["t_final"] = 0.04
    assert ExperimentConfig.from_dict(raw).numerics["t_final"] == 0.04


def test_blowup_names_the_replica_stream(tmp_path):
    from sns2d.dynamics import IntegrationBlowupError

    raw = json.loads(json.dumps(SMOKE_CONFIGS["tube"]))
    raw["noise"]["epsilon"] = 1e14
    with pytest.raises(IntegrationBlowupError, match=r"blew up .* in seed=12 stream=\(1, 0\)"):
        run(ExperimentConfig.from_dict(raw), str(tmp_path))


def test_nan_moment_ratio_fails_lp_moment_and_is_never_written(tmp_path, monkeypatch):
    exact = experiments.lp_log_moment_check

    def poisoned(spec, *args, **kwargs):
        rep = exact(spec, *args, **kwargs)
        if spec.delta == 0.01:
            rep.ratio = float("nan")
        return rep

    monkeypatch.setattr(experiments, "lp_log_moment_check", poisoned)
    cfg = ExperimentConfig.from_dict(lp_moment_config())
    _, summary = experiments._run_lp_moment(experiments._RunContext(cfg))
    assert np.isnan(summary["ratio_spread"])
    assert summary["passed"] is False
    with pytest.raises(ValueError):
        run(cfg, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_cli_run_failure_names_the_stream_and_leaves_no_directory(tmp_path):
    raw = json.loads(json.dumps(SMOKE_CONFIGS["tube"]))
    raw["noise"]["epsilon"] = 1e14
    cfg_path = tmp_path / "blowup.json"
    cfg_path.write_text(json.dumps(raw))
    runs = tmp_path / "runs"
    out = _cli("run", "-c", str(cfg_path), "-o", str(runs))
    assert out.returncode == 1
    assert out.stderr.startswith("run failed: ")
    assert "seed=12 stream=(1, 0)" in out.stderr
    assert "Traceback" not in out.stderr
    assert not runs.exists()


def test_run_refuses_an_outdir_under_a_file_before_running(tmp_path, monkeypatch):
    def never(ctx):
        pytest.fail("the runner ran")

    kind = experiments.KINDS["renorm"]
    monkeypatch.setitem(experiments.KINDS, "renorm", dataclasses.replace(kind, run=never))
    cfg = ExperimentConfig.from_dict(SMOKE_CONFIGS["renorm"])
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    for outdir in (blocker, blocker / "runs"):
        with pytest.raises(OSError, match="is not a writable directory"):
            run(cfg, str(outdir))
    assert blocker.read_text() == "keep"


def test_cli_run_with_a_file_as_outdir_fails_without_traceback(tmp_path):
    cfg_path = tmp_path / "renorm.json"
    cfg_path.write_text(json.dumps(SMOKE_CONFIGS["renorm"]))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = _cli("run", "-c", str(cfg_path), "-o", str(blocker))
    assert out.returncode == 1
    assert out.stderr.startswith("run failed: ")
    assert "Traceback" not in out.stderr
    assert blocker.read_text() == "keep"


def test_run_context_names_the_reserved_streams():
    ctx = experiments._RunContext(ExperimentConfig.from_dict(SMOKE_CONFIGS["tube"]))
    assert ctx.root == experiments.RngStream(12)
    assert ctx.member(3).stream_id == (3,)
    ids = {name: ctx.stream(name).stream_id for name in ctx.RESERVED}
    assert ids == {
        "sweep": (1,), "wick": (100,), "crosscheck": (101,), "initial": (900,),
        "control": (901,), "target": (902,), "gradient": (903,),
    }
    assert ctx.n_steps == 10 and ctx.th == {}
    ctx.dump("never", lambda: pytest.fail("dumps are off"))
    assert ctx.dumps == {}


def _stream_guard_offences(experiments_src, ldp_src):
    """Where a run reaches for a stream or a run directory outside the run
    context, or the ldp layer coerces a seed into a stream."""
    offences = []
    for top in ast.parse(experiments_src).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "RngStream"
                and owner != "_RunContext"
            ):
                offences.append(f"experiments:{owner} RngStream(")
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_run_"):
            params = [a.arg for a in top.args.args + top.args.kwonlyargs]
            if "run_dir" in params:
                offences.append(f"experiments:{top.name} run_dir")
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Constant)
                    and node.slice.value == "seed"
                ):
                    offences.append(f"experiments:{top.name} seed")
    for node in ast.walk(ast.parse(ldp_src)):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and "RngStream" in ast.unparse(node.args[1])
        ):
            offences.append("ldp isinstance RngStream")
    return offences


def test_streams_come_only_from_the_run_context():
    src = pathlib.Path(experiments.__file__).parent
    offences = _stream_guard_offences(
        (src / "experiments.py").read_text(),
        (src / "ldp.py").read_text() + (src / "montecarlo.py").read_text(),
    )
    assert offences == []


def test_stream_guard_sees_each_old_form():
    old_runner = (
        "def _run_tube(cfg, run_dir=None):\n"
        "    stream = RngStream(cfg.statistics['seed'])\n"
    )
    assert _stream_guard_offences(old_runner, "") == [
        "experiments:_run_tube RngStream(", "experiments:_run_tube run_dir",
        "experiments:_run_tube seed",
    ]
    helper = "def _common(cfg):\n    return noise.RngStream(0)\n"
    assert _stream_guard_offences(helper, "") == ["experiments:_common RngStream("]
    coercion = "def f(rng):\n    return rng if isinstance(rng, RngStream) else None\n"
    assert _stream_guard_offences("", coercion) == ["ldp isinstance RngStream"]


_FAR_MODE = {"kind": "mode", "k": [9, 0], "value": [0.5, 0.0]}


def test_validate_refuses_a_control_mode_outside_the_cutoff(tmp_path):
    # run failed with KeyError: 'mode (9, 0) outside cutoff 6', and the CLI
    # ended in a traceback
    raw = json.loads(json.dumps(SMOKE_CONFIGS["converge_h"]))
    raw["params"]["control"] = _FAR_MODE
    message = "converge_h: params.control.k (9, 0) outside numerics.cutoff 6"
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(raw)
    assert str(err.value) == message
    cfg_path = tmp_path / "far.json"
    cfg_path.write_text(json.dumps(raw))
    runs = tmp_path / "runs"
    for out in (_cli("validate", "-c", str(cfg_path)),
                _cli("run", "-c", str(cfg_path), "-o", str(runs))):
        assert out.returncode == 2
        assert message in out.stderr and "Traceback" not in out.stderr
    assert not runs.exists()


@pytest.mark.parametrize(
    "kind, path",
    [
        ("converge_h", ("initial",)),
        ("converge_besov", ("control",)),
        ("instanton", ("initial",)),
        ("instanton", ("target",)),
        ("tube", ("initial",)),
        ("laplace", ("functional", "target")),
    ],
)
def test_every_mode_descriptor_is_checked_against_the_cutoff(kind, path):
    raw = json.loads(json.dumps(SMOKE_CONFIGS[kind]))
    if path[0] == "functional":
        raw["params"]["functional"] = {"kind": "clipped_endpoint"}
    node = raw["params"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = {**_FAR_MODE, "k": [0, -7]}
    where = ".".join(("params",) + path)
    with pytest.raises(ValueError, match=rf"{kind}: {where}\.k \(0, -7\) outside numerics\.cutoff 6"):
        ExperimentConfig.from_dict(raw)
    node[path[-1]]["k"] = [0, -6]  # on the edge of the square truncation
    ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("kind", ["besov_moment", "laplace", "wick_decay"])
def test_validate_checks_the_regime_of_params_epsilons(kind):
    raw = json.loads(json.dumps(SMOKE_CONFIGS[kind]))
    ExperimentConfig.from_dict(raw)
    raw["noise"]["schedule"] = {"kind": "power", "exponent": -1.0}
    with pytest.raises(ValueError, match=rf"^{kind}: schedule must satisfy delta\(eps\) -> 0"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "kind, path",
    [("tube", ("initial",)), ("instanton", ("target",)), ("laplace", ("functional", "target"))],
)
def test_validate_reads_the_cutoff_of_a_field_file(tmp_path, kind, path):
    # run failed late with "control and initial condition cutoffs differ"
    raw = json.loads(json.dumps(SMOKE_CONFIGS[kind]))
    if path[0] == "functional":
        raw["params"]["functional"] = {"kind": "clipped_endpoint"}
    node = raw["params"]
    for key in path[:-1]:
        node = node[key]
    where = ".".join(("params",) + path)
    field = tmp_path / "field.csv"
    node[path[-1]] = {"kind": "file", "path": str(field)}
    with pytest.raises(ValueError, match=rf"^{kind}: {where}\.path: .*No such file"):
        ExperimentConfig.from_dict(raw)
    save_field(taylor_green(8, 0.4), field)
    message = f"{kind}: {where}.path holds a field of cutoff 8, not numerics.cutoff 6"
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(raw)
    assert str(err.value) == message
    save_field(taylor_green(6, 0.4), field)
    ExperimentConfig.from_dict(raw)


def test_cli_validate_exits_2_on_a_field_file_of_another_cutoff(tmp_path):
    raw = json.loads(json.dumps(SMOKE_CONFIGS["tube"]))
    field = tmp_path / "field.csv"
    save_field(taylor_green(8, 0.4), field)
    raw["params"]["initial"] = {"kind": "file", "path": str(field)}
    cfg_path = tmp_path / "file.json"
    cfg_path.write_text(json.dumps(raw))
    runs = tmp_path / "runs"
    for out in (_cli("validate", "-c", str(cfg_path)),
                _cli("run", "-c", str(cfg_path), "-o", str(runs))):
        assert out.returncode == 2
        assert "params.initial.path" in out.stderr and "Traceback" not in out.stderr
    assert not runs.exists()


@pytest.mark.parametrize("row", ["1,0,nan,0.0", "7,1,0.5,0.0", "-1,0,0.5,0.0", "1,0,5.0,0.0"])
def test_cli_validate_exits_2_on_a_field_file_that_run_cannot_load(tmp_path, capsys, row):
    # run failed late: a NaN as "solution blew up ... reduce dt", a row off
    # the stored modes with an uncaught KeyError; a repeated mode loaded its
    # last row
    raw = json.loads(json.dumps(SMOKE_CONFIGS["tube"]))
    field = tmp_path / "field.csv"
    save_field(taylor_green(raw["numerics"]["cutoff"], 0.4), field)
    field.write_text(field.read_text() + row + "\n")
    raw["params"]["initial"] = {"kind": "file", "path": str(field)}
    cfg_path = tmp_path / "file.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["validate", "-c", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid config: "), err
    assert "params.initial.path" in err[0] and f"row {row} " in err[0], err


# --------------------------------------------------------------------------
# members run side by side


def _on_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _pool_configs():
    ou = minimal_ou_config()
    ou["params"]["alphas"] = [0.0, 1.0, 2.5]
    ou["statistics"]["replicas"] = 2500  # a short last batch of 500
    lp3 = lp_moment_config()
    lp3["params"] = {"p": 3.0, "deltas": [0.1, 0.01, 0.001]}
    lp3["statistics"]["replicas"] = 300
    return {"ou_checks": ou, "lp_moment_p2": lp_moment_config(), "lp_moment_p3": lp3}


@pytest.mark.parametrize("name", sorted(_pool_configs()))
def test_members_on_one_core_and_on_two_write_the_same_bytes(tmp_path, monkeypatch, name):
    cfg = ExperimentConfig.from_dict(_pool_configs()[name])
    outputs = []
    for cores in (1, 2):
        _on_cores(monkeypatch, cores)
        threads = threading.active_count()
        record = run(cfg, str(tmp_path / str(cores)))
        assert threading.active_count() == threads
        files = (record.results_csv, record.summary_json)
        outputs.append([pathlib.Path(f).read_bytes() for f in files])
    assert outputs[0] == outputs[1]


MARCHING_KINDS = ["besov_moment", "converge_besov", "converge_h", "laplace", "tube"]


@pytest.mark.parametrize("kind", MARCHING_KINDS)
def test_marches_on_one_core_and_on_two_write_the_same_bytes(
    tmp_path, monkeypatch, draw_ahead_helpers, kind
):
    # on two cores each noisy march draws its step noise on a helper thread
    cfg = ExperimentConfig.from_dict(SMOKE_CONFIGS[kind])
    outputs = []
    for cores in (1, 2):
        _on_cores(monkeypatch, cores)
        threads, helpers = threading.active_count(), len(draw_ahead_helpers)
        record = run(cfg, str(tmp_path / str(cores)))
        assert threading.active_count() == threads
        assert (len(draw_ahead_helpers) > helpers) == (cores == 2)
        files = (record.results_csv, record.summary_json)
        outputs.append([pathlib.Path(f).read_bytes() for f in files])
    assert outputs[0] == outputs[1]


def test_pooled_lp_powers_are_the_serial_ones(monkeypatch):
    # the members share one transform plan; its scratch grids are per thread.
    # With grids shared by all threads this failed in 6 runs out of 6
    g = grid_for(16)
    spec = experiments.NoiseSpec(0.5, 0.01)
    blocks = [
        experiments.stationary_batch(g, spec, 0.0, experiments.RngStream(4, (i,)).generator(), 48)
        for i in range(4)
    ]
    samples = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cores in (1, 4):  # four threads, likely more than the cores
            _on_cores(monkeypatch, cores)
            samples.append(experiments._RunContext.map_members(
                lambda i, Z: np.concatenate([lp_powers(g, Z, 3.0) for _ in range(40)]), blocks
            ))
    finally:
        sys.setswitchinterval(interval)
    for serial, pooled in zip(*samples):
        assert np.array_equal(serial, pooled)


def test_an_ou_checks_member_holds_one_batch_and_a_few_buffers(monkeypatch):
    # one member: 4000 replicas at cutoff 16 are two batches of 2000
    _on_cores(monkeypatch, 1)
    raw = minimal_ou_config()
    raw["numerics"]["cutoff"] = 16
    raw["statistics"]["replicas"] = 4000
    cfg = ExperimentConfig.from_dict(raw)
    experiments._run_ou_checks(experiments._RunContext(cfg))  # plans and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        experiments._run_ou_checks(experiments._RunContext(cfg))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    batch = 16 * 2000 * grid_for(16).n_modes
    # the batch's |Z|^2 in row blocks, the draw's piece and the step's share
    # of decay * Z are buffers of SAMPLES_PER_CALL reals; the samples, rows
    # and the KS test take less.  |Z|^2 of the whole batch, or the real half
    # of a step, would add batch / 2
    assert peak <= batch + 8 * (8 * SAMPLES_PER_CALL)


def _renorm_wick_config(replicas):
    raw = json.loads(json.dumps(SMOKE_CONFIGS["renorm"]))
    raw["numerics"]["cutoff"] = 16
    raw["params"]["wick_replicas"] = replicas
    raw["params"]["crosscheck_replicas"] = 1
    return raw


@pytest.mark.parametrize("replicas", [2, 2007, 4000])
def test_renorm_wick_sums_in_row_blocks_are_the_whole_batch_sums(replicas):
    g = grid_for(16)
    spec = experiments.NoiseSpec(0.5, 0.1)
    keep = (np.abs(g.k1) <= 10) & (np.abs(g.k2) <= 10)
    weights = ((g.k2**2 / g.ksq)[keep], (g.k1**2 / g.ksq)[keep])
    gens = [experiments.RngStream(3, (100,)).generator() for _ in range(2)]
    blocked = wick_diagonal(g, spec, gens[0], replicas, keep, weights, 0.0)
    whole = wick_diagonal_whole(g, spec, gens[1], replicas, keep, weights, 0.0)
    # the same draws, in the same order; a product over a block's rows
    # rounds a few of them in the last bits (at most 2e-15 relative, measured)
    np.testing.assert_allclose(blocked, whole, rtol=1e-13, atol=0.0)
    assert gens[0].standard_normal() == gens[1].standard_normal()


def test_a_renorm_wick_loop_holds_a_few_buffers():
    # 4000 Wick replicas at cutoff 16 are two batches of 2000
    cfg = ExperimentConfig.from_dict(_renorm_wick_config(4000))
    experiments._run_renorm(experiments._RunContext(cfg))  # plans and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        experiments._run_renorm(experiments._RunContext(cfg))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the draw's piece of SAMPLES_PER_CALL reals, the zero-padded weights
    # and the sums, 16 bytes per replica; the theta sums and the crosscheck
    # take less.  A batch's real half alone is 8.7 MB (row blocks formed
    # from it peaked at 9.5 MB), the whole batch 17.4 MB
    assert peak <= 4 * (8 * SAMPLES_PER_CALL) + 16 * 4000


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="reads VmRSS from /proc; the heap is handed back by glibc's malloc_trim",
)
def test_a_renorm_run_hands_its_heap_back(tmp_path):
    # an ou_checks run first, as the noise_draws benchmark runs them: freeing
    # its 17.4 MB batch raises glibc's mmap threshold, so the temporaries of
    # renorm's constants at the shipped cutoffs, computed for the first time
    # in the measured run, come from the heap.  Without the trim they stayed
    # resident: VmRSS read 6.1-6.3 MiB higher after the renorm run than before
    ou = minimal_ou_config()
    ou["numerics"]["cutoff"] = 16
    ou["statistics"]["replicas"] = 2000
    ou["params"]["alphas"] = [0.0]
    renorm = _renorm_wick_config(2000)
    renorm["params"]["cutoffs"] = [128, 256]
    configs = json.dumps([ou, _renorm_wick_config(2), renorm])
    src = pathlib.Path(experiments.__file__).parents[1]
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from sns2d.experiments import ExperimentConfig, run\n"
        "def vmrss():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmRSS:')) / 1024\n"
        f"ou, small, renorm = json.loads({configs!r})\n"
        f"run(ExperimentConfig.from_dict(small), {str(tmp_path)!r})  # imports, plans, caches\n"
        f"run(ExperimentConfig.from_dict(ou), {str(tmp_path)!r})\n"
        "before = vmrss()\n"
        f"run(ExperimentConfig.from_dict(renorm), {str(tmp_path)!r})\n"
        "print(vmrss() - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= 3.0  # MiB


def test_an_ou_checks_run_does_not_import_scipy_stats(tmp_path):
    # importing scipy.stats, for its ks_2samp, costs about 45 MiB of
    # resident memory
    src = pathlib.Path(experiments.__file__).parents[1]
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from sns2d.experiments import ExperimentConfig, run\n"
        f"cfg = ExperimentConfig.from_dict(json.loads({json.dumps(minimal_ou_config())!r}))\n"
        f"assert run(cfg, {str(tmp_path)!r}).passed\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_the_lowest_indexed_failing_member_is_raised(monkeypatch):
    def member(i, delay):
        time.sleep(delay)
        if i > 0:
            raise ValueError(f"member {i}")
        return i

    for cores in (1, 2, 3):
        _on_cores(monkeypatch, cores)
        threads = threading.active_count()
        # member 1 fails after member 2 has failed
        with pytest.raises(ValueError, match="^member 1$"):
            experiments._RunContext.map_members(member, [0.0, 0.05, 0.0])
        assert threading.active_count() == threads
        assert experiments._RunContext.map_members(lambda i, v: v * i, [1, 2, 3]) == [0, 2, 6]
