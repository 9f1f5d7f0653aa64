"""Experiment orchestration: validated configs, deterministic runs, reports.

Configs are strict JSON documents (schema_version 1; unknown keys, non-finite
numbers and non-integer counts rejected).
A run writes results.csv / summary.json / config.json atomically into a
directory named by the config hash; (config, seed) determines every numeric
output byte.
"""

import dataclasses
import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import (
    ControlPath,
    IntegratorConfig,
    save_trajectory,
    solve_controlled,
    solve_skeleton,
    step_count,
)
from .fields import SpectralField, load_field, taylor_green
from .grid import grid_for
from .ldp import (
    ClippedEndpointDistance,
    ConstantFunctional,
    OptimizerSettings,
    besov_convergence_experiment,
    fit_loglog,
    h_convergence_experiment,
    laplace_check,
    minimize_action,
    tube_probability,
)
from .noise import (
    NoiseSpec,
    RngStream,
    besov_moment_check,
    lp_log_moment_check,
    mode_variances,
    ou_step_batch,
    renorm_constant,
    schedule_from_dict,
    stationary_batch,
    wick_square,
)
from .spectral import BesovParams, tensor_sobolev_norm

SCHEMA_VERSION = 1
_REQUIRED = object()

# Entries that must be real integers (bool excluded).
_INTEGER_KEYS = (
    ("statistics", "replicas"),
    ("statistics", "seed"),
    ("numerics", "cutoff"),
    ("numerics", "grid_factor"),
)


def _take(d, allowed, context):
    """Strict dict extraction: unknown keys rejected, defaults applied."""
    if d is None:
        d = {}
    if not isinstance(d, dict):
        raise ValueError(f"{context}: expected a mapping, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")
    out = {}
    for key, default in allowed.items():
        if key in d:
            out[key] = d[key]
        elif default is _REQUIRED:
            raise ValueError(f"{context}: missing required key {key!r}")
        else:
            out[key] = default
    return out


def _reject_non_finite(node, context):
    if isinstance(node, float) and not math.isfinite(node):
        raise ValueError(f"{context}: non-finite number {node!r}")
    if isinstance(node, dict):
        for key, val in node.items():
            _reject_non_finite(val, f"{context}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, val in enumerate(node):
            _reject_non_finite(val, f"{context}[{i}]")


@dataclass
class ExperimentConfig:
    kind: str
    numerics: dict
    noise: dict
    statistics: dict
    io: dict
    params: dict
    thresholds: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _reject_non_finite(raw, "config")
        top = _take(
            raw,
            {
                "schema_version": _REQUIRED,
                "kind": _REQUIRED,
                "numerics": {},
                "noise": {},
                "statistics": {},
                "io": {},
                "params": {},
                "thresholds": {},
            },
            "config",
        )
        if top["schema_version"] != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {top['schema_version']}; "
                f"this toolkit reads version {SCHEMA_VERSION}"
            )
        kind = top["kind"]
        if kind not in KINDS:
            raise ValueError(f"unknown experiment kind {kind!r}; choose from {tuple(KINDS)}")
        numerics = _take(
            top["numerics"],
            {
                "cutoff": 16,
                "dt": 0.01,
                "t_final": 0.5,
                "grid_factor": 2,
                "dealias": "two_thirds",
                "scheme": "exponential_euler",
            },
            "numerics",
        )
        noise = _take(
            top["noise"],
            {
                "gamma": 1.0,
                "eta": None,
                "epsilon": None,
                "delta": None,
                "epsilons": None,
                "schedule": None,
            },
            "noise",
        )
        statistics = _take(
            top["statistics"], {"replicas": 100, "seed": 0}, "statistics"
        )
        io_cfg = _take(top["io"], {"dump_trajectories": False}, "io")
        cfg = cls(
            kind=kind,
            numerics=numerics,
            noise=noise,
            statistics=statistics,
            io=io_cfg,
            params=top["params"],
            thresholds=top["thresholds"],
        )
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "numerics": self.numerics,
            "noise": self.noise,
            "statistics": self.statistics,
            "io": self.io,
            "params": self.params,
            "thresholds": self.thresholds,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(
            dt=self.numerics["dt"],
            scheme=self.numerics["scheme"],
            dealias=self.numerics["dealias"],
            grid_factor=self.numerics["grid_factor"],
        )

    def schedule(self):
        if self.noise["schedule"] is None:
            raise ValueError(f"{self.kind}: noise.schedule is required")
        return schedule_from_dict(self.noise["schedule"])

    def spec(self) -> NoiseSpec:
        if self.noise["epsilon"] is None or self.noise["delta"] is None:
            raise ValueError(f"{self.kind}: noise.epsilon and noise.delta are required")
        return NoiseSpec(
            epsilon=self.noise["epsilon"],
            delta=self.noise["delta"],
            gamma=self.noise["gamma"],
            eta=self.noise["eta"],
        )

    def threshold_values(self) -> dict:
        """The kind's thresholds with defaults filled in; unknown names
        rejected.  cfg.thresholds itself keeps only what the config set, so
        the config hash does not depend on the defaults."""
        return _take(self.thresholds, KINDS[self.kind].thresholds, f"thresholds({self.kind})")

    def validate(self):
        for section, key in _INTEGER_KEYS:
            value = getattr(self, section)[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{section}.{key} must be an integer, got {value!r}")
        self.integrator()  # raises on bad numerics
        if self.numerics["cutoff"] < 1:
            raise ValueError("numerics.cutoff must be >= 1")
        t_final, dt = self.numerics["t_final"], self.numerics["dt"]
        if not t_final > 0 or round(t_final / dt) < 2:
            raise ValueError(
                f"numerics.t_final must be > 0 and span at least 2 steps of "
                f"dt={dt}, got {t_final}"
            )
        if self.statistics["replicas"] < 1:
            raise ValueError("statistics.replicas must be >= 1")
        self.params = KINDS[self.kind].params(self)
        self.threshold_values()
        return self


# --------------------------------------------------------------------------
# per-kind parameter schemas


def _require_count(kind, key, value, least):
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{kind}: {key} must be an integer >= {least}, got {value!r}")


def _require_positive_list(kind, key, values):
    """A non-empty list of numbers > 0, such as a sweep of correlation scales."""
    if not isinstance(values, list) or not values or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in values
    ):
        raise ValueError(f"{kind}: {key} must be a non-empty list of numbers > 0, got {values!r}")


def _require_sweep(kind, cfg):
    """A convergence sweep fits a log-log slope and its standard error: at
    least 3 distinct noise.epsilons > 0, and 2 replicas for each member's
    standard error."""
    eps = cfg.noise["epsilons"]
    if not eps:
        raise ValueError(f"{kind}: noise.epsilons sweep is required")
    _require_positive_list(kind, "noise.epsilons", eps)
    if len(set(eps)) < 3:
        raise ValueError(
            f"{kind}: noise.epsilons must hold at least 3 distinct values to fit a slope, "
            f"got {eps!r}"
        )
    _require_count(kind, "statistics.replicas", cfg.statistics["replicas"], 2)


def _params_ou(cfg):
    p = _take(cfg.params, {"alphas": [0.0, 1.0]}, "params(ou_checks)")
    cfg.spec()
    if not isinstance(p["alphas"], list) or not p["alphas"]:
        raise ValueError(f"ou_checks: alphas must be a non-empty list, got {p['alphas']!r}")
    if any(a < 0 for a in p["alphas"]):
        raise ValueError("ou_checks: damping constants must satisfy alpha >= 0")
    # the KS test compares two samples of statistics.replicas energies
    _require_count("ou_checks", "statistics.replicas", cfg.statistics["replicas"], 2)
    return p


def _params_renorm(cfg):
    p = _take(
        cfg.params,
        {
            "deltas": [0.1, 0.01],
            "cutoffs": [128, 256],
            "tail_tol": 1e-8,
            "wick_replicas": 10000,
            "crosscheck_replicas": 20,
        },
        "params(renorm)",
    )
    spec = cfg.spec()
    if not spec.delta > 0:
        raise ValueError(f"renorm: noise.delta must be > 0, got {spec.delta!r}")
    _require_positive_list("renorm", "deltas", p["deltas"])
    if not isinstance(p["cutoffs"], list) or not p["cutoffs"]:
        raise ValueError(f"renorm: cutoffs must be a non-empty list, got {p['cutoffs']!r}")
    for cut in p["cutoffs"]:
        _require_count("renorm", "each cutoff", cut, 1)
    # the Monte Carlo standard error needs two replicas
    _require_count("renorm", "wick_replicas", p["wick_replicas"], 2)
    _require_count("renorm", "crosscheck_replicas", p["crosscheck_replicas"], 0)
    return p


def _params_lp_moment(cfg):
    p = _take(
        cfg.params, {"p": 2.0, "deltas": [1e-1, 1e-2, 1e-3, 1e-4]}, "params(lp_moment)"
    )
    if cfg.noise["epsilon"] is None:
        raise ValueError("lp_moment: noise.epsilon is required")
    _require_positive_list("lp_moment", "deltas", p["deltas"])
    if isinstance(p["p"], bool) or not isinstance(p["p"], (int, float)) or not p["p"] >= 1:
        raise ValueError(f"lp_moment: p must be a number >= 1, got {p['p']!r}")
    # the standard error of the moment needs two replicas
    _require_count("lp_moment", "statistics.replicas", cfg.statistics["replicas"], 2)
    return p


def _params_besov_moment(cfg):
    p = _take(
        cfg.params,
        {
            "sigma": -0.75,
            "sigma_prime": -0.5,
            "p": 4.0,
            "kappa": 2.0,
            "epsilons": [1e-1, 1e-2, 1e-3],
        },
        "params(besov_moment)",
    )
    if not (p["sigma"] < p["sigma_prime"] < 0):
        raise ValueError(
            "besov_moment: need sigma < sigma_prime < 0, got "
            f"sigma={p['sigma']}, sigma_prime={p['sigma_prime']}"
        )
    cfg.schedule()
    return p


def _params_converge_h(cfg):
    p = _take(
        cfg.params,
        {
            "initial": {"kind": "taylor_green", "amplitude": 0.5},
            "control": {"kind": "mode", "k": [1, 0], "value": [0.5, 0.0]},
            "force": False,
        },
        "params(converge_h)",
    )
    cfg.schedule()
    if cfg.noise["eta"] is None:
        raise ValueError(
            "converge_h: noise.eta is required (scaling condition "
            "eps * delta(eps)^(-eta) -> 0)"
        )
    _require_sweep("converge_h", cfg)
    return p


def _params_converge_besov(cfg):
    p = _take(
        cfg.params,
        {
            "initial": {"kind": "taylor_green", "amplitude": 0.5},
            "control": {"kind": "mode", "k": [1, 0], "value": [0.5, 0.0]},
            "sigma": -0.25,
            "p": 4.0,
            "alpha": 0.3,
            "beta": 3.0,
        },
        "params(converge_besov)",
    )
    # raises with the violated inequality named
    BesovParams(sigma=p["sigma"], p=p["p"], alpha=p["alpha"], beta=p["beta"]).validate()
    cfg.schedule()
    _require_sweep("converge_besov", cfg)
    return p


def _params_wick_decay(cfg):
    p = _take(
        cfg.params,
        {"sigma": -0.5, "epsilons": [1e-1, 1e-2, 1e-3]},
        "params(wick_decay)",
    )
    if p["sigma"] >= 0:
        raise ValueError("wick_decay: sigma must be negative")
    cfg.schedule()
    return p


def _params_instanton(cfg):
    p = _take(
        cfg.params,
        {
            "initial": {"kind": "taylor_green", "amplitude": 0.5},
            "target": {"kind": "free_decay"},
            "endpoint_tolerance": 1e-3,
            "max_iterations": 500,
            "gradient_check_directions": 0,
        },
        "params(instanton)",
    )
    for key, least in (("max_iterations", 1), ("gradient_check_directions", 0)):
        _require_count("instanton", key, p[key], least)
    if cfg.numerics["scheme"] != "exponential_euler":
        raise ValueError(
            "instanton: the adjoint gradient is implemented for numerics.scheme "
            f"'exponential_euler', got {cfg.numerics['scheme']!r}"
        )
    tol = p["endpoint_tolerance"]
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise ValueError(f"instanton: endpoint_tolerance must be finite and > 0, got {tol!r}")
    return p


def _params_laplace(cfg):
    p = _take(
        cfg.params,
        {
            "functional": {"kind": "constant", "value": 0.0},
            "epsilons": [1e-1, 1e-2],
            "candidates": 5,
        },
        "params(laplace)",
    )
    f = _take(
        p["functional"],
        {"kind": _REQUIRED, "value": 0.0, "scale": 1.0, "clip": 10.0, "target": None},
        "params(laplace).functional",
    )
    if f["kind"] not in ("constant", "clipped_endpoint"):
        raise ValueError(f"laplace: unknown functional kind {f['kind']!r}")
    p["functional"] = f
    cfg.schedule()
    return p


def _params_tube(cfg):
    p = _take(
        cfg.params,
        {
            "initial": {"kind": "taylor_green", "amplitude": 0.5},
            "radii": [0.1, 0.2, 0.5],
        },
        "params(tube)",
    )
    cfg.spec()
    if cfg.statistics["replicas"] < 2:
        raise ValueError("tube: need at least 2 replicas")
    return p


# --------------------------------------------------------------------------
# field / control builders


def build_initial(cutoff: int, descr: dict, stream: RngStream) -> SpectralField:
    d = _take(
        descr,
        {
            "kind": _REQUIRED,
            "amplitude": 1.0,
            "decay": 1.0,
            "k": None,
            "value": None,
            "path": None,
        },
        "initial",
    )
    kind = d["kind"]
    if kind == "zero":
        return SpectralField.zero(cutoff)
    if kind == "taylor_green":
        return taylor_green(cutoff, d["amplitude"])
    if kind == "random":
        return SpectralField.random(
            cutoff, stream.generator(), amplitude=d["amplitude"], decay=d["decay"]
        )
    if kind == "mode":
        re, im = d["value"]
        return SpectralField.from_modes(cutoff, {tuple(d["k"]): re + 1j * im})
    if kind == "file":
        return load_field(d["path"])
    raise ValueError(f"unknown initial-condition kind {kind!r}")


def build_control(cutoff, dt, n_steps, descr, stream: RngStream) -> ControlPath:
    d = _take(
        descr,
        {
            "kind": _REQUIRED,
            "k": None,
            "value": None,
            "gamma": 1.0,
            "decay": 1.0,
            "amplitude": 1.0,
        },
        "control",
    )
    kind = d["kind"]
    if kind == "zero":
        return ControlPath.zero(cutoff, dt, n_steps)
    if kind == "mode":
        re, im = d["value"]
        f = SpectralField.from_modes(cutoff, {tuple(d["k"]): re + 1j * im})
        return ControlPath.constant(f, dt, n_steps)
    if kind == "taylor_green":
        return ControlPath.constant(taylor_green(cutoff, d["amplitude"]), dt, n_steps)
    if kind == "random_ball":
        return ControlPath.random_in_ball(
            cutoff, dt, n_steps, d["gamma"], stream.generator(), decay=d["decay"]
        )
    raise ValueError(f"unknown control kind {kind!r}")


# --------------------------------------------------------------------------
# run context and runners


class _RunContext:
    """What every runner shares, built once by ``run`` from a validated config.

    It owns the root stream ``RngStream(seed)`` and names its reserved
    children, the integrator and the step count of the horizon, the
    thresholds with their defaults, and the trajectories to dump.  Kinds that
    sweep members without a reserved child use ``member(i)``, child i of the
    root.
    """

    RESERVED = {
        "sweep": 1, "wick": 100, "crosscheck": 101,
        "initial": 900, "control": 901, "target": 902, "gradient": 903,
    }

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.th = cfg.threshold_values()
        self.root = RngStream(cfg.statistics["seed"])
        self.integ = cfg.integrator()
        self.n_steps = step_count(cfg.numerics["t_final"], self.integ.dt)
        self.cutoff = cfg.numerics["cutoff"]
        self.dumps = {}

    def member(self, i) -> RngStream:
        return self.root.child(i)

    def stream(self, name) -> RngStream:
        return self.root.child(self.RESERVED[name])

    def initial(self) -> SpectralField:
        return build_initial(self.cutoff, self.cfg.params["initial"], self.stream("initial"))

    def target(self, descr) -> SpectralField:
        return build_initial(self.cutoff, descr, self.stream("target"))

    def free_decay(self, u0):
        """The skeleton path of u0 without control over the horizon."""
        zero = ControlPath.zero(self.cutoff, self.integ.dt, self.n_steps)
        return solve_skeleton(u0, zero, self.integ)

    def slope_summary(self, slope, slope_stderr, **extra) -> dict:
        """A decay sweep's summary; it passes when the fitted log-log slope is
        positive by slope_sigmas standard errors."""
        return {**extra, "slope": slope, "slope_stderr": slope_stderr,
                "passed": slope - self.th["slope_sigmas"] * slope_stderr > 0.0}

    def dump(self, name, make):
        """Record make() as <name>.csv for the run directory when
        io.dump_trajectories is set; make is called here or not at all."""
        if self.cfg.io["dump_trajectories"]:
            self.dumps[name] = make()


def _chunks(total):
    """Batch sizes of the chunked stationary draws: 2000 at a time."""
    return [min(2000, total - done) for done in range(0, total, 2000)]


def _run_ou_checks(ctx: _RunContext):
    from scipy.stats import ks_2samp

    cfg, th = ctx.cfg, ctx.th
    g = grid_for(ctx.cutoff)
    spec = cfg.spec()
    replicas = cfg.statistics["replicas"]
    dt = cfg.numerics["dt"]
    rows = []
    summary = {"alphas": [], "ks_pvalue": {}, "max_variance_rel_err": 0.0}
    for idx, alpha in enumerate(cfg.params["alphas"]):
        s = ctx.member(idx)
        gen_a = s.child(0).generator()
        gen_b = s.child(1).generator()
        var_acc = np.zeros(g.n_modes)
        stepped_norms = []
        fresh_norms = []
        for m in _chunks(replicas):
            Z = stationary_batch(g, spec, alpha, gen_a, m)
            var_acc += np.sum(np.abs(Z) ** 2, axis=0)
            Zs = ou_step_batch(Z, g, spec, alpha, dt, gen_a)
            stepped_norms.append(2.0 * np.sum(np.abs(Zs) ** 2, axis=1))
            fresh_norms.append(
                2.0 * np.sum(np.abs(stationary_batch(g, spec, alpha, gen_b, m)) ** 2, axis=1)
            )
        emp = var_acc / replicas
        exact = mode_variances(g, spec, alpha)
        rel = np.abs(emp - exact) / exact
        ks = ks_2samp(np.concatenate(stepped_norms), np.concatenate(fresh_norms))
        for i in range(g.n_modes):
            rows.append(
                {
                    "alpha": alpha,
                    "k1": int(g.k1[i]),
                    "k2": int(g.k2[i]),
                    "emp_var": emp[i],
                    "exact_var": exact[i],
                    "rel_err": rel[i],
                }
            )
        summary["alphas"].append(alpha)
        summary["ks_pvalue"][str(alpha)] = float(ks.pvalue)
        # np.maximum keeps a NaN, which then fails the threshold below
        summary["max_variance_rel_err"] = float(
            np.maximum(summary["max_variance_rel_err"], np.max(rel))
        )
    summary["passed"] = summary["max_variance_rel_err"] <= th["max_variance_rel_err"] and all(
        v >= th["min_ks_pvalue"] for v in summary["ks_pvalue"].values()
    )
    return rows, summary


def _run_renorm(ctx: _RunContext):
    cfg, th = ctx.cfg, ctx.th
    p = cfg.params
    gamma = cfg.noise["gamma"]
    rows = []
    worst_pair = 0.0
    for delta in p["deltas"]:
        values = []
        for cut in p["cutoffs"]:
            theta = renorm_constant(delta, gamma, cut, tail_tol=p["tail_tol"])
            values.append(theta)
            rows.append({"kind": "theta", "delta": delta, "cutoff": cut, "value": theta,
                         "stderr": None, "zscore": None})
        worst_pair = float(np.maximum(worst_pair, np.max(values) - np.min(values)))

    # Monte Carlo: zero-mode diagonal of the renormalized square is centered
    spec = cfg.spec()
    g = grid_for(ctx.cutoff)
    rule = ctx.integ.rule(g.cutoff)
    keep = (np.abs(g.k1) <= rule.effective_cutoff) & (np.abs(g.k2) <= rule.effective_cutoff)
    w11 = (g.k2**2 / g.ksq / (2.0 * np.pi**2))[keep]
    w22 = (g.k1**2 / g.ksq / (2.0 * np.pi**2))[keep]
    theta_trunc = renorm_constant(spec.delta, gamma, rule.effective_cutoff)
    gen = ctx.stream("wick").generator()
    R = p["wick_replicas"]
    sums = {"m11": [], "m22": []}
    for m in _chunks(R):
        Z = stationary_batch(g, spec, 0.0, gen, m)[:, keep]
        a2 = np.abs(Z) ** 2
        sums["m11"].append(a2 @ w11 - spec.epsilon * theta_trunc)
        sums["m22"].append(a2 @ w22 - spec.epsilon * theta_trunc)
    for name in ("m11", "m22"):
        vals = np.concatenate(sums[name])
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(R))
        rows.append(
            {"kind": f"wick_{name}", "delta": spec.delta, "cutoff": g.cutoff,
             "value": mean, "stderr": se, "zscore": abs(mean) / se}
        )

    # the coefficient formula above must agree with the tensor operation
    gen2 = ctx.stream("crosscheck").generator()
    worst_cross = 0.0
    for _ in range(p["crosscheck_replicas"]):
        z = SpectralField(g, stationary_batch(g, spec, 0.0, gen2, 1)[0])
        t = wick_square(z, spec, rule)
        zm = t.zero_mode()
        cs = z.coeffs[keep]
        direct11 = float(np.abs(cs) ** 2 @ w11) - spec.epsilon * theta_trunc
        direct22 = float(np.abs(cs) ** 2 @ w22) - spec.epsilon * theta_trunc
        worst_cross = float(
            np.max([worst_cross, abs(zm[0, 0] - direct11), abs(zm[1, 1] - direct22)])
        )

    # numpy reductions keep a NaN, which then fails its threshold
    max_z = float(np.max([r["zscore"] for r in rows if r["zscore"] is not None]))
    summary = {
        "pair_agreement": worst_pair,
        "max_wick_zscore": max_z,
        "wick_crosscheck_err": worst_cross,
        "symmetrized_form": True,
        "passed": worst_pair <= th["pair_agreement"]
        and max_z <= th["max_wick_zscore"]
        and worst_cross <= th["crosscheck_tol"],
    }
    return rows, summary


def _run_lp_moment(ctx: _RunContext):
    cfg, th = ctx.cfg, ctx.th
    rows = []
    ratios = []
    worst_rel = 0.0
    for i, delta in enumerate(cfg.params["deltas"]):
        spec = NoiseSpec(cfg.noise["epsilon"], delta, cfg.noise["gamma"])
        rep = lp_log_moment_check(
            spec,
            cfg.params["p"],
            cfg.statistics["replicas"],
            ctx.member(i),
            ctx.cutoff,
            grid_factor=cfg.numerics["grid_factor"],
        )
        rows.extend(rep.rows())
        ratios.append(rep.ratio)
        if rep.closed_form is not None:
            rel = abs(rep.estimate - rep.closed_form) / rep.closed_form
            worst_rel = float(np.maximum(worst_rel, rel))
    spread = float(np.max(ratios) / np.min(ratios))
    summary = {
        "ratio_spread": spread,
        "max_closed_form_rel_err": worst_rel,
        "passed": spread <= th["max_ratio_spread"]
        and worst_rel <= th["max_closed_form_rel_err"],
    }
    return rows, summary


def _run_besov_moment(ctx: _RunContext):
    cfg = ctx.cfg
    schedule = cfg.schedule()
    p = cfg.params
    rows, ratios = [], []
    for i, eps in enumerate(sorted(p["epsilons"], reverse=True)):
        spec = NoiseSpec.at_epsilon(eps, schedule, gamma=cfg.noise["gamma"])
        rep = besov_moment_check(
            spec,
            p["sigma"],
            p["sigma_prime"],
            p["p"],
            p["kappa"],
            cfg.numerics["t_final"],
            ctx.integ.dt,
            cfg.statistics["replicas"],
            ctx.member(i),
            ctx.cutoff,
            grid_factor=cfg.numerics["grid_factor"],
        )
        rows.extend(rep.rows())
        ratios.append(rep.ratio)
    spread = float(np.max(ratios) / np.min(ratios))
    summary = {"ratio_spread": spread, "passed": spread <= ctx.th["max_ratio_spread"]}
    return rows, summary


def _run_convergence(ctx: _RunContext, experiment, **options):
    """The sweep of one controlled path against its skeleton.  Dumps the
    skeleton and replica 0 of each sweep member, reproduced from the
    substreams the sweep uses."""
    cfg, integ = ctx.cfg, ctx.integ
    u0 = ctx.initial()
    phi = build_control(
        ctx.cutoff, integ.dt, ctx.n_steps, cfg.params["control"], ctx.stream("control")
    )
    ctx.dump("skeleton", lambda: solve_skeleton(u0, phi, integ))
    schedule = cfg.schedule()
    for i, eps in enumerate(sorted(cfg.noise["epsilons"], reverse=True)):
        spec = NoiseSpec.at_epsilon(
            eps, schedule, gamma=cfg.noise["gamma"], eta=cfg.noise["eta"]
        )
        replica = ctx.stream("sweep").child(i).child(0)
        ctx.dump(f"controlled_{i}", lambda: solve_controlled(u0, phi, spec, integ, replica))
    report = experiment(
        u0, phi, schedule=schedule, epsilons=cfg.noise["epsilons"],
        replicas=cfg.statistics["replicas"], cfg=integ, rng=ctx.stream("sweep"),
        gamma=cfg.noise["gamma"], **options,
    )
    return report.rows(), ctx.slope_summary(report.slope, report.slope_stderr, norm=report.norm)


def _run_converge_h(ctx: _RunContext):
    cfg = ctx.cfg
    return _run_convergence(
        ctx, h_convergence_experiment, eta=cfg.noise["eta"], force=cfg.params["force"]
    )


def _run_converge_besov(ctx: _RunContext):
    p = ctx.cfg.params
    besov = BesovParams(sigma=p["sigma"], p=p["p"], alpha=p["alpha"], beta=p["beta"])
    return _run_convergence(
        ctx, besov_convergence_experiment, besov=besov,
        grid_factor=ctx.cfg.numerics["grid_factor"],
    )


def _run_wick_decay(ctx: _RunContext):
    cfg = ctx.cfg
    schedule = cfg.schedule()
    g = grid_for(ctx.cutoff)
    rule = ctx.integ.rule(g.cutoff)
    sigma = cfg.params["sigma"]
    R = cfg.statistics["replicas"]
    rows, eps_sorted, means = [], sorted(cfg.params["epsilons"], reverse=True), []
    for i, eps in enumerate(eps_sorted):
        spec = NoiseSpec.at_epsilon(eps, schedule, gamma=cfg.noise["gamma"])
        gen = ctx.member(i).generator()
        vals = np.empty(R)
        for r in range(R):
            z = SpectralField(g, stationary_batch(g, spec, 0.0, gen, 1)[0])
            vals[r] = tensor_sobolev_norm(wick_square(z, spec, rule), sigma)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(R))
        means.append(mean)
        rows.append(
            {"epsilon": eps, "delta": spec.delta, "mean_norm": mean, "stderr": se,
             "replicas": R}
        )
    return rows, ctx.slope_summary(*fit_loglog(eps_sorted, means), sigma=sigma)


def _run_instanton(ctx: _RunContext):
    cfg, integ = ctx.cfg, ctx.integ
    u0 = ctx.initial()
    tgt_descr = cfg.params["target"]
    if tgt_descr.get("kind") == "free_decay":
        target = ctx.free_decay(u0).final()
    else:
        target = ctx.target(tgt_descr)
    opt = OptimizerSettings(
        max_iterations=cfg.params["max_iterations"],
        endpoint_tolerance=cfg.params["endpoint_tolerance"],
    )
    phi_star, rep = minimize_action(u0, target, cfg.numerics["t_final"], integ, opt)
    ctx.dump("instanton", lambda: solve_skeleton(u0, phi_star, integ))
    rows = [
        {"iteration": i, "round": h["round"], "objective": h["objective"], "weight": h["weight"]}
        for i, h in enumerate(rep.history)
    ]
    if not rows:  # converged without any descent step (target already reachable)
        rows = [
            {
                "iteration": 0,
                "round": 0,
                "objective": rep.objective,
                "weight": rep.penalty_weight,
            }
        ]
    summary = {
        "action": rep.action,
        "endpoint_error": rep.endpoint_error,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "penalty_weight": rep.penalty_weight,
    }
    nd = cfg.params["gradient_check_directions"]
    if nd:
        from .ldp import action_objective_and_gradient
        from .noise import unit_complex_normals

        gen = ctx.stream("gradient").generator()
        # check away from the minimizer, where the gradient is generic
        base = phi_star.values + unit_complex_normals(gen, phi_star.values.shape, 0.2)
        J0, grad, _ = action_objective_and_gradient(
            base, u0, target, rep.penalty_weight, integ
        )
        worst = 0.0
        h = 1e-6
        for _ in range(nd):
            direction = unit_complex_normals(gen, base.shape)
            Jp, _, _ = action_objective_and_gradient(
                base + h * direction, u0, target, rep.penalty_weight, integ,
                want_gradient=False,
            )
            Jm, _, _ = action_objective_and_gradient(
                base - h * direction, u0, target, rep.penalty_weight, integ,
                want_gradient=False,
            )
            fd = (Jp - Jm) / (2 * h)
            pred = integ.dt * 2.0 * float(np.real(np.sum(grad * np.conj(direction))))
            worst = float(np.maximum(worst, abs(fd - pred) / max(abs(fd), 1e-300)))
        summary["gradient_rel_err"] = worst
        summary["passed"] = rep.converged and worst <= ctx.th["max_gradient_rel_err"]
    else:
        summary["passed"] = rep.converged
    return rows, summary


def _run_laplace(ctx: _RunContext):
    cfg = ctx.cfg
    f = cfg.params["functional"]
    if f["kind"] == "constant":
        functional = ConstantFunctional(f["value"])
    else:
        target = ctx.target(f["target"])
        functional = ClippedEndpointDistance(target, scale=f["scale"], clip=f["clip"])
    u0 = SpectralField.zero(ctx.cutoff)
    report = laplace_check(
        functional,
        u0,
        cfg.schedule(),
        cfg.params["epsilons"],
        cfg.statistics["replicas"],
        ctx.integ,
        cfg.numerics["t_final"],
        ctx.stream("sweep"),
        gamma=cfg.noise["gamma"],
        n_candidates=cfg.params["candidates"],
    )
    summary = {
        "rhs": report.rhs,
        "variance_flag": report.variance_flag,
        "passed": ctx.th["allow_variance_flag"] or not report.variance_flag,
    }
    return report.rows(), summary


def _run_tube(ctx: _RunContext):
    cfg = ctx.cfg
    u0 = ctx.initial()
    center = ctx.free_decay(u0)
    ctx.dump("center", lambda: center)
    radii = sorted(cfg.params["radii"])
    first = tube_probability(
        u0, center, radii[0], cfg.spec(), ctx.integ, cfg.statistics["replicas"],
        ctx.stream("sweep"),
    )
    rows = []
    last_p = -1.0
    monotone = True
    for radius in radii:
        rep = first.at_radius(radius)
        monotone = monotone and rep.p_hat >= last_p
        last_p = rep.p_hat
        rows.append(
            {
                "radius": radius,
                "p_hat": rep.p_hat,
                "ci_low": rep.ci_low,
                "ci_high": rep.ci_high,
                "hits": rep.hits,
                "replicas": rep.replicas,
            }
        )
    summary = {"monotone_in_radius": monotone, "passed": monotone}
    return rows, summary


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: its param schema, threshold defaults and runner."""

    params: object
    thresholds: dict
    run: object


KINDS = {
    "ou_checks": _Kind(
        _params_ou, {"max_variance_rel_err": 0.05, "min_ks_pvalue": 0.01}, _run_ou_checks
    ),
    "renorm": _Kind(
        _params_renorm,
        {"pair_agreement": 1e-8, "max_wick_zscore": 3.0, "crosscheck_tol": 1e-10},
        _run_renorm,
    ),
    "lp_moment": _Kind(
        _params_lp_moment,
        {"max_closed_form_rel_err": 0.05, "max_ratio_spread": 3.0},
        _run_lp_moment,
    ),
    "besov_moment": _Kind(_params_besov_moment, {"max_ratio_spread": 10.0}, _run_besov_moment),
    "converge_h": _Kind(_params_converge_h, {"slope_sigmas": 2.0}, _run_converge_h),
    "converge_besov": _Kind(_params_converge_besov, {"slope_sigmas": 2.0}, _run_converge_besov),
    "wick_decay": _Kind(_params_wick_decay, {"slope_sigmas": 2.0}, _run_wick_decay),
    "instanton": _Kind(_params_instanton, {"max_gradient_rel_err": 1e-5}, _run_instanton),
    "laplace": _Kind(_params_laplace, {"allow_variance_flag": True}, _run_laplace),
    "tube": _Kind(_params_tube, {}, _run_tube),
}


# --------------------------------------------------------------------------
# persistence


def _format_cell(v, column):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError(f"refusing to write non-finite {column} = {float(v)!r}")
        return repr(float(v))
    return str(v)


def _csv_text(rows):
    if not rows:
        raise ValueError("refusing to write an empty results table")
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c), c) for c in cols))
    return "\n".join(lines) + "\n"


def _json_text(obj):
    text = json.dumps(obj, sort_keys=True, indent=2, default=_json_default, allow_nan=False)
    return text + "\n"


def write_csv_atomic(path, rows):
    _atomic_write(path, _csv_text(rows))


def write_json_atomic(path, obj):
    _atomic_write(path, _json_text(obj))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class RunRecord:
    kind: str
    config_hash: str
    run_dir: str
    passed: bool
    version: str = __version__
    created: str = ""
    seed: int = 0
    seed_scheme: str = (
        "SeedSequence(seed, spawn_key=stream path); every draw comes from a fixed child path "
        "of RngStream(seed), set per kind by member and replica indices (README: Stream layout)"
    )
    results_csv: str = ""
    summary_json: str = ""

    def to_dict(self):
        return dataclasses.asdict(self)


def run(config: ExperimentConfig, outdir: str) -> RunRecord:
    """Execute one experiment; writes results into <outdir>/<kind>-<hash12>.

    The directory is created only once the runner has returned, so a run that
    raises leaves nothing behind.  An outdir that cannot take it is refused
    before the run."""
    probe = os.path.abspath(outdir)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise OSError(
            f"cannot create a run directory under {outdir!r}: {probe!r} is not a writable directory"
        )
    h = config.config_hash()
    ctx = _RunContext(config)
    rows, summary = KINDS[config.kind].run(ctx)
    run_dir = os.path.join(outdir, f"{config.kind}-{h[:12]}")
    os.makedirs(run_dir, exist_ok=True)
    summary = {
        "kind": config.kind,
        "config_hash": h,
        "seed": config.statistics["seed"],
        **summary,
    }
    results_csv = os.path.join(run_dir, "results.csv")
    summary_json = os.path.join(run_dir, "summary.json")
    # both formatted before either is written: a non-finite cell or summary
    # value leaves no file behind
    summary_text, table = _json_text(summary), _csv_text(rows)
    _atomic_write(summary_json, summary_text)
    _atomic_write(results_csv, table)
    _atomic_write(os.path.join(run_dir, "config.json"), config.canonical_json() + "\n")
    for name, traj in ctx.dumps.items():
        save_trajectory(traj, os.path.join(run_dir, f"{name}.csv"))
    record = RunRecord(
        kind=config.kind,
        config_hash=h,
        run_dir=run_dir,
        passed=bool(summary.get("passed", True)),
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
        seed=config.statistics["seed"],
        results_csv=results_csv,
        summary_json=summary_json,
    )
    write_json_atomic(os.path.join(run_dir, "record.json"), record.to_dict())
    return record


def set_by_path(raw: dict, dotted: str, value):
    parts = dotted.split(".")
    node = raw
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            node[p] = {}
        node = node[p]
    node[parts[-1]] = value


def _sweep_member(job):
    value, raw, outdir = job
    config = ExperimentConfig.from_dict(raw)
    return value, run(config, outdir)


def sweep(raw_config: dict, axis: str, values, outdir: str, workers: int = 1):
    """Independent runs along one config axis; returns the list of records.

    Member failures are recorded per member and do not abort the others.
    Each member writes only into its own hash-named directory, so the pool
    members share no state and the merged output is order-independent.
    """
    import concurrent.futures
    import copy

    jobs = []
    for v in values:
        raw = copy.deepcopy(raw_config)
        set_by_path(raw, axis, v)
        jobs.append((v, raw, outdir))
    records, errors = [], []

    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(_sweep_member, job) for job in jobs]
            for job, fut in zip(jobs, futures):
                try:
                    records.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - reported per member
                    errors.append((job[0], str(exc)))
    else:
        for job in jobs:
            try:
                records.append(_sweep_member(job))
            except Exception as exc:  # noqa: BLE001 - reported per member
                errors.append((job[0], str(exc)))
    merged = [
        {"axis": axis, "value": v, "run_dir": r.run_dir, "passed": r.passed}
        for v, r in records
    ] + [{"axis": axis, "value": v, "run_dir": "ERROR: " + msg, "passed": False} for v, msg in errors]
    if merged:
        write_csv_atomic(os.path.join(outdir, "sweep.csv"), merged)
    return [r for _, r in records], errors


def report(run_dirs, out_path=None):
    """Merge finished runs of one kind into a plot-ready table and a summary."""
    if not run_dirs:
        raise ValueError("no runs given")
    summaries = []
    tables = []
    for d in run_dirs:
        with open(os.path.join(d, "summary.json")) as fh:
            summaries.append(json.load(fh))
        with open(os.path.join(d, "results.csv")) as fh:
            lines = fh.read().strip().split("\n")
        cols = lines[0].split(",")
        for ln in lines[1:]:
            row = dict(zip(cols, ln.split(",")))
            row["run_dir"] = d
            tables.append(row)
    kinds = {s["kind"] for s in summaries}
    if len(kinds) != 1:
        raise ValueError(f"cannot merge mixed experiment kinds: {sorted(kinds)}")
    kind = kinds.pop()
    text = [f"experiment kind: {kind}", f"runs merged: {len(run_dirs)}"]
    for d, s in zip(run_dirs, summaries):
        detail = {k: v for k, v in s.items() if k not in ("kind", "config_hash")}
        text.append(f"  {d}: {json.dumps(detail, sort_keys=True, default=_json_default)}")
    all_passed = all(s.get("passed", True) for s in summaries)
    text.append(f"all passed: {all_passed}")
    if out_path:
        write_csv_atomic(out_path, tables)
    return "\n".join(text), all_passed
