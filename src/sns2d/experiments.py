"""Experiment orchestration: validated configs, deterministic runs, reports.

Configs are strict JSON documents (schema_version 1; unknown keys, non-finite
numbers and non-integer counts rejected).
A run writes results.csv / summary.json / config.json atomically into a
directory named by the config hash; (config, seed) determines every numeric
output byte.
"""

import copy
import csv
import dataclasses
import hashlib
import io
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
from .ldp import OptimizerSettings, action_objective_and_gradient, minimize_action
from .montecarlo import (
    ClippedEndpointDistance,
    ConstantFunctional,
    besov_convergence_experiment,
    besov_moment_check,
    fit_loglog,
    h_convergence_experiment,
    ks_pvalue,
    laplace_check,
    lp_log_moment_check,
    mean_stderr,
    sweep_specs,
    tube_probability,
)
from .noise import (
    NoiseSpec,
    RenormTailError,
    RngStream,
    check_renorm_tail,
    chunk_sizes,
    drawn_l2_powers,
    mode_square_sums,
    mode_variances,
    ou_transition,
    renorm_constant,
    schedule_from_dict,
    stationary_batch,
    stationary_std,
    unit_complex_normals,
    validate_scaling_condition,
    validate_vanishing_schedule,
    wick_diagonal,
)
from .nonlinear import wick_square
from .spectral import BesovParams, tensor_sobolev_norm

SCHEMA_VERSION = 1
_REQUIRED = object()


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
        schema = {"schema_version": (_REQUIRED, None), "kind": (_REQUIRED, None)}
        schema |= {f.name: ({}, None) for f in dataclasses.fields(cls)[1:]}
        top = _fields(raw, schema, "config", "config.")
        version, kind = top.pop("schema_version"), top.pop("kind")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version}; "
                f"this toolkit reads version {SCHEMA_VERSION}"
            )
        if not isinstance(kind, str) or kind not in KINDS:
            raise ValueError(f"unknown experiment kind {kind!r}; choose from {tuple(KINDS)}")
        cfg = cls(kind=kind, **top)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **dataclasses.asdict(self)}

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(
            dt=self.numerics["dt"],
            scheme=self.numerics["scheme"],
            dealias=self.numerics["dealias"],
        )

    def schedule(self):
        return schedule_from_dict(self.noise["schedule"])

    def spec(self) -> NoiseSpec:
        return NoiseSpec(
            epsilon=self.noise["epsilon"],
            delta=self.noise["delta"],
            gamma=self.noise["gamma"],
        )

    def threshold_values(self) -> dict:
        """The kind's thresholds with defaults filled in; unknown names and
        values not of their default's type rejected.  cfg.thresholds keeps
        only what the config set, so the hash does not depend on defaults."""
        schema = {
            name: (default, _BOOL if isinstance(default, bool) else _NUMBER)
            for name, default in KINDS[self.kind].thresholds.items()
        }
        where = f"{self.kind}: thresholds."
        return _fields(self.thresholds, schema, f"thresholds({self.kind})", where)

    def validate(self):
        """Fill in the defaults of each section and of the params, and check
        them against the kind's entry in KINDS; descriptors stay as given."""
        for name, schema in _SECTIONS.items():
            setattr(self, name, _fields(getattr(self, name), schema, name, f"{self.kind}: {name}."))
        self.integrator()  # raises on bad numerics
        t_final, dt = self.numerics["t_final"], self.numerics["dt"]
        n_steps = round(t_final / dt)
        if n_steps < 2:
            raise ValueError(
                f"numerics.t_final must be > 0 and span at least 2 steps of "
                f"dt={dt}, got {t_final}"
            )
        # run marches n_steps * dt, so any other horizon would be silently moved
        if abs(t_final / dt - n_steps) > 1e-9 * n_steps:
            raise ValueError(
                f"{self.kind}: numerics.t_final must be a whole number of steps of "
                f"dt={dt}, got {t_final} ({t_final / dt:.6g} steps)"
            )
        kind = KINDS[self.kind]
        p = _fields(self.params, kind.params, f"params({self.kind})", f"{self.kind}: ")
        if kind.check is not None:
            kind.check(self, p)
        for path, rule in kind.needs.items():
            section, key = path.split(".")
            value = getattr(self, section)[key]
            if value is None:
                raise ValueError(f"{self.kind}: {path} is required")
            if rule is not None:
                rule(f"{self.kind}: {section}.", key, value)
        if "noise.schedule" in kind.needs:
            _check_regime(self, p)
        cutoff = self.numerics["cutoff"]
        if kind.dealiased:
            try:
                self.integrator().rule(cutoff)
            except ValueError as exc:
                raise ValueError(f"{self.kind}: numerics.cutoff: {exc}") from None
        for path, descr in _descriptors(p, "params", "mode"):
            if max(map(abs, descr["k"])) > cutoff:
                raise ValueError(
                    f"{self.kind}: {path}.k {tuple(descr['k'])} outside numerics.cutoff {cutoff}"
                )
        for path, descr in _descriptors(p, "params", "file"):
            try:
                found = load_field(descr["path"]).cutoff
            except (OSError, ValueError) as exc:
                raise ValueError(f"{self.kind}: {path}.path: {exc}") from None
            if found != cutoff:
                raise ValueError(
                    f"{self.kind}: {path}.path holds a field of cutoff {found}, "
                    f"not numerics.cutoff {cutoff}"
                )
        self.params = p
        self.threshold_values()
        return self


# --------------------------------------------------------------------------
# parameter rules and descriptor families


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _rule(phrase, test):
    """A rule: refuses a value that fails test as '<where><key> <phrase>'."""

    def check(where, key, value):
        if not test(value):
            raise ValueError(f"{where}{key} {phrase}, got {value!r}")

    return check


def _pair(test):
    return lambda v: isinstance(v, list) and len(v) == 2 and all(map(test, v))


def _number(phrase, test=lambda v: True):
    return _rule(phrase, lambda v: _is_number(v) and test(v))


def _count(least):
    return _rule(f"must be an integer >= {least}", lambda v: _is_int(v) and v >= least)


_LIST = _rule("must be a non-empty list", lambda v: isinstance(v, list) and len(v) > 0)


def _each(item, rule):
    """A non-empty list whose entries each pass rule, refused as 'each <item>'."""

    def check(where, key, values):
        _LIST(where, key, values)
        for v in values:
            rule(where, f"each {item}", v)

    return check


_NUMBER = _number("must be a number")
_POSITIVE = _number("must be > 0", lambda v: v > 0)
_NON_NEGATIVE = _number("must be a number >= 0", lambda v: v >= 0)
_ORDER = _number("must be a number >= 1", lambda v: v >= 1)
_POSITIVE_LIST = _rule(
    "must be a non-empty list of numbers > 0",
    lambda v: isinstance(v, list) and len(v) > 0 and all(_is_number(x) and x > 0 for x in v),
)
# a decay sweep fits a log-log slope and its standard error
_SLOPE = _rule("must hold at least 3 distinct values to fit a slope", lambda v: len(set(v)) >= 3)
_BOOL = _rule("must be true or false", lambda v: isinstance(v, bool))
_PAIR = _rule("must be a pair of numbers", _pair(_is_number))
_MODE = _rule("must be a nonzero pair of integers", lambda v: _pair(_is_int)(v) and any(v))


def _fields(raw, schema, section, where):
    """raw with the defaults of schema, {key: (default, rule)}, filled in.

    Unknown keys and missing required ones are refused under section, a value
    its rule refuses under where.  A key whose default is None is optional:
    its rule passes null.  A rule of None leaves the value to a check
    elsewhere."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"{section}: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ValueError(f"{section}: unknown keys {sorted(unknown)}")
    out = {}
    for key, (default, rule) in schema.items():
        if key in raw:
            out[key] = raw[key]
        elif default is _REQUIRED:
            raise ValueError(f"{section}: missing required key {key!r}")
        else:
            out[key] = copy.deepcopy(default)
        if rule is not None and not (default is None and out[key] is None):
            rule(where, key, out[key])
    return out


@dataclass(frozen=True)
class _Family:
    """Descriptors {"kind": <name>, <field>: ...}, such as an initial field:
    the (default, rule) of each field the family's kinds share, and the
    fields each kind must set."""

    fields: dict
    kinds: dict

    def values(self, descr, where):
        """descr with every field filled in; refused as the rules say."""
        kind = _rule(
            f"must be one of {tuple(self.kinds)}",
            lambda v: isinstance(v, str) and v in self.kinds,
        )
        d = _fields(descr, {"kind": (_REQUIRED, kind), **self.fields}, where, f"{where}.")
        for key in self.kinds[d["kind"]]:
            if d[key] is None:
                raise ValueError(f"{where}: kind {d['kind']!r} needs {key}")
        return d

    def __call__(self, where, key, descr):
        """The family as a rule: descr must be one of its descriptors."""
        self.values(descr, f"{where}{key}")


_SHAPE = {"amplitude": (1.0, _NUMBER), "decay": (1.0, _NUMBER)}
_MODE_FIELDS = {"k": (None, _MODE), "value": (None, _PAIR)}
# build_initial reads these too; validate reads the cutoff in a file kind's header
INITIALS = _Family(
    {**_SHAPE, **_MODE_FIELDS,
     "path": (None, _rule("must be a string", lambda v: isinstance(v, str)))},
    {"zero": (), "taylor_green": (), "random": (), "mode": ("k", "value"), "file": ("path",)},
)
# an instanton target may also be the free-decay endpoint of the initial field
TARGETS = _Family(INITIALS.fields, {**INITIALS.kinds, "free_decay": ()})
CONTROLS = _Family(
    {**_MODE_FIELDS, "gamma": (1.0, _POSITIVE), **_SHAPE},
    {"zero": (), "mode": ("k", "value"), "taylor_green": (), "random_ball": ()},
)
FUNCTIONALS = _Family(
    {"value": (0.0, _NUMBER), "scale": (1.0, _POSITIVE), "clip": (10.0, _NUMBER),
     "target": (None, INITIALS)},
    {"constant": (), "clipped_endpoint": ("target",)},
)
SCHEDULES = _Family(
    {"exponent": (None, _NUMBER), "scale": (1.0, _POSITIVE)}, {"power": ("exponent",)}
)

# The sections every kind shares.  A rule of None leaves the value to
# IntegratorConfig; what a kind needs of them is in its needs.
_SECTIONS = {
    "numerics": {
        "cutoff": (16, _count(1)),
        "dt": (0.01, _POSITIVE),
        "t_final": (0.5, _POSITIVE),
        "grid_factor": (2, _count(2)),
        "dealias": ("two_thirds", None),
        "scheme": ("exponential_euler", None),
    },
    "noise": {
        "gamma": (1.0, _POSITIVE),
        "eta": (None, _NUMBER),
        "epsilon": (None, _NON_NEGATIVE),
        "delta": (None, _NON_NEGATIVE),
        "epsilons": (None, _POSITIVE_LIST),
        "schedule": (None, SCHEDULES),
    },
    "statistics": {"replicas": (100, _count(1)), "seed": (0, _count(0))},
    "io": {"dump_trajectories": (False, _BOOL)},
}


# --------------------------------------------------------------------------
# field / control builders


def build_initial(cutoff: int, descr: dict, stream: RngStream) -> SpectralField:
    d = INITIALS.values(descr, "initial")
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
    return load_field(d["path"])


def build_control(cutoff, dt, n_steps, descr, stream: RngStream) -> ControlPath:
    d = CONTROLS.values(descr, "control")
    kind = d["kind"]
    if kind == "zero":
        return ControlPath.zero(cutoff, dt, n_steps)
    if kind == "mode":
        re, im = d["value"]
        f = SpectralField.from_modes(cutoff, {tuple(d["k"]): re + 1j * im})
        return ControlPath.constant(f, dt, n_steps)
    if kind == "taylor_green":
        return ControlPath.constant(taylor_green(cutoff, d["amplitude"]), dt, n_steps)
    return ControlPath.random_in_ball(
        cutoff, dt, n_steps, d["gamma"], stream.generator(), decay=d["decay"]
    )


# --------------------------------------------------------------------------
# run context and runners


class _RunContext:
    """What every runner shares, built once by ``run`` from a validated config.

    It owns the root stream ``RngStream(seed)`` and names its reserved
    children, the integrator and the step count of the horizon, the
    thresholds with their defaults, and the trajectories to dump.  Kinds that
    sweep members without a reserved child use ``member(i)``, child i of the
    root; those whose members draw only from their own streams run them
    side by side through ``map_members``.
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

    @staticmethod
    def map_members(fn, values) -> list:
        """[fn(i, value) for i, value in enumerate(values)] on a pool of
        threads, one per usable core up to one per member; serially on one
        core.  numpy's draws and array arithmetic release the GIL, so
        members whose arrays and streams are their own run in parallel and
        give the serial results.  The lowest-indexed member's error is
        raised, once every member has finished and ``_trim_heap`` has handed
        back what the threads freed."""
        items = list(enumerate(values))
        workers = min(len(items), len(os.sched_getaffinity(0)))
        if workers <= 1:
            return [fn(i, v) for i, v in items]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(fn, i, v) for i, v in items]
        _trim_heap()
        return [f.result() for f in futures]

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


def _trim_heap():
    """Hand the memory that freed arrays leave in glibc's heaps back to the
    system: after a pool, whose threads free into arenas of their own that
    the serial work after it cannot reuse, and after renorm's Wick loop,
    which follows the temporaries of its renormalization constants (6.2 MiB
    at cutoff 256, freed into the main heap the first time; they are cached
    after that).  Six runs of the ou_checks, lp_moment and renorm configs in
    turn in one process peaked at 93.4-93.5 MiB with both trims, 93.8-93.9
    MiB without the renorm one and 94.5-94.7 MiB without either (three
    processes each; 2-core Xeon, glibc).  A no-op without glibc."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _run_ou_checks(ctx: _RunContext):
    cfg, th = ctx.cfg, ctx.th
    g = grid_for(ctx.cutoff)
    spec = cfg.spec()
    replicas = cfg.statistics["replicas"]
    dt = cfg.numerics["dt"]

    alphas = cfg.params["alphas"]
    # each member's batch array is made here, on the calling thread: one made
    # by a pool thread comes from that thread's arena, whose top malloc_trim
    # does not hand back
    batches = [
        np.empty((chunk_sizes(replicas)[0], g.n_modes), dtype=np.complex128) for _ in alphas
    ]

    def member(idx, alpha):
        s = ctx.member(idx)
        gen_a = s.child(0).generator()
        gen_b = s.child(1).generator()
        std = stationary_std(g, spec, alpha)
        decay, step_std = ou_transition(g, spec, alpha, dt)
        var_acc = np.zeros(g.n_modes)
        stepped, fresh = [], []
        # one array for every batch: on threads, a new 17.4 MB array per batch
        # (at cutoff 16) left the freed ones resident, and the run peaked 32
        # MiB higher.  The member holds it alone, so it is freed as the member
        # ends.  The steps and the fresh samples are reduced as they are drawn
        batch, batches[idx] = batches[idx], None
        for m in chunk_sizes(replicas):
            Z = stationary_batch(g, spec, alpha, gen_a, m, out=batch[:m])
            var_acc += mode_square_sums(Z)
            stepped.append(drawn_l2_powers(gen_a, m, step_std, decay, Z))
            fresh.append(drawn_l2_powers(gen_b, m, std))
        return var_acc, np.concatenate(stepped), np.concatenate(fresh)

    rows = []
    summary = {"alphas": [], "ks_pvalue": {}, "max_variance_rel_err": 0.0}
    for alpha, (var_acc, stepped, fresh) in zip(alphas, ctx.map_members(member, alphas)):
        emp = var_acc / replicas
        exact = mode_variances(g, spec, alpha)
        rel = np.abs(emp - exact) / exact
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
        summary["ks_pvalue"][str(alpha)] = ks_pvalue(stepped, fresh)
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
    R = p["wick_replicas"]
    diagonal = wick_diagonal(
        g, spec, ctx.stream("wick").generator(), R, keep, (w11, w22), spec.epsilon * theta_trunc
    )
    # the constants' lattice sums and the loop freed their temporaries into
    # the heap, where they would stay resident under the next run's peak
    _trim_heap()
    for name, vals in zip(("m11", "m22"), diagonal):
        mean, se = mean_stderr(vals)
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


def _moment_rows(reports):
    """The rows of a moment kind's MomentReports and the max/min spread of
    their ratios."""
    ratios = [rep.ratio for rep in reports]
    return [row for rep in reports for row in rep.rows()], float(np.max(ratios) / np.min(ratios))


def _run_lp_moment(ctx: _RunContext):
    cfg, th = ctx.cfg, ctx.th

    def member(i, delta):
        spec = NoiseSpec(cfg.noise["epsilon"], delta, cfg.noise["gamma"])
        return lp_log_moment_check(
            spec,
            cfg.params["p"],
            cfg.statistics["replicas"],
            ctx.member(i),
            ctx.cutoff,
            grid_factor=cfg.numerics["grid_factor"],
        )

    reports = ctx.map_members(member, cfg.params["deltas"])
    worst_rel = 0.0
    for rep in reports:
        if rep.closed_form is not None:
            rel = abs(rep.estimate - rep.closed_form) / rep.closed_form
            worst_rel = float(np.maximum(worst_rel, rel))
    rows, spread = _moment_rows(reports)
    summary = {
        "ratio_spread": spread,
        "max_closed_form_rel_err": worst_rel,
        "passed": spread <= th["max_ratio_spread"]
        and worst_rel <= th["max_closed_form_rel_err"],
    }
    return rows, summary


def _run_besov_moment(ctx: _RunContext):
    cfg, p = ctx.cfg, ctx.cfg.params
    rows, spread = _moment_rows([
        besov_moment_check(
            spec, p["sigma"], p["sigma_prime"], p["p"], p["kappa"], cfg.numerics["t_final"],
            ctx.integ.dt, cfg.statistics["replicas"], ctx.member(i), ctx.cutoff,
            grid_factor=cfg.numerics["grid_factor"],
        )
        for i, spec in enumerate(sweep_specs(cfg.schedule(), p["epsilons"], cfg.noise["gamma"]))
    ])
    return rows, {"ratio_spread": spread, "passed": spread <= ctx.th["max_ratio_spread"]}


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
    for i, spec in enumerate(sweep_specs(schedule, cfg.noise["epsilons"], cfg.noise["gamma"])):
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


def _besov(p) -> BesovParams:
    return BesovParams(sigma=p["sigma"], p=p["p"], alpha=p["alpha"], beta=p["beta"])


def _run_converge_besov(ctx: _RunContext):
    return _run_convergence(
        ctx, besov_convergence_experiment, besov=_besov(ctx.cfg.params),
        grid_factor=ctx.cfg.numerics["grid_factor"],
    )


def _run_wick_decay(ctx: _RunContext):
    cfg = ctx.cfg
    g = grid_for(ctx.cutoff)
    rule = ctx.integ.rule(g.cutoff)
    sigma = cfg.params["sigma"]
    R = cfg.statistics["replicas"]
    rows = []
    specs = sweep_specs(cfg.schedule(), cfg.params["epsilons"], cfg.noise["gamma"])
    for i, spec in enumerate(specs):
        gen = ctx.member(i).generator()
        vals = np.empty(R)
        for r in range(R):
            z = SpectralField(g, stationary_batch(g, spec, 0.0, gen, 1)[0])
            vals[r] = tensor_sobolev_norm(wick_square(z, spec, rule), sigma)
        mean, se = mean_stderr(vals)
        rows.append(
            {"epsilon": spec.epsilon, "delta": spec.delta, "mean_norm": mean, "stderr": se,
             "replicas": R}
        )
    slope = fit_loglog([s.epsilon for s in specs], [r["mean_norm"] for r in rows])
    return rows, ctx.slope_summary(*slope, sigma=sigma)


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
        "constrained_action": rep.constrained_action,
    }
    nd = cfg.params["gradient_check_directions"]
    if nd:
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
    reports = tube_probability(
        u0, center, radii, cfg.spec(), ctx.integ, cfg.statistics["replicas"],
        ctx.stream("sweep"),
    )
    rows = [{**dataclasses.asdict(rep), "radius": r} for r, rep in zip(radii, reports)]
    # one sample of distances at sorted radii: never false (README, tube)
    p_hats = [rep.p_hat for rep in reports]
    monotone = all(b >= a for a, b in zip(p_hats, p_hats[1:]))
    return rows, {"monotone_in_radius": monotone, "passed": monotone}


def _check_regime(cfg, p):
    """The paper's regime along a sweep of params.epsilons, or else of
    noise.epsilons: delta(eps) -> 0, and for the H norm eps *
    delta(eps)^(-eta) -> 0 unless params.force runs the schedule as a
    negative control."""
    schedule = cfg.schedule()
    eps = p["epsilons"] if "epsilons" in p else cfg.noise["epsilons"]
    try:
        validate_vanishing_schedule(schedule, eps)
        if cfg.kind == "converge_h":
            validate_scaling_condition(schedule, eps, cfg.noise["eta"], force=p["force"])
    except ValueError as exc:
        raise ValueError(f"{cfg.kind}: {exc}") from None


def _descriptors(node, path, kind):
    """(path, descriptor) of each descriptor of the given kind in a params tree."""
    if isinstance(node, dict):
        if node.get("kind") == kind:
            yield path, node
        for key, value in node.items():
            yield from _descriptors(value, f"{path}.{key}", kind)


def _check_besov_moment(cfg, p):
    if not p["sigma"] < p["sigma_prime"] < 0:
        raise ValueError(
            "besov_moment: need sigma < sigma_prime < 0, got "
            f"sigma={p['sigma']}, sigma_prime={p['sigma_prime']}"
        )


def _check_instanton(cfg, p):
    if cfg.numerics["scheme"] != "exponential_euler":
        raise ValueError(
            "instanton: the adjoint gradient is implemented for numerics.scheme "
            f"'exponential_euler', got {cfg.numerics['scheme']!r}"
        )


def _check_renorm(cfg, p):
    """Each theta of the table meets tail_tol, by renorm_constant's own tail
    estimate."""
    for delta in p["deltas"]:
        for cut in p["cutoffs"]:
            try:
                check_renorm_tail(delta, cfg.noise["gamma"], cut, p["tail_tol"])
            except RenormTailError as exc:
                raise ValueError(f"renorm: params.cutoffs: {exc} (delta={delta})") from None


def _fill_functional(cfg, p):
    p["functional"] = FUNCTIONALS.values(p["functional"], "laplace: functional")


@dataclass(frozen=True)
class _Kind:
    """One experiment kind as data.

    params maps each param to (default, rule); the defaults fill cfg.params.
    check holds the rules that span params (laplace's fills its functional
    in).  needs maps each "section.key" the kind reads to the rule it adds to
    the section's own, or to None; either way the entry must be set, and a
    kind that needs noise.schedule sweeps its epsilons in the paper's regime.
    The k of every mode descriptor in params must lie within numerics.cutoff.
    A kind that is dealiased works in the band of numerics.dealias at
    numerics.cutoff, which must hold a mode.  thresholds holds the threshold
    defaults and run the runner.
    """

    params: dict
    thresholds: dict
    run: object
    needs: dict = dataclasses.field(default_factory=dict)
    check: object = None
    dealiased: bool = True


_INITIAL = ({"kind": "taylor_green", "amplitude": 0.5}, INITIALS)
_CONTROL = ({"kind": "mode", "k": [1, 0], "value": [0.5, 0.0]}, CONTROLS)
# a standard error, or the KS test's second sample, needs two replicas
_PAIRED = {"statistics.replicas": _count(2)}
_SWEPT = {"noise.schedule": None, "noise.epsilons": _SLOPE, **_PAIRED}

KINDS = {
    "ou_checks": _Kind(
        params={"alphas": ([0.0, 1.0], _each("alpha", _NON_NEGATIVE))},
        needs={"noise.epsilon": _POSITIVE, "noise.delta": None, **_PAIRED},
        thresholds={"max_variance_rel_err": 0.05, "min_ks_pvalue": 0.01},
        run=_run_ou_checks,
        dealiased=False,
    ),
    "renorm": _Kind(
        params={
            "deltas": ([0.1, 0.01], _POSITIVE_LIST),
            "cutoffs": ([128, 256], _each("cutoff", _count(1))),
            "tail_tol": (1e-8, _POSITIVE),
            "wick_replicas": (10000, _count(2)),
            "crosscheck_replicas": (20, _count(0)),
        },
        needs={"noise.epsilon": _POSITIVE, "noise.delta": _POSITIVE},
        check=_check_renorm,
        thresholds={"pair_agreement": 1e-8, "max_wick_zscore": 3.0, "crosscheck_tol": 1e-10},
        run=_run_renorm,
    ),
    "lp_moment": _Kind(
        params={"p": (2.0, _ORDER), "deltas": ([1e-1, 1e-2, 1e-3, 1e-4], _POSITIVE_LIST)},
        needs={"noise.epsilon": _POSITIVE, **_PAIRED},
        thresholds={"max_closed_form_rel_err": 0.05, "max_ratio_spread": 3.0},
        run=_run_lp_moment,
        dealiased=False,
    ),
    "besov_moment": _Kind(
        params={
            "sigma": (-0.75, _NUMBER),
            "sigma_prime": (-0.5, _NUMBER),
            "p": (4.0, _ORDER),
            "kappa": (2.0, _POSITIVE),
            "epsilons": ([1e-1, 1e-2, 1e-3], _POSITIVE_LIST),
        },
        needs={"noise.schedule": None, **_PAIRED},
        check=_check_besov_moment,
        thresholds={"max_ratio_spread": 10.0},
        run=_run_besov_moment,
        dealiased=False,
    ),
    "converge_h": _Kind(
        params={"initial": _INITIAL, "control": _CONTROL, "force": (False, _BOOL)},
        needs={**_SWEPT, "noise.eta": None},
        thresholds={"slope_sigmas": 2.0},
        run=_run_converge_h,
    ),
    "converge_besov": _Kind(
        params={
            "initial": _INITIAL,
            "control": _CONTROL,
            "sigma": (-0.25, _NUMBER),
            "p": (4.0, _NUMBER),
            "alpha": (0.3, _NUMBER),
            "beta": (3.0, _NUMBER),
        },
        needs=_SWEPT,
        # raises with the violated inequality named
        check=lambda cfg, p: _besov(p).validate(),
        thresholds={"slope_sigmas": 2.0},
        run=_run_converge_besov,
    ),
    "wick_decay": _Kind(
        params={
            "sigma": (-0.5, _number("must be < 0", lambda v: v < 0)),
            "epsilons": ([1e-1, 1e-2, 1e-3], _POSITIVE_LIST),
        },
        check=lambda cfg, p: _SLOPE("wick_decay: ", "epsilons", p["epsilons"]),
        needs={"noise.schedule": None, **_PAIRED},
        thresholds={"slope_sigmas": 2.0},
        run=_run_wick_decay,
    ),
    "instanton": _Kind(
        params={
            "initial": _INITIAL,
            "target": ({"kind": "free_decay"}, TARGETS),
            "endpoint_tolerance": (1e-3, _number("must be finite and > 0", lambda v: v > 0)),
            "max_iterations": (500, _count(1)),
            "gradient_check_directions": (0, _count(0)),
        },
        check=_check_instanton,
        thresholds={"max_gradient_rel_err": 1e-5},
        run=_run_instanton,
    ),
    "laplace": _Kind(
        params={
            "functional": ({"kind": "constant", "value": 0.0}, FUNCTIONALS),
            "epsilons": ([1e-1, 1e-2], _POSITIVE_LIST),
        },
        needs={"noise.schedule": None, **_PAIRED},
        check=_fill_functional,
        thresholds={"allow_variance_flag": True},
        run=_run_laplace,
    ),
    "tube": _Kind(
        params={"initial": _INITIAL, "radii": ([0.1, 0.2, 0.5], _POSITIVE_LIST)},
        needs={"noise.epsilon": None, "noise.delta": None, **_PAIRED},
        thresholds={},
        run=_run_tube,
    ),
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_format_cell(row.get(c), c) for c in cols])
    return buf.getvalue()


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

    The directory is created only once the runner's outputs are formatted, so
    a run that raises or returns a non-finite value leaves nothing behind.  An
    outdir that cannot take it is refused before the run."""
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
    summary = {
        "kind": config.kind,
        "config_hash": h,
        "seed": config.statistics["seed"],
        **summary,
    }
    # both formatted before the directory is made: a non-finite cell or
    # summary value leaves nothing behind
    summary_text, table = _json_text(summary), _csv_text(rows)
    run_dir = os.path.join(outdir, f"{config.kind}-{h[:12]}")
    os.makedirs(run_dir, exist_ok=True)
    results_csv = os.path.join(run_dir, "results.csv")
    summary_json = os.path.join(run_dir, "summary.json")
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

    jobs = []
    for v in values:
        raw = copy.deepcopy(raw_config)
        set_by_path(raw, axis, v)
        jobs.append((v, raw, outdir))
    records, errors = [], []
    # the pool forks all its workers at the first submit, so none may idle
    workers = min(workers, len(jobs))
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
        with open(os.path.join(d, "results.csv"), newline="") as fh:
            reader = csv.reader(fh)
            cols = next(reader)
            for cells in reader:
                row = dict(zip(cols, cells))
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
