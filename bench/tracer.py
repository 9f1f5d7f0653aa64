"""Tracing of sns2d from outside the program: spans and exact counters.

``Tracer`` rebinds the listed public functions in every ``sns2d`` module that
bound them (``dynamics`` and ``ldp`` import ``b_core`` by name, ``noise``
imports the norms lazily, ``to_grid`` is a method), so calls from the
solvers are seen too.  Each call records a span (name, start, end, parent)
in memory; ``layer_metrics`` turns them into calls, total and self time per
layer.  Self time is a span's duration minus what its child spans and the
normal draws inside it cover.

FFT calls and normal draws are counted without spans: a span per FFT would
cost more than the FFT at these sizes.  FFT calls are counted by wrapping
the ``scipy.fft`` and ``numpy.fft`` transforms (and their bindings in sns2d);
normals by handing out counting generators from ``RngStream.generator``,
which yield the same streams.
"""

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) of each spanned public function.
SPANNED = (
    ("sns2d.nonlinear", "b_core"),
    ("sns2d.nonlinear", "b_linearized_adjoint_core"),
    ("sns2d.nonlinear", "tensor_product"),
    ("sns2d.fields", "SpectralField.to_grid"),
    ("sns2d.spectral", "lp_norm"),
    ("sns2d.spectral", "besov_norm"),
    ("sns2d.dynamics", "solve_controlled"),
    ("sns2d.dynamics", "solve_skeleton"),
    ("sns2d.dynamics", "Trajectory.sup_h_distance"),
    ("sns2d.dynamics", "Trajectory.sup_distance"),
    ("sns2d.ldp", "action_objective_and_gradient"),
    ("sns2d.experiments", "ExperimentConfig.from_dict"),
    ("sns2d.experiments", "run"),
    ("sns2d.experiments", "write_csv_atomic"),
    ("sns2d.experiments", "write_json_atomic"),
)

SOLVERS = ("solve_controlled", "solve_skeleton")

# Spans summed into each reported layer.
LAYERS = {
    "nonlinear.b_core": ("nonlinear.b_core",),
    "nonlinear.adjoint": ("nonlinear.b_linearized_adjoint_core",),
    "nonlinear.tensor_product": ("nonlinear.tensor_product",),
    "fields.to_grid": ("fields.SpectralField.to_grid",),
    "spectral.lp_norm": ("spectral.lp_norm",),
    "spectral.besov_norm": ("spectral.besov_norm",),
    "dynamics.solve": tuple(f"dynamics.{s}" for s in SOLVERS),
    "dynamics.distance": ("dynamics.Trajectory.sup_h_distance", "dynamics.Trajectory.sup_distance"),
    "ldp.objective": ("ldp.action_objective_and_gradient", "ldp.action_objective"),
    "ldp.gradient": ("ldp.action_objective_and_gradient",),
    "experiments.validate": ("experiments.ExperimentConfig.from_dict",),
    "experiments.runner": ("experiments.run",),
    "experiments.write": ("experiments.write_csv_atomic", "experiments.write_json_atomic"),
}

# name -> (forward?, kind, default axes); kind is c2c, r2c or c2r.
FFTS = {
    "fft": (True, "c2c", (-1,)), "ifft": (False, "c2c", (-1,)),
    "fft2": (True, "c2c", (-2, -1)), "ifft2": (False, "c2c", (-2, -1)),
    "fftn": (True, "c2c", None), "ifftn": (False, "c2c", None),
    "rfft": (True, "r2c", (-1,)), "irfft": (False, "c2r", (-1,)),
    "rfft2": (True, "r2c", (-2, -1)), "irfft2": (False, "c2r", (-2, -1)),
    "rfftn": (True, "r2c", None), "irfftn": (False, "c2r", None),
}


def _objective_name(args, kwargs):
    want = kwargs.get("want_gradient", args[5] if len(args) > 5 else True)
    return "ldp.action_objective_and_gradient" if want else "ldp.action_objective"


class Tracer:
    """Install with ``with Tracer() as tr:`` after sns2d is imported."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name id, start, end, parent index or -1)
        self.stack = []
        self.draw_inside = defaultdict(float)  # span index -> draw seconds
        self.fft_calls = Counter()
        self.normals = 0
        self.draw_s = 0.0
        self.steps = 0
        self.missing = []
        self._undo = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        spanned = [(importlib.import_module(m), m.split(".", 1)[1], attr) for m, attr in SPANNED]
        mods = [m for n, m in list(sys.modules.items()) if n == "sns2d" or n.startswith("sns2d.")]
        for mod, short, attr in spanned:
            if "." in attr:
                self._wrap_method(mod, attr, f"{short}.{attr}")
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod.__name__}.{attr}")
                continue
            name_of = _objective_name if attr == "action_objective_and_gradient" else None
            self._rebind(mods, orig, self._span(f"{short}.{attr}", orig, name_of, attr in SOLVERS))
        import scipy.fft

        for lib in (scipy.fft, np.fft):
            for name in FFTS:
                orig = getattr(lib, name)
                self._rebind(mods + [lib], orig, self._count_fft(name, orig))
        self._count_normals(importlib.import_module("sns2d.noise").RngStream)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def _rebind(self, mods, orig, wrapper):
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, mod, dotted, name):
        clsname, attr = dotted.split(".")
        cls = getattr(mod, clsname, None)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if raw is None:
            self.missing.append(f"{mod.__name__}.{dotted}")
            return
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._span(name, raw.__func__))
        else:
            wrapper = self._span(name, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn, name_of=None, count_steps=False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        fixed = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if name_of is None else self._name_id(name_of(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if count_steps:
                self.steps += result.n_steps
            return result

        return wrapper

    def _count_fft(self, name, fn):
        calls = self.fft_calls

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            axes = kwargs.get("axes", kwargs.get("axis", args[1] if len(args) > 1 else None))
            if isinstance(axes, (list, tuple)):
                axes = tuple(axes)
            elif axes is not None:
                axes = (axes,)
            x = np.asarray(x)
            calls[(name, x.shape, x.itemsize, out.shape, out.itemsize, axes)] += 1
            return out

        return wrapper

    def _count_normals(self, rng_stream_cls):
        tracer, clock = self, time.perf_counter

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                t0 = clock()
                r = super().standard_normal(size, dtype, out)
                dt = clock() - t0
                tracer.normals += int(np.size(r))
                tracer.draw_s += dt
                if tracer.stack:
                    tracer.draw_inside[tracer.stack[-1]] += dt
                return r

        orig = rng_stream_cls.__dict__["generator"]

        @functools.wraps(orig)
        def generator(stream):
            return CountingGenerator(orig(stream).bit_generator)

        self._undo.append((rng_stream_cls, "generator", orig))
        rng_stream_cls.generator = generator

    # -- results -----------------------------------------------------------

    def span_table(self):
        """Per span name: calls, total seconds, self seconds, durations."""
        child = defaultdict(float)
        for nid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = {}
        for idx, (nid, t0, t1, parent) in enumerate(self.spans):
            row = table.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            dur = t1 - t0
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[idx] - self.draw_inside[idx]
            row["durations"].append(dur)
        return table

    def fft_summary(self):
        """FFT calls, points, computed flops and bytes; also by transform size.

        Points count the values on the spectral side (half of them for a real
        transform).  Flops are the usual 5 N log2 N per complex transform of N
        points (2.5 N log2 N for a real one); bytes are input plus output.
        Both are computed from shapes, not measured.
        """
        total = Counter()
        by_size = defaultdict(Counter)
        for (name, in_shape, in_item, out_shape, out_item, axes), n in self.fft_calls.items():
            forward, kind, default = FFTS[name]
            spectral = in_shape if kind == "c2r" else out_shape
            real = out_shape if kind == "c2r" else (in_shape if kind == "r2c" else out_shape)
            axes = axes or default or tuple(range(len(real)))
            lengths = [real[a] for a in axes]
            size = math.prod(lengths)
            batch = math.prod(real) // size
            per = 5.0 if kind == "c2c" else 2.5
            label = "x".join(map(str, lengths))
            stats = {
                "fwd_calls" if forward else "inv_calls": n,
                "points": n * math.prod(spectral),
                "flops": n * batch * per * size * math.log2(size) if size > 1 else 0.0,
                "bytes": n * (math.prod(in_shape) * in_item + math.prod(out_shape) * out_item),
            }
            total.update(stats)
            by_size[label].update(stats)
        return total, {k: dict(v) for k, v in sorted(by_size.items())}


def percentile(values, q):
    """Linear-interpolated percentile (0 for an empty list)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q))


def layer_metrics(tracer):
    """Per-layer metrics of one traced execution, as {name: (value, unit)}."""
    table = tracer.span_table()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def layer(name):
        rows = [table.get(s, empty) for s in LAYERS[name]]
        return {k: sum(r[k] for r in rows) for k in ("calls", "total_s", "self_s")}

    m = {}
    for name, fields in (
        ("nonlinear.b_core", ("calls", "self_s", "total_s")),
        ("nonlinear.adjoint", ("calls", "self_s", "total_s")),
        ("nonlinear.tensor_product", ("calls", "total_s")),
        ("fields.to_grid", ("calls", "self_s")),
        ("spectral.lp_norm", ("calls", "self_s")),
        ("spectral.besov_norm", ("calls", "self_s")),
    ):
        vals = layer(name)
        for f in fields:
            m[f"{name}.{f}"] = (vals[f], "count" if f == "calls" else "s")
    fft, _ = tracer.fft_summary()
    m["fft.fwd.calls"] = (fft["fwd_calls"], "count")
    m["fft.inv.calls"] = (fft["inv_calls"], "count")
    m["fft.points"] = (fft["points"], "count")
    m["fft.flops_computed"] = (fft["flops"], "flop")
    m["fft.bytes_computed"] = (fft["bytes"], "B")
    m["noise.normals"] = (tracer.normals, "count")
    m["noise.draw_s"] = (tracer.draw_s, "s")
    m["noise.ns_per_normal"] = (1e9 * tracer.draw_s / tracer.normals if tracer.normals else 0.0, "ns")
    solve = layer("dynamics.solve")
    paths_ms = [1e3 * d for d in table.get("dynamics.solve_controlled", empty)["durations"]]
    m["dynamics.steps"] = (tracer.steps, "count")
    m["dynamics.solve.calls"] = (solve["calls"], "count")
    m["dynamics.solve.self_s"] = (solve["self_s"], "s")
    m["dynamics.path_ms.p50"] = (percentile(paths_ms, 50), "ms")
    m["dynamics.path_ms.p90"] = (percentile(paths_ms, 90), "ms")
    m["dynamics.distance_s"] = (layer("dynamics.distance")["total_s"], "s")
    objective = layer("ldp.objective")
    m["ldp.objective.calls"] = (objective["calls"], "count")
    m["ldp.gradient.calls"] = (layer("ldp.gradient")["calls"], "count")
    m["ldp.objective.self_s"] = (objective["self_s"], "s")
    m["experiments.validate_s"] = (layer("experiments.validate")["total_s"], "s")
    m["experiments.runner.self_s"] = (layer("experiments.runner")["self_s"], "s")
    m["experiments.write_s"] = (layer("experiments.write")["total_s"], "s")
    return m
