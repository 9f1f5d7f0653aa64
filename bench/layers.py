"""Layer sweep and machine record.

``kernel_sweep`` times single calls into each layer on their own at cutoffs
8, 16, 32 and 64: the median of ``REPEATS`` repeats, each a loop long enough
to read well above the clock's resolution, with min and max.  These are
layer metrics only; they never gate a change.

``machine`` records what the numbers were measured on, including the
BLAS/OpenMP thread settings as found (the benchmark changes none of them).
"""

import os
import platform
import statistics
import sys
import time

CUTOFFS = (8, 16, 32, 64)
KERNELS = ("b_core", "adjoint", "to_grid", "lp_norm4", "besov_norm", "step_skeleton", "ou_step", "draw")
REPEATS = 5
LOOP_S = 0.01

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _kernels(cutoff, seed):
    """name -> zero-argument call into that layer at one cutoff."""
    from sns2d.dynamics import IntegratorConfig, step_skeleton
    from sns2d.fields import SpectralField
    from sns2d.nonlinear import DealiasRule, b_core, b_linearized_adjoint_core
    from sns2d.noise import NoiseSpec, RngStream, ou_step, unit_complex_normals
    from sns2d.spectral import besov_norm, lp_norm

    stream = RngStream(seed, (cutoff,))
    u = SpectralField.random(cutoff, stream.child(0).generator(), amplitude=0.5, decay=1.0)
    w = SpectralField.random(cutoff, stream.child(1).generator(), amplitude=0.5, decay=1.0)
    gen = stream.child(2).generator()
    grid, rule = u.grid, DealiasRule.two_thirds(cutoff)
    cfg = IntegratorConfig(dt=0.01)
    spec = NoiseSpec(epsilon=0.01, delta=0.1)
    return {
        "b_core": lambda: b_core(u.coeffs, grid, rule),
        "adjoint": lambda: b_linearized_adjoint_core(u.coeffs, w.coeffs, grid, rule),
        "to_grid": lambda: u.to_grid(),
        "lp_norm4": lambda: lp_norm(u, 4.0),
        "besov_norm": lambda: besov_norm(u, -0.25, 4.0),
        "step_skeleton": lambda: step_skeleton(u, w, cfg),
        "ou_step": lambda: ou_step(u, spec, 0.0, 0.01, gen),
        # n_modes complex normals: 2 * n_modes standard normals
        "draw": lambda: unit_complex_normals(gen, grid.n_modes),
    }


def time_call(fn):
    """(median, min, max) microseconds per call over REPEATS timed loops."""
    clock = time.perf_counter
    fn()
    t0 = clock()
    fn()
    loops = max(1, int(LOOP_S / max(clock() - t0, 1e-7)))
    samples = []
    for _ in range(REPEATS):
        t0 = clock()
        for _ in range(loops):
            fn()
        samples.append(1e6 * (clock() - t0) / loops)
    return statistics.median(samples), min(samples), max(samples)


def kernel_sweep(seed):
    """{"kernel.<name>.N<n>.us": (median, min, max)} for every kernel and cutoff."""
    out = {}
    for cutoff in CUTOFFS:
        for name, fn in _kernels(cutoff, seed).items():
            out[f"kernel.{name}.N{cutoff}.us"] = time_call(fn)
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name") for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        return None


def machine():
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }
