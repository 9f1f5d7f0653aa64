"""Colored noise model: covariance weights, exact OU sampling, renormalization.

The noise covariance acts diagonally on the divergence-free basis with
weights lambda_k = (1 + delta |k|^(2 gamma))^(-1/2); delta sets the
correlation scale (delta -> 0 approaches space-time white noise) and the
overall strength is sqrt(epsilon).

Every normal is drawn by ``unit_complex_normals``, into one array or in
parts.  With a generator per row it has one layout: each row draws its steps'
(2, n) streams in turn, one step for a (rows, n) draw and a chunk of a
march's steps for (rows, k, n).  Its part form hands out the scaled pieces
of a draw's real half and then of its imaginary half as they are drawn, so
that ``drawn_l2_powers`` reduces each sample's squared L^2 norm, of a
stationary draw or of an OU step, and ``wick_diagonal`` renorm's weighted
Wick sums, while holding one piece of SAMPLES_PER_CALL reals and no half of
the draw.  Only this module reads the parts, and it imports nothing of the
package but ``grid``.

Nothing here keeps state between calls: draws from separate generators may
run on separate threads, which the harness does with the members of its
``ou_checks`` and ``lp_moment`` runs, and a noisy march with its step noise,
drawn ahead on a helper thread where there are two cores or more.  Both
size themselves by ``usable_cores``.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .grid import SAMPLES_PER_CALL

# 1/sqrt(2) as numpy's complex division by sqrt(2) applies it
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class PowerSchedule:
    """Correlation schedule delta(eps) = scale * eps^exponent."""

    exponent: float
    scale: float = 1.0

    def __call__(self, epsilon: float) -> float:
        return self.scale * epsilon**self.exponent


def schedule_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "power":
        return PowerSchedule(
            exponent=float(d["exponent"]), scale=float(d.get("scale", 1.0))
        )
    raise ValueError(f"unknown schedule kind {kind!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise parameters at one working point.

    epsilon: noise strength (variance scale), > 0 in stochastic runs.
    delta:   correlation scale, >= 0 (0 is space-time white noise).
    gamma:   smoothing exponent, > 0.
    All three must be finite.
    """

    epsilon: float
    delta: float
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "delta"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # also refuses NaN
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")

    @classmethod
    def at_epsilon(cls, epsilon, schedule, gamma=1.0):
        return cls(epsilon=epsilon, delta=schedule(epsilon), gamma=gamma)


def validate_vanishing_schedule(schedule, epsilons):
    """Check delta(eps) > 0 and decreasing along a descending epsilon sweep."""
    eps = sorted(epsilons, reverse=True)
    deltas = [schedule(e) for e in eps]
    if any(d <= 0 for d in deltas):
        raise ValueError("schedule must produce positive delta(eps)")
    for a, b in zip(deltas, deltas[1:]):
        if not b < a:
            raise ValueError(
                "schedule must satisfy delta(eps) -> 0: "
                f"delta is not decreasing along the sweep ({a} -> {b})"
            )
    return deltas


def validate_scaling_condition(schedule, epsilons, eta, force=False):
    """Check eps * delta(eps)^(-eta) decreasing along a descending sweep.

    This is the admissibility condition for convergence measured in the H
    norm; pass force=True to run a schedule as a negative control anyway.
    """
    eps = sorted(epsilons, reverse=True)
    vals = [e * schedule(e) ** (-eta) for e in eps]
    ok = all(b < a for a, b in zip(vals, vals[1:]))
    if not ok and not force:
        raise ValueError(
            "schedule violates the scaling condition "
            "eps * delta(eps)^(-eta) -> 0 "
            f"(eta={eta}, values along sweep: {vals}); "
            "pass force=True to run it as a negative control"
        )
    return vals


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream_id) fixes every draw.

    stream_id is a tuple so substreams can be derived without collisions;
    ``child(i)`` appends i.  The replica-level Monte Carlo entry points take
    an RngStream (stateless: a fresh generator per call, and a path that
    names the replica); the low-level samplers also take a numpy Generator
    (stateful: consumed sequentially).
    """

    seed: int
    stream_id: tuple = ()

    def __post_init__(self):
        sid = self.stream_id
        if isinstance(sid, int):
            sid = (sid,)
        object.__setattr__(self, "stream_id", tuple(int(i) for i in sid))

    def child(self, i: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + (int(i),))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream_id)
        return np.random.default_rng(ss)


def require_stream(rng) -> RngStream:
    """The stream of a replica-level Monte Carlo entry point; a bare seed or
    a Generator has no path to derive replicas from, so it is refused."""
    if not isinstance(rng, RngStream):
        raise TypeError(f"expected an RngStream, got {type(rng).__name__}")
    return rng


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"expected RngStream, Generator or int seed, got {type(rng)}")


def usable_cores() -> int:
    """Cores this process may run on: the harness's member pool and the
    march's draw-ahead thread run only where there are two or more."""
    return len(os.sched_getaffinity(0))


def unit_complex_normals(gen, shape, std=None, parts=False, out=None, buf=None):
    """Complex normals with E|z|^2 = 1 (independent real/imag parts), times
    std: a scalar or one real per entry of the last axis.  This is the one
    place in the package that draws normals.

    gen draws the (2, *shape) stream of standard normals in order, real
    parts first, then imaginary parts.  Each part is scaled by 1/sqrt(2) and
    then by std, the same two roundings as (xi[0] + 1j*xi[1]) / sqrt(2)
    times std in complex arithmetic, so the result is that one bit for bit.
    The normals pass through one buffer of at most SAMPLES_PER_CALL reals;
    no complex temporary is made.  out, a C-ordered complex128 array of that
    shape, receives the result in place of a new array.

    gen may also be one generator per row of the leading axis.  For a shape
    (rows, k, n) each row's generator draws its k per-step (2, n) streams in
    turn, in one call, so a row's k steps are the k one-step draws (rows, n)
    would give it, bit for bit; (rows, n) is k = 1 (the axes between count
    as steps, in C order).  The normals land in buf, a float64 array
    (rows, k, 2, n) whose rows are C-ordered, made here when not given: a
    draw on another thread is handed one made on the calling thread.  Only
    each row of out need be C-ordered, such as a march's slots out[:, s:s + k].

    With parts=True, gen is one generator and the result is an iterator over
    (part, first row, first column, piece) of that same array, flattened to
    (rows, shape[-1]): part 0 is its real half and part 1 its imaginary
    half, each handed out as it is drawn and scaled, in pieces of at most
    SAMPLES_PER_CALL reals (whole rows, or one row's columns where a row
    outgrows that).  The draw holds one piece; each piece is overwritten by
    the next.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    n = shape[-1]
    scale = None if std is None else np.asarray(std, dtype=np.float64)
    per_row = not isinstance(gen, np.random.Generator)

    def halves():
        """(part, first row, first column, piece) of gen's draw, as drawn."""
        rows = math.prod(shape[:-1])
        if rows * n == 0:
            return
        width = min(n, SAMPLES_PER_CALL)
        depth = min(rows, SAMPLES_PER_CALL // width)
        piece_buf = np.empty(depth * width)
        col_scale = None if scale is None else np.broadcast_to(scale, (n,))
        for part in (0, 1):
            for lo in range(0, rows, depth):
                d = min(depth, rows - lo)
                for c in range(0, n, width):
                    w = min(width, n - c)
                    piece = piece_buf[: d * w].reshape(d, w)
                    gen.standard_normal(out=piece)
                    piece *= _INV_SQRT2
                    if col_scale is not None:
                        piece *= col_scale[c : c + w]
                    yield part, lo, c, piece

    if parts:
        if per_row:
            raise TypeError("a draw in parts takes one generator")
        return halves()
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif (
        out.shape != shape
        or out.dtype != np.complex128
        or not (out.flags.c_contiguous or per_row and out[:1].flags.c_contiguous)
    ):
        raise ValueError(
            f"out must be a C-ordered complex128 array of shape {shape}"
            + (", or one whose rows are" if per_row else "")
        )
    if not per_row:
        flat = out.reshape(-1, n)
        for part, lo, c, piece in halves():
            half = flat.imag if part else flat.real
            half[lo : lo + len(piece), c : c + piece.shape[1]] = piece
        return out
    gens = list(gen)
    if len(gens) != shape[0]:
        raise ValueError(f"{len(gens)} generators for {shape[0]} rows")
    raw = (shape[0], math.prod(shape[1:-1]), 2, n)
    if buf is None:
        buf = np.empty(raw)
    elif buf.shape != raw or buf.dtype != np.float64 or not buf[:1].flags.c_contiguous:
        raise ValueError(
            f"buf must be a C-ordered float64 array of shape {raw}, or one whose rows are"
        )
    for g, stream in zip(gens, buf):
        g.standard_normal(out=stream)
    buf *= _INV_SQRT2
    if scale is not None:
        buf *= scale
    # a view: each row of out is C-ordered
    dest = out.reshape(raw[:2] + (n,))
    dest.real = buf[:, :, 0]
    dest.imag = buf[:, :, 1]
    return out


def covariance_weights(grid, spec: NoiseSpec) -> np.ndarray:
    """lambda_k = (1 + delta |k|^(2 gamma))^(-1/2) over the stored half-lattice."""
    return 1.0 / np.sqrt(1.0 + spec.delta * grid.ksq**spec.gamma)


def _lambda_sq(grid, spec: NoiseSpec) -> np.ndarray:
    """lambda_k^2 = 1 / (1 + delta |k|^(2 gamma)); covariance_weights squared rounds otherwise."""
    return 1.0 / (1.0 + spec.delta * grid.ksq**spec.gamma)


def mode_variances(grid, spec: NoiseSpec, alpha: float = 0.0) -> np.ndarray:
    """Stationary OU variance eps lambda_k^2 / (2(|k|^2 + alpha)) per stored mode."""
    return spec.epsilon * _lambda_sq(grid, spec) / (2.0 * (grid.ksq + alpha))


def l2_moment_exact(grid, spec: NoiseSpec) -> float:
    """E |z|_{L^2}^2 for the stationary process at the grid truncation."""
    return 2.0 * float(np.sum(mode_variances(grid, spec)))


def stationary_std(grid, spec: NoiseSpec, alpha: float = 0.0) -> np.ndarray:
    return np.sqrt(mode_variances(grid, spec, alpha))


def stationary_batch(grid, spec, alpha, gen, replicas: int, out=None):
    """(replicas, n_modes) array of independent stationary samples, in out
    if given."""
    std = stationary_std(grid, spec, alpha)
    return unit_complex_normals(gen, (replicas, grid.n_modes), std, out=out)


def ou_transition(grid, spec: NoiseSpec, alpha: float, dt: float):
    """Per-mode exact OU transition: (decay multiplier, injected std)."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    rate = grid.ksq + alpha
    decay = np.exp(-rate * dt)
    var = spec.epsilon * _lambda_sq(grid, spec) * (-np.expm1(-2.0 * rate * dt)) / (2.0 * rate)
    return decay, np.sqrt(var)


def ou_step(z, spec: NoiseSpec, alpha: float, dt: float, rng):
    """One exact OU transition of the SpectralField z: z <- decay * z +
    Gaussian with the exact step variance, so stationarity is preserved
    exactly in law."""
    gen = as_generator(rng)
    decay, std = ou_transition(z.grid, spec, alpha, dt)
    g = unit_complex_normals(gen, z.grid.n_modes, std)
    return z.with_coeffs(decay * z.coeffs + g)


def drawn_l2_powers(gen, rows: int, std, decay=None, start=None) -> np.ndarray:
    """|z|_{L^2}^2 = 2 sum_k |z_k|^2 of each row of the draw
    unit_complex_normals(gen, (rows, len(std)), std), or of decay * start +
    that draw for an OU step from start (rows, n_modes), which is left as it
    is.  Each piece of the draw's parts is reduced as it is drawn, to
    2 (sum_k Re(z_k)^2 + sum_k Im(z_k)^2) per row; a row sums its real part,
    then its imaginary part, piece by piece.  Only one piece of the draw and
    its share of decay * start are held, never a half of the draw."""
    out = np.zeros(rows)
    for part, lo, c, piece in unit_complex_normals(gen, (rows, len(std)), std, parts=True):
        d, w = piece.shape
        if start is not None:
            half = start.imag if part else start.real
            piece += decay[c : c + w] * half[lo : lo + d, c : c + w]
        out[lo : lo + d] += np.sum(np.square(piece, out=piece), axis=1)
    out *= 2.0
    return out


def mode_square_sums(Z: np.ndarray) -> np.ndarray:
    """sum over the rows of Z (rows, n_modes) of |Z|^2 per mode, the bits of
    np.sum(np.abs(Z) ** 2, axis=0), in row blocks of SAMPLES_PER_CALL reals.
    That sum adds the rows in order; each block's first row carries the sum
    of the rows before it, so the blocks add them in the same order."""
    acc = np.zeros(Z.shape[-1])
    rows = max(1, SAMPLES_PER_CALL // Z.shape[-1])
    for lo in range(0, len(Z), rows):
        power = np.abs(Z[lo : lo + rows])
        np.square(power, out=power)
        power[0] += acc
        acc = np.sum(power, axis=0)
    return acc


def chunk_sizes(total):
    """Batch sizes of the chunked stationary draws: 2000 at a time."""
    return [min(2000, total - done) for done in range(0, total, 2000)]


def wick_diagonal(g, spec, gen, replicas, keep, weights, shift):
    """sum_k w_k |Z_k|^2 - shift over the modes in keep, for each weight
    vector w, of each of replicas stationary samples Z that gen draws in the
    batches of chunk_sizes: an array (len(weights), replicas).  Each piece of
    a batch's parts adds its weighted squares into its rows' sums as it is
    drawn, as ``drawn_l2_powers`` reduces them, so the loop holds one piece
    of SAMPLES_PER_CALL reals, not the batch (17.4 MB at cutoff 16)."""
    W = np.zeros((len(weights), g.n_modes))
    W[:, keep] = weights
    out = np.zeros((len(weights), replicas))
    std = stationary_std(g, spec, 0.0)
    done = 0
    for m in chunk_sizes(replicas):
        for _, lo, c, piece in unit_complex_normals(gen, (m, g.n_modes), std, parts=True):
            d, w = piece.shape
            out[:, done + lo : done + lo + d] += W[:, c : c + w] @ np.square(piece, out=piece).T
        done += m
    return out - shift


# ---------------------------------------------------------------------------
# renormalization constant


class RenormTailError(ValueError):
    def __init__(self, message, required_cutoff):
        super().__init__(message)
        self.required_cutoff = required_cutoff


def _bare_renorm_sum(delta: float, gamma: float, cutoff: int) -> float:
    """sum over 0 < max|k_i| <= cutoff of 1/(|k|^2 (1 + delta |k|^(2 gamma)))."""
    r = np.arange(-cutoff, cutoff + 1)
    ksq = (r[:, None] ** 2 + r[None, :] ** 2).astype(np.float64)
    ksq[cutoff, cutoff] = np.inf
    return float(np.sum(1.0 / (ksq * (1.0 + delta * ksq**gamma))))


def _coth(x):
    # coth(x) = 1 + 2/(e^(2x) - 1); safe against overflow (-> 1)
    with np.errstate(over="ignore"):
        return 1.0 + 2.0 / np.expm1(2.0 * x)


def _axis_tail(w2: np.ndarray, cutoff: int) -> np.ndarray:
    """sum_{b > cutoff} 1/(w^2 + b^2) for each w^2 >= 0, via the coth series."""
    b = np.arange(1, cutoff + 1, dtype=np.float64)
    partial = np.sum(1.0 / (w2[:, None] + b[None, :] ** 2), axis=1)
    out = np.empty_like(w2)
    zero = w2 == 0.0
    w = np.sqrt(np.where(zero, 1.0, w2))
    full_half = (np.pi * _coth(np.pi * w) / w - 1.0 / np.where(zero, 1.0, w2)) / 2.0
    out[~zero] = full_half[~zero] - partial[~zero]
    out[zero] = np.pi**2 / 6.0 - partial[zero]
    return out


def _tail_gamma_one(delta: float, cutoff: int):
    """Exact-to-roundoff tail of the renormalization sum for gamma = 1.

    Splits 1/(x(1+delta x)) = 1/x - 1/(x + 1/delta); the |k2| > C strip is
    summed with the closed-form cotangent series, the |k1| > C strip with
    Euler-Maclaurin after collapsing the k2 direction analytically.
    Returns (tail, error_estimate).
    """
    s = 1.0 / delta
    C = cutoff
    A = C + 1.0
    f = lambda a: np.pi / a - np.pi / np.sqrt(a * a + s)
    fp = lambda a: -np.pi / a**2 + np.pi * a * (a * a + s) ** -1.5
    fppp = (
        lambda a: -6.0 * np.pi / a**4
        - 9.0 * np.pi * a * (a * a + s) ** -2.5
        + 15.0 * np.pi * a**3 * (a * a + s) ** -3.5
    )
    integral = np.pi * np.log((A + np.sqrt(A * A + s)) / (2.0 * A))
    strip1 = 2.0 * (integral + f(A) / 2.0 - fp(A) / 12.0 + fppp(A) / 720.0)
    a = np.arange(-C, C + 1, dtype=np.float64)
    strip2 = 2.0 * float(np.sum(_axis_tail(a * a, C) - _axis_tail(a * a + s, C)))
    # next Euler-Maclaurin term is f^(5)(A)/30240; |f^(5)| <= ~300 pi / A^6
    err = 2.0 * 300.0 * np.pi / A**6 / 30240.0 + 1e-15 * abs(strip1 + strip2)
    return strip1 + strip2, err


_EM_STENCIL_1 = (np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0)
_EM_STENCIL_3 = (np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0)


def _em_tail_sum(f, start, integral):
    """sum_{n >= start} f(n) via Euler-Maclaurin with stencil derivatives.

    ``integral`` must equal int_start^inf f; the first and third derivative
    corrections are taken from 7-point finite differences (f is smooth and
    slowly varying at the boundary, so unit-step stencils are ample).
    Returns (value, remainder_estimate).
    """
    pts = np.array([f(start + j) for j in range(-3, 4)])
    d1 = float(np.dot(_EM_STENCIL_1, pts))
    d3 = float(np.dot(_EM_STENCIL_3, pts))
    value = integral + pts[3] / 2.0 - d1 / 12.0 + d3 / 720.0
    return value, abs(d3) / 720.0 * 0.1 + 1e-15 * abs(value)


def _tail_generic(delta: float, gamma: float, cutoff: int):
    """Tail for general gamma: quadrature integrals plus Euler-Maclaurin
    boundary corrections (float arithmetic; error well below 1e-9 for the
    cutoffs used here)."""
    from scipy.integrate import quad

    C = cutoff

    def h(x):
        return 1.0 / (x * (1.0 + delta * x**gamma))

    def psi(a):
        # sum over the free axis collapses to an integral for a > cutoff
        val, _ = quad(lambda y: h(a * a + y * y), 0, np.inf, limit=200)
        return 2.0 * val

    # int_{a >= A} int_{b in R} h(a^2 + b^2) in polar form:
    # int_A^inf 2 arccos(A/r) h(r^2) r dr, split to isolate the sqrt edge
    A = C + 1.0
    wedge = lambda r: 2.0 * np.arccos(np.minimum(1.0, A / r)) * h(r * r) * r
    near, near_err = quad(wedge, A, 2.0 * A, limit=200)
    far, far_err = quad(wedge, 2.0 * A, np.inf, limit=200)
    strip1, err1 = _em_tail_sum(psi, C + 1, near + far)
    strip1 *= 2.0
    err1 = 2.0 * (err1 + near_err + far_err)

    strip2 = 0.0
    err2 = 0.0
    for a in range(-C, C + 1):
        fa = lambda b: h(a * a + b * b)
        integral, _ = quad(fa, C + 1, np.inf, limit=200)
        val, err = _em_tail_sum(fa, C + 1, integral)
        strip2 += 2.0 * val
        err2 += 2.0 * err
    total = strip1 + strip2
    return total, err1 + err2 + 1e-13 * abs(total)


@functools.lru_cache(maxsize=None)
def _renorm_tail(delta: float, gamma: float, cutoff: int):
    """(tail, error estimate) of the lattice sum beyond the cutoff."""
    if gamma == 1.0:
        return _tail_gamma_one(delta, cutoff)
    return _tail_generic(delta, gamma, cutoff)


@functools.lru_cache(maxsize=None)
def _renorm_value(delta: float, gamma: float, cutoff: int, with_tail: bool):
    bare = _bare_renorm_sum(delta, gamma, cutoff)
    if not with_tail:
        return bare / (16.0 * math.pi**2)
    return (bare + _renorm_tail(delta, gamma, cutoff)[0]) / (16.0 * math.pi**2)


def check_renorm_tail(delta, gamma, cutoff, tail_tol):
    """Raise RenormTailError, naming the cutoff required, where the tail
    estimate beyond cutoff exceeds tail_tol; renorm_constant's own check,
    without the sum up to the cutoff."""
    err = _renorm_tail(float(delta), float(gamma), int(cutoff))[1] / (16.0 * math.pi**2)
    if err > tail_tol:
        needed = int(math.ceil((cutoff + 1) * (err / tail_tol) ** (1.0 / 6.0)))
        raise RenormTailError(
            f"tail estimate {err:.3e} exceeds tail_tol {tail_tol:.3e} at "
            f"cutoff {cutoff}; approximately cutoff >= {needed} required",
            required_cutoff=needed,
        )


def renorm_constant(delta, gamma=1.0, cutoff=128, tail_tol=None) -> float:
    """Renormalization constant theta_delta.

    theta_delta = 1/(2 (2 pi)^2) sum_k k1^2/|k|^4 lambda_k(delta)^2, computed
    in the symmetrized form (1/(16 pi^2)) sum_k lambda_k^2/|k|^2, which makes
    the k1^2- and k2^2-weighted versions equal by construction.

    With tail_tol=None the sum runs over the truncated lattice
    max(|k_i|) <= cutoff only (the consistent constant for fields living at
    that truncation).  With a tolerance the lattice tail beyond the cutoff is
    added via an analytically corrected estimate; if the estimated residual
    exceeds tail_tol a RenormTailError reports the required cutoff.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if tail_tol is not None:
        check_renorm_tail(delta, gamma, cutoff, tail_tol)
    return _renorm_value(float(delta), float(gamma), int(cutoff), tail_tol is not None)


# ---------------------------------------------------------------------------
# lattice sums with tail estimates


# besov_moment_check reads the same sum once per sweep member
@functools.lru_cache(maxsize=None)
def lattice_sum(exponent, delta=0.0, gamma=1.0, weight_power=1.0, cutoff=512) -> float:
    """sum over 0 < max|k_i| <= cutoff of |k|^exponent (1 + delta |k|^(2 gamma))^(-weight_power)."""
    r = np.arange(-cutoff, cutoff + 1)
    ksq = (r[:, None] ** 2 + r[None, :] ** 2).astype(np.float64)
    ksq[cutoff, cutoff] = np.inf
    vals = ksq ** (exponent / 2.0)
    if delta > 0:
        vals = vals / (1.0 + delta * ksq**gamma) ** weight_power
    return float(np.sum(vals))


def lattice_power_sum(exponent, delta=0.0, gamma=1.0, weight_power=1.0, cutoff=512):
    """sum over k != 0 of |k|^exponent (1 + delta |k|^(2 gamma))^(-weight_power).

    Returns (lattice_sum, integral tail estimate beyond the cutoff); only the
    tail needs scipy.integrate.
    """
    from scipy.integrate import quad

    def integrand(rr):
        v = rr ** (exponent + 1.0)
        if delta > 0:
            v /= (1.0 + delta * rr ** (2.0 * gamma)) ** weight_power
        return 2.0 * np.pi * v

    tail, _ = quad(integrand, cutoff, np.inf, limit=200)
    return lattice_sum(exponent, delta, gamma, weight_power, cutoff), float(tail)


def lambda_beta_bound(spec: NoiseSpec, beta: float, cutoff: int = 512):
    """Driver quantity eps sum_k |k|^(-2(1-2 beta)) (1 + delta |k|^(2 gamma))^(-1).

    beta must lie in (0, 1/4).  Returns (value, tail_estimate); the sweep
    experiments compare the value against c * eps * delta^(-eta) with
    beta = eta * gamma / 2.
    """
    if not (0.0 < beta < 0.25):
        raise ValueError(f"beta must lie in (0, 1/4), got {beta}")
    s, tail = lattice_power_sum(
        exponent=-2.0 * (1.0 - 2.0 * beta),
        delta=spec.delta,
        gamma=spec.gamma,
        weight_power=1.0,
        cutoff=cutoff,
    )
    return spec.epsilon * s, spec.epsilon * tail
