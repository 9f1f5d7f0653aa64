"""Norms: Sobolev, L^p and Besov."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import SpectralField, TensorField
from .grid import TWO_PI, grid_for, next_fast_len, stack_depth, transform_plan


def sobolev_norm(u: SpectralField, s: float = 0.0) -> float:
    """H^s norm (sum over the full lattice of |c_k|^2 |k|^(2s))^(1/2).

    s = 0 is the H (= L^2) norm, s = 1 the V norm.
    """
    return math.sqrt(2.0 * float(np.sum(np.abs(u.coeffs) ** 2 * u.grid.ksq**s)))


def h_norm_sq(coeffs: np.ndarray, axis=None):
    """|u|_H^2 = 2 sum_stored |c_k|^2 of raw half-lattice coefficients, the
    conjugate half counted by the factor 2; summed over ``axis``."""
    return 2.0 * np.sum(np.abs(coeffs) ** 2, axis=axis)


def h_norm_of(coeffs: np.ndarray) -> float:
    """H norm from a raw half-lattice coefficient vector."""
    return math.sqrt(h_norm_sq(coeffs))


def _power_integrals(plan, coeffs: np.ndarray, p: float, layout, grids, speed_sq):
    """Uniform-grid quadrature of |u(x)|^p over D for each complex velocity
    grid u1 + i u2 that ``plan.synthesize_packed(coeffs, layout, grids)``
    returns; one value per grid.  ``grids`` (complex, overwritten) and
    ``speed_sq`` (real) have the grids' shape."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    z = plan.synthesize_packed(coeffs, layout, grids)
    # Re^2 and Im^2 in place, then |u|^2 = Re^2 + Im^2
    parts = z.view(np.float64)
    np.square(parts, out=parts)
    speed_sq = np.add(parts[..., 0::2], parts[..., 1::2], out=speed_sq)
    # (|u|^2)^(p/2) in place: at p = 4 numpy squares instead of calling pow
    speed_sq **= p / 2
    # np.sum's own reduction, without its Python wrappers
    return np.add.reduce(speed_sq, axis=(-2, -1)) * (TWO_PI / plan.size) ** 2


def lp_powers(grid, coeffs: np.ndarray, p: float, grid_factor: int = 2) -> np.ndarray:
    """|u|_Lp^p of one state (n_modes,) or of each state of a stack
    (..., n_modes) of ``grid``; shape (...).  The one-block case of the
    block quadrature: each row gets the arithmetic of a call of its own."""
    return _group_powers(_lp_group(grid.cutoff, grid_factor), grid, coeffs, p)[..., 0]


def lp_norm(u: SpectralField, p: float, grid_factor: int = 2) -> float:
    """L^p(D) norm of the pointwise Euclidean speed |u(x)|.

    Reconstructs on an oversampled uniform grid and applies the uniform-grid
    quadrature rule; exact for p = 2 (Parseval), spectrally accurate
    otherwise.
    """
    return float(lp_powers(u.grid, u.coeffs, p, grid_factor)) ** (1.0 / p)


def block_of(ksq: float) -> int:
    """Dyadic block index q with 2^(q-1) < |k| <= 2^q (|k| = 1 lands in q = 0)."""
    q = 0
    while ksq > 4.0**q:
        q += 1
    return q


def block_count(cutoff: int) -> int:
    """Number of dyadic blocks needed to cover max(|k1|,|k2|) <= cutoff."""
    return block_of(2.0 * cutoff * cutoff) + 1


def _block_mask(ksq: np.ndarray, q: int) -> np.ndarray:
    """Modes of the annulus 2^(q-1) < |k| <= 2^q; q = 0 keeps |k| = 1."""
    return (ksq > 4.0 ** (q - 1)) & (ksq <= 4.0**q)


@dataclass(frozen=True)
class _BlockGroup:
    """Consecutive dyadic blocks of one cutoff, all integrated on one plan's
    grid.  ``stacks`` pairs the block indices (a slice) with the
    ``mode_blocks`` layout of at most ``stack_depth(plan.size)`` of the
    blocks, each block's own modes at k and -k on a (size, size) grid of its
    own, and each synthesis call takes ``states`` states times one stack."""

    plan: object
    stacks: tuple
    states: int


def block_grid_size(cutoff: int, q: int, p: float, grid_factor: int = 2) -> int:
    """Grid on which block q's |.|^p quadrature is computed.

    Block q is band-limited to |k_i| <= K_q = min(2^q, cutoff).  For an even
    integer p, |u|^p is then a trigonometric polynomial of degree p K_q in
    each variable, which the M-point trapezoid rule integrates exactly once
    M > p K_q; such a block moves to the smallest FFT-friendly grid of that
    size whenever the shared grid ``physical_size(grid_factor)`` is already
    exact for it.  Every other block stays on the shared grid.
    """
    shared = grid_for(cutoff).physical_size(grid_factor)
    band = p * min(2**q, cutoff)
    if p >= 2 and p % 2 == 0 and band < shared:
        return next_fast_len(int(band) + 1)
    return shared


@functools.lru_cache(maxsize=None)
def _block_groups(cutoff: int, grid_factor: int, p: float) -> tuple:
    """The dyadic blocks of grid_for(cutoff) grouped by ``block_grid_size``,
    one cached plan and block layout per group.

    Grid sizes grow with q, so each group is a run of consecutive blocks.  A
    group whose blocks fit one call of ``stack_depth`` grids stacks
    ``stack_depth // blocks`` states per call; a larger group takes one state
    per call, in block stacks of ``stack_depth``.
    """
    ksq = grid_for(cutoff).ksq
    sizes = [block_grid_size(cutoff, q, p, grid_factor) for q in range(block_count(cutoff))]
    groups = []
    for size in sorted(set(sizes)):
        lo, hi = sizes.index(size), len(sizes) - sizes[::-1].index(size)
        plan = transform_plan(cutoff, min(2 ** (hi - 1), cutoff), size)
        kept_ksq = ksq[plan.keep]
        depth = stack_depth(size)
        stacks = []
        for first in range(lo, hi, depth):
            cols = slice(first, min(first + depth, hi))
            masks = [_block_mask(kept_ksq, q) for q in range(cols.start, cols.stop)]
            stacks.append((cols, plan.mode_blocks(masks)))
        groups.append(_BlockGroup(plan, tuple(stacks), max(1, depth // (hi - lo))))
    return tuple(groups)


@functools.lru_cache(maxsize=None)
def _lp_group(cutoff: int, grid_factor: int) -> tuple:
    """``lp_powers``' one group: every kept mode as one block on the shared
    grid ``physical_size(grid_factor)``, ``stack_depth`` states per call."""
    plan = transform_plan(cutoff, cutoff, grid_for(cutoff).physical_size(grid_factor))
    every = plan.mode_blocks([np.ones(plan.keep.size, dtype=bool)])
    return (_BlockGroup(plan, ((slice(0, 1), every),), stack_depth(plan.size)),)


def _group_powers(groups, grid, coeffs: np.ndarray, p: float) -> np.ndarray:
    """|block|_Lp^p of each block of ``groups`` for the states (..., n_modes)
    of ``grid``; shape (..., blocks).  Each call of a group takes its
    ``states`` states times one block stack, into the complex and real grids
    of the largest call, made once: no array spans all the states."""
    flat = np.asarray(coeffs).reshape(-1, grid.n_modes)
    n_blocks = groups[-1].stacks[-1][0].stop
    out = np.empty((flat.shape[0], n_blocks))
    cells = max(
        min(group.states, len(flat)) * math.prod(layout.axes) * group.plan.size**2
        for group in groups for _, layout in group.stacks
    )
    grids, speed_sq = np.empty(cells, dtype=np.complex128), np.empty(cells)
    for group in groups:
        size = group.plan.size
        for i in range(0, len(flat), group.states):
            states = flat[i : i + group.states]
            for cols, layout in group.stacks:
                shape = (len(states),) + layout.axes + (size, size)
                n = math.prod(shape)
                out[i : i + len(states), cols] = _power_integrals(
                    group.plan, states, p, layout,
                    grids[:n].reshape(shape), speed_sq[:n].reshape(shape),
                )
    return out.reshape(np.shape(coeffs)[:-1] + (n_blocks,))


def block_powers(grid, coeffs: np.ndarray, p: float, grid_factor: int = 2) -> np.ndarray:
    """|block_q u|_Lp^p of each dyadic block of one state (n_modes,) or of a
    stack of states (..., n_modes) of ``grid``; shape (..., Q).  Each block
    is integrated on its ``block_grid_size`` grid from its own modes only;
    an empty block contributes an exact 0."""
    return _group_powers(_block_groups(grid.cutoff, grid_factor, p), grid, coeffs, p)


def besov_of_powers(powers: np.ndarray, sigma: float, p: float) -> np.ndarray:
    """(sum_q 2^(p q sigma) powers[..., q])^(1/p) for ``block_powers`` output."""
    weights = 2.0 ** (p * np.arange(powers.shape[-1]) * sigma)
    return np.sum(weights * powers, axis=-1) ** (1.0 / p)


def besov_norm(u: SpectralField, sigma: float, p: float, grid_factor: int = 2) -> float:
    """Besov norm (sum_q 2^(p q sigma) |block_q u|_Lp^p)^(1/p)."""
    return float(besov_of_powers(block_powers(u.grid, u.coeffs, p, grid_factor), sigma, p))


def tensor_sobolev_norm(t: TensorField, sigma: float) -> float:
    """Four-component Sobolev norm of a tensor field.

    Uses bracket weights (1 + |k|^2)^sigma on the full scalar lattice so the
    constant mode participates with weight one; coefficients are measured in
    the orthonormal scalar basis exp(ik.x)/(2pi).  Coincides with the usual
    Sobolev norm up to the equivalence constants of the convention.
    """
    n = t.grid.cutoff
    freqs = np.arange(-n, n + 1, dtype=np.float64)
    ksq = freqs[:, None] ** 2 + freqs[None, :] ** 2
    w = (1.0 + ksq) ** sigma
    total = np.sum(np.abs(t.comps) ** 2 * w[None, None, :, :])
    return float(TWO_PI * math.sqrt(float(total)))


@dataclass(frozen=True)
class BesovParams:
    """Exponents for trajectory-space Besov norms.

    ``sigma`` (< 0) and ``p`` set the space the sup-in-time distance is
    measured in; ``alpha`` and ``beta`` set the auxiliary time-integrated
    norm.  ``validate`` enforces the admissible window used by the
    convergence experiments.
    """

    sigma: float
    p: float
    alpha: float
    beta: float

    def validate(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        floor = max(-2.0 / self.p, 2.0 / self.p - 1.0)
        if not (self.sigma > floor):
            raise ValueError(
                f"sigma must satisfy sigma > max(-2/p, 2/p - 1) = {floor}; "
                f"got sigma={self.sigma}, p={self.p}"
            )
        if not (self.sigma < 0.0):
            raise ValueError(f"sigma must be negative, got {self.sigma}")
        if not (2.0 / self.p > self.alpha > -self.sigma > 0.0):
            raise ValueError(
                "alpha must satisfy 2/p > alpha > -sigma > 0; "
                f"got alpha={self.alpha}, sigma={self.sigma}, p={self.p}"
            )
        if self.beta < 2:
            raise ValueError(f"beta must be >= 2, got {self.beta}")
        mid = self.alpha / 2.0 - 1.0 / self.beta
        if not (-0.5 + 1.0 / self.p < mid < self.sigma / 2.0):
            raise ValueError(
                "alpha, beta must satisfy -1/2 + 1/p < alpha/2 - 1/beta < sigma/2; "
                f"got alpha/2 - 1/beta = {mid}"
            )
        return self

    def min_initial_regularity(self) -> float:
        """Smallest Sobolev exponent required of the initial condition."""
        return self.sigma + 1.0 - 2.0 / self.p
