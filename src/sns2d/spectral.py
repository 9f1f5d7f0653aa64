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


def _power_integrals(plan, coeffs: np.ndarray, p: float, symbols: np.ndarray = None):
    """Uniform-grid quadrature of |u(x)|^p over D for each complex velocity
    grid u1 + i u2 that ``plan.synthesize_packed(coeffs, symbols)`` returns;
    one value per grid."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    z = plan.synthesize_packed(coeffs, symbols)
    # (|u|^2)^(p/2): at p = 4 numpy squares instead of calling pow
    speed_sq = z.real**2 + z.imag**2
    return np.sum(speed_sq ** (p / 2), axis=(-2, -1)) * (TWO_PI / plan.size) ** 2


def lp_powers(grid, coeffs: np.ndarray, p: float, grid_factor: int = 2) -> np.ndarray:
    """|u|_Lp^p of one state (n_modes,) or of each state of a stack
    (..., n_modes) of ``grid``; shape (...).

    Each synthesis call takes at most ``stack_depth`` states, and each row
    gets the arithmetic of a call of its own.
    """
    plan = transform_plan(grid.cutoff, grid.cutoff, grid.physical_size(grid_factor))
    flat = np.asarray(coeffs).reshape(-1, grid.n_modes)
    depth = stack_depth(plan.size)
    out = np.empty(len(flat))
    for i in range(0, len(flat), depth):
        out[i : i + depth] = _power_integrals(plan, flat[i : i + depth], p)
    return out.reshape(np.shape(coeffs)[:-1])


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
    grid.  ``stacks`` pairs the block indices (a slice) with the packed
    velocity symbols (blocks, 2, n_kept) of at most ``stack_depth(plan.size)``
    of the blocks, and each synthesis call takes ``states`` states times one
    stack."""

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
    one cached plan and symbol stack per group.

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
        masks = np.stack([_block_mask(ksq[plan.keep], q) for q in range(lo, hi)])
        symbols = masks[:, None, :] * plan.velocity_packed
        symbols.flags.writeable = False
        depth = stack_depth(size)
        stacks = tuple(
            (slice(lo + i, min(lo + i + depth, hi)), symbols[i : i + depth])
            for i in range(0, hi - lo, depth)
        )
        groups.append(_BlockGroup(plan, stacks, max(1, depth // (hi - lo))))
    return tuple(groups)


def block_powers(grid, coeffs: np.ndarray, p: float, grid_factor: int = 2) -> np.ndarray:
    """|block_q u|_Lp^p of each dyadic block of one state (n_modes,) or of a
    stack of states (..., n_modes) of ``grid``; shape (..., Q).

    Each block is integrated on its ``block_grid_size`` grid; each synthesis
    call of a ``_block_groups`` group holds its ``states`` states times one
    block stack.  An empty block contributes an exact 0.
    """
    flat = np.asarray(coeffs).reshape(-1, 1, grid.n_modes)
    n_blocks = block_count(grid.cutoff)
    out = np.empty((flat.shape[0], n_blocks))
    for group in _block_groups(grid.cutoff, grid_factor, p):
        for i in range(0, len(flat), group.states):
            rows = slice(i, i + group.states)
            for cols, symbols in group.stacks:
                out[rows, cols] = _power_integrals(group.plan, flat[rows], p, symbols)
    return out.reshape(np.shape(coeffs)[:-1] + (n_blocks,))


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
