"""Wavenumber bookkeeping for zero-mean fields on the periodic square [0, 2*pi]^2.

Fields live on the integer frequency lattice with the zero mode removed.
Only half of the lattice is stored: the coefficient at -k is the complex
conjugate of the coefficient at k, so the stored half determines a
real-valued field.  The stored half is {k2 > 0} union {k2 == 0, k1 > 0}.

``TransformPlan`` is the one path between stored coefficients and samples on
a uniform physical grid; every physical-space computation goes through it.
"""

import functools

import numpy as np
from scipy.fft import irfft2, next_fast_len, rfft2

TWO_PI = 2.0 * np.pi

# Real samples per synthesis call when fields are stacked into one call: the
# dyadic blocks of a Besov norm and the replicas of a Monte Carlo block.
# Bigger stacks outgrow the cache and run slower than more calls.
SAMPLES_PER_CALL = 16384


def stack_depth(size: int) -> int:
    """Velocity grids of size x size (2 * size^2 real samples each) that one
    synthesis call of SAMPLES_PER_CALL takes; one at least."""
    return max(1, SAMPLES_PER_CALL // (2 * size * size))


class SpectralGrid:
    """Square Galerkin truncation max(|k1|, |k2|) <= cutoff with half-lattice layout.

    The divergence-free orthonormal basis element attached to wavenumber k is

        e_k(x) = (i / 2*pi) * (k_perp / |k|) * exp(i k.x),   k_perp = (k2, -k1).

    The unimodular phase i makes the reality constraint the standard Hermitian
    symmetry coeff(-k) = conj(coeff(k)).  ``basis1``/``basis2`` hold the plain
    Fourier coefficients of e_k's two velocity components.
    """

    def __init__(self, cutoff: int):
        cutoff = int(cutoff)
        if cutoff < 1:
            raise ValueError(f"cutoff must be a positive integer, got {cutoff}")
        self.cutoff = cutoff
        rng = np.arange(-cutoff, cutoff + 1)
        K1, K2 = np.meshgrid(rng, rng, indexing="ij")
        K1, K2 = K1.ravel(), K2.ravel()
        half = (K2 > 0) | ((K2 == 0) & (K1 > 0))
        self.k1 = np.ascontiguousarray(K1[half])
        self.k2 = np.ascontiguousarray(K2[half])
        self.ksq = (self.k1**2 + self.k2**2).astype(np.float64)
        self.kabs = np.sqrt(self.ksq)
        self.perp1 = self.k2 / self.kabs
        self.perp2 = -self.k1 / self.kabs
        self.basis1 = (1j / TWO_PI) * self.perp1
        self.basis2 = (1j / TWO_PI) * self.perp2
        self.n_modes = self.k1.size
        self._index = None

    def __repr__(self):
        return f"SpectralGrid(cutoff={self.cutoff}, n_modes={self.n_modes})"

    @property
    def mode_index(self):
        """dict mapping stored (k1, k2) -> position in the coefficient vector."""
        if self._index is None:
            self._index = {
                (int(a), int(b)): i
                for i, (a, b) in enumerate(zip(self.k1, self.k2))
            }
        return self._index

    def physical_size(self, grid_factor: int = 2) -> int:
        """FFT-friendly physical grid size, at least 2*cutoff + 1.

        The lower bound keeps the synthesis collision-free and makes
        trapezoid quadrature of quadratic quantities exact.
        """
        if grid_factor < 2:
            raise ValueError("grid_factor must be >= 2")
        return next_fast_len(max(grid_factor * self.cutoff, 2 * self.cutoff + 1))


@functools.lru_cache(maxsize=None)
def grid_for(cutoff: int) -> SpectralGrid:
    """Shared immutable grid instance for the given truncation."""
    return SpectralGrid(cutoff)


class TransformPlan:
    """Real-FFT synthesis and analysis on a size x size grid.

    Covers the stored modes with max(|k1|, |k2|) <= kmax.  The stored half
    {k2 > 0} union {k2 == 0, k1 > 0} is the half of the spectrum ``rfft2``
    keeps, so coefficients scatter straight into its (size, size // 2 + 1)
    layout and only the k2 == 0 column needs its conjugates filled.
    """

    def __init__(self, grid: SpectralGrid, kmax: int, size: int):
        if not 1 <= kmax <= grid.cutoff:
            raise ValueError(f"band limit {kmax} invalid for cutoff {grid.cutoff}")
        if size < 2 * kmax + 1:
            # two retained modes would collide modulo size
            raise ValueError(f"physical size {size} too small for cutoff {kmax}")
        keep = (np.abs(grid.k1) <= kmax) & (np.abs(grid.k2) <= kmax)
        # the stored-mode indices of the kept modes; np.take gathers them
        # about twice as fast as a boolean mask selects them
        self.keep = slice(None) if keep.all() else np.flatnonzero(keep)
        k1, k2 = grid.k1[keep], grid.k2[keep]
        self.n_modes = grid.n_modes
        self.kmax = kmax
        self.size = size
        self.shape = (size, size // 2 + 1)
        self.pos = (k1 % size) * self.shape[1] + k2
        self.k = np.stack([k1, k2]).astype(np.float64)
        self.velocity = np.stack([grid.basis1[keep], grid.basis2[keep]])
        # symbols of the trace-free symmetric gradient grad w + grad w^T =
        # [[s, t], [t, -s]] of a divergence-free w: s = 2 d1 w1, t = d1 w2 + d2 w1
        ik1, ik2 = 1j * self.k
        v1, v2 = self.velocity
        self.strain = np.stack([2.0 * ik1 * v1, ik1 * v2 + ik2 * v1])
        # <d, e_k> = -2pi i (d1 k2 - d2 k1)/|k| for a plain vector coefficient d
        kabs = grid.kabs[keep]
        self.projection = np.stack([-TWO_PI * 1j * k2 / kabs, TWO_PI * 1j * k1 / kabs])
        self._rows = {"grid": (self.pos, self.shape[0] * self.shape[1]),
                      "modes": (np.flatnonzero(keep), grid.n_modes)}
        self._positions = {}

    def _scatter(self, out, vals, layout):
        """Write each row of vals (..., n_kept) into the same row of out at the
        kept modes' positions in ``layout``: "grid", the rfft2 layout, or
        "modes", the stored modes.  One 1-D scatter fills the whole stack; a
        scatter along the last axis of a stack runs several times slower."""
        n_rows = vals.size // vals.shape[-1]
        if (layout, n_rows) not in self._positions:
            pos, width = self._rows[layout]
            self._positions[layout, n_rows] = (np.arange(n_rows)[:, None] * width + pos).ravel()
        out.reshape(-1)[self._positions[layout, n_rows]] = vals.reshape(-1)

    def synthesize(self, coeffs: np.ndarray, symbols: np.ndarray = None, out=None) -> np.ndarray:
        """Real grids sum_k symbols[j, k] coeffs[k] exp(i k.x) + conj, one per row j.

        ``coeffs`` (..., n_modes) covers every stored mode; ``symbols``
        (default: the velocity basis, shape (2, n_kept)) covers the kept
        modes, and its leading axes index the output grids.  Returns shape
        (..., *symbols.shape[:-1], size, size), written into ``out`` when
        given.
        """
        if symbols is None:
            symbols = self.velocity
        kept = coeffs if isinstance(self.keep, slice) else np.take(coeffs, self.keep, axis=-1)
        vals = kept[..., None, :] * symbols
        work = np.zeros(vals.shape[:-1] + self.shape, dtype=np.complex128)
        self._scatter(work, vals, "grid")
        n, M = self.kmax, self.size
        # the k2 = 0 column holds k1 > 0 only; its k1 < 0 half is the conjugate
        work[..., M - n :, 0] = np.conj(work[..., n:0:-1, 0])
        grids = irfft2(work, s=(M, M), overwrite_x=True)
        return np.multiply(grids, M * M, out=grids if out is None else out)

    def analyze(self, phys: np.ndarray, with_mean: bool = False):
        """Fourier coefficients of the kept stored modes of real grids (..., size, size).

        Returns shape (..., n_kept); with ``with_mean`` also the k = 0
        coefficients, shape (...).
        """
        scale = 1.0 / (self.size * self.size)
        spec = rfft2(phys)
        # scale only the gathered coefficients, not the whole spectrum
        coeffs = np.take(spec.reshape(spec.shape[:-2] + (-1,)), self.pos, axis=-1)
        coeffs *= scale
        return (coeffs, spec[..., 0, 0] * scale) if with_mean else coeffs

    def project(self, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
        """Divergence-free part of plain vector fields given on the kept modes,
        shape (..., n_kept).

        Returns coefficients on all stored modes, (..., n_modes), zero outside
        the band.
        """
        out = np.zeros(d1.shape[:-1] + (self.n_modes,), dtype=np.complex128)
        self._scatter(out, self.projection[0] * d1 + self.projection[1] * d2, "modes")
        return out


@functools.lru_cache(maxsize=None)
def transform_plan(cutoff: int, kmax: int, size: int) -> TransformPlan:
    """Shared plan for the modes of grid_for(cutoff) within kmax on a size x size grid."""
    return TransformPlan(grid_for(cutoff), kmax, size)
