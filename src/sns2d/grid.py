"""Wavenumber bookkeeping for zero-mean fields on the periodic square [0, 2*pi]^2.

Fields live on the integer frequency lattice with the zero mode removed.
Only half of the lattice is stored: the coefficient at -k is the complex
conjugate of the coefficient at k, so the stored half determines a
real-valued field.  The stored half is {k2 > 0} union {k2 == 0, k1 > 0}.

``TransformPlan`` is the one path between stored coefficients and samples on
a uniform physical grid; every physical-space computation goes through it.
It has two layouts:

- complex grids f1 + i f2 that each carry a pair of real grids in one
  complex transform (``synthesize_packed`` and ``analyze_packed``).  The
  product kernels ``b_core``, ``b(u, v)`` and the adjoint use them, and so
  does the |u|^p quadrature of ``lp_norm`` and the Besov block powers, which
  needs only |u|^2 = Re^2 + Im^2 of the packed velocity;
- real grids, one per symbol row (``synthesize`` and ``analyze``), for
  ``SpectralField.to_grid``, which hands out the two velocity components,
  and ``tensor_product``.  The tensor stays real: the renorm run reports the
  roundoff-level gap (about 2e-17) between the Wick square's zero mode and a
  direct coefficient sum, and that recorded number moves with any change to
  the tensor's arithmetic.
"""

import functools
import threading

import numpy as np
from scipy.fft import fft2, ifft2, irfft2, next_fast_len, rfft2

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
    """FFT synthesis and analysis on a size x size grid.

    Covers the stored modes with max(|k1|, |k2|) <= kmax.  The stored half
    {k2 > 0} union {k2 == 0, k1 > 0} is the half of the spectrum ``rfft2``
    keeps, so coefficients scatter straight into its (size, size // 2 + 1)
    layout and only the k2 == 0 column needs its conjugates filled.  A
    complex grid has no Hermitian symmetry, so the packed path scatters
    each kept mode at k and at -k of the full (size, size) layout.

    The nonlinear kernels and the L^p and Besov quadrature use the packed
    path; ``to_grid`` and ``tensor_product`` use the real one.
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
        # the kept modes, then their negatives, on the full (size, size) grid
        self.full_pos = np.concatenate([(k1 % size) * size + k2 % size,
                                        (-k1 % size) * size + -k2 % size])
        self.velocity_packed = self._packed_symbols(self.velocity)
        self.strain_packed = self._packed_symbols(self.strain)
        self._rows = {"grid": (self.pos, self.shape[0] * self.shape[1]),
                      "full": (self.full_pos, size * size),
                      "modes": (np.flatnonzero(keep), grid.n_modes)}
        self._positions = {}
        # zeroed full grids per stack size, reused by the plan's calls in each
        # thread: the plan is shared, and two threads' syntheses must not
        # scatter into one grid.  Only the kept modes' positions, at k and
        # -k, are ever written, and every call writes all of them
        self._scratch = threading.local()

    def _scatter(self, out, vals, layout):
        """Write each row of vals (..., n_kept) into the same row of out at the
        kept modes' positions in ``layout``: "grid", the rfft2 layout,
        "modes", the stored modes, or "full", the fft2 layout, whose rows
        (..., 2 n_kept) hold the values at k and then at -k.  One 1-D
        scatter fills the whole stack; a scatter along the last axis of a
        stack runs several times slower."""
        n_rows = vals.size // vals.shape[-1]
        if (layout, n_rows) not in self._positions:
            pos, width = self._rows[layout]
            self._positions[layout, n_rows] = (np.arange(n_rows)[:, None] * width + pos).ravel()
        out.reshape(-1)[self._positions[layout, n_rows]] = vals.reshape(-1)

    def _kept(self, coeffs):
        return coeffs if isinstance(self.keep, slice) else np.take(coeffs, self.keep, axis=-1)

    def synthesize(self, coeffs: np.ndarray, symbols: np.ndarray = None) -> np.ndarray:
        """Real grids sum_k symbols[j, k] coeffs[k] exp(i k.x) + conj, one per
        row j: the layout of ``to_grid`` and ``tensor_product``.

        ``coeffs`` (..., n_modes) covers every stored mode; ``symbols``
        (default: the velocity basis, shape (2, n_kept)) covers the kept
        modes, and its leading axes index the output grids.  Returns shape
        (..., *symbols.shape[:-1], size, size).
        """
        if symbols is None:
            symbols = self.velocity
        vals = self._kept(coeffs)[..., None, :] * symbols
        work = np.zeros(vals.shape[:-1] + self.shape, dtype=np.complex128)
        self._scatter(work, vals, "grid")
        n, M = self.kmax, self.size
        # the k2 = 0 column holds k1 > 0 only; its k1 < 0 half is the conjugate
        work[..., M - n :, 0] = np.conj(work[..., n:0:-1, 0])
        grids = irfft2(work, s=(M, M), overwrite_x=True)
        grids *= M * M
        return grids

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

    @staticmethod
    def _packed_symbols(symbols):
        """The pair of symbol rows s1, s2 as the complex grid's coefficients
        at k, s1 + i s2, and at -k (times conj(coeffs)), conj(s1) + i conj(s2)."""
        s1, s2 = symbols
        return np.stack([s1 + 1j * s2, np.conj(s1) + 1j * np.conj(s2)])

    def synthesize_packed(self, coeffs: np.ndarray, symbols: np.ndarray = None) -> np.ndarray:
        """Complex grids f1 + i f2 of the real grid pair f1, f2 that
        ``synthesize`` makes from a pair of symbol rows: the layout of the
        nonlinear kernels and of the L^p and Besov quadrature.

        ``coeffs`` is (..., n_modes); ``symbols`` is a packed pair (2,
        n_kept), ``velocity_packed`` (the default, u1 + i u2) or
        ``strain_packed`` (s + i t), or a stack of pairs (..., 2, n_kept)
        whose leading axes index further output grids.  Returns the
        broadcast of coeffs.shape[:-1] and symbols.shape[:-2], then (size,
        size).
        """
        if symbols is None:
            symbols = self.velocity_packed
        kept = self._kept(coeffs)
        vals = np.concatenate(
            (kept * symbols[..., 0, :], np.conj(kept) * symbols[..., 1, :]), axis=-1
        )
        n_rows = vals.size // vals.shape[-1]
        M = self.size
        grids = vars(self._scratch).setdefault("full", {})
        if n_rows not in grids:
            grids[n_rows] = np.zeros((n_rows, M, M), dtype=np.complex128)
        work = grids[n_rows]
        self._scatter(work, vals, "full")
        # unnormalized inverse: the sum over k itself, with no M^2 to undo
        return ifft2(work.reshape(vals.shape[:-1] + (M, M)), norm="forward")

    def packed_weights(self, c1, c2) -> np.ndarray:
        """Weights (2, n_kept) with which ``analyze_packed`` returns
        c1[k] f1^(k) + c2[k] f2^(k) for a complex grid f1 + i f2.

        With F = fft2(f1 + i f2), F(k) / M^2 = f1^ + i f2^ and
        conj(F(-k)) / M^2 = f1^ - i f2^ split the pair.
        """
        scale = 0.5 / (self.size * self.size)
        return np.stack([scale * (c1 - 1j * c2), scale * (c1 + 1j * c2)])

    def analyze_packed(self, grids: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_j alpha_j(k) F_j(k) + beta_j(k) conj(F_j(-k)) on the kept modes,
        F_j = fft2 of complex grid j, scattered onto all stored modes.

        ``grids`` (..., J, size, size) is overwritten; ``weights`` (J, 2,
        n_kept) holds (alpha_j, beta_j), as ``packed_weights`` gives them.
        Returns (..., n_modes), zero outside the band.
        """
        spec = fft2(grids, overwrite_x=True)
        at = np.take(spec.reshape(spec.shape[:-2] + (-1,)), self.full_pos, axis=-1)
        n = at.shape[-1] // 2
        plus, minus = at[..., :n], at[..., n:]
        # in place and in one operand order: numpy's complex product is not
        # commutative to the last bit, and a product with a temporary second
        # operand may be evaluated with the operands swapped
        plus *= weights[:, 0]
        minus = np.conj(minus, out=minus)
        minus *= weights[:, 1]
        plus += minus
        kept = plus[..., 0, :] if weights.shape[0] == 1 else plus.sum(axis=-2)
        if isinstance(self.keep, slice):
            return kept
        out = np.zeros(kept.shape[:-1] + (self.n_modes,), dtype=np.complex128)
        self._scatter(out, kept, "modes")
        return out


@functools.lru_cache(maxsize=None)
def transform_plan(cutoff: int, kmax: int, size: int) -> TransformPlan:
    """Shared plan for the modes of grid_for(cutoff) within kmax on a size x size grid."""
    return TransformPlan(grid_for(cutoff), kmax, size)
