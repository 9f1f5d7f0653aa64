"""Wavenumber bookkeeping for zero-mean fields on the periodic square [0, 2*pi]^2.

Fields live on the integer frequency lattice with the zero mode removed.
Only half of the lattice is stored: the coefficient at -k is the complex
conjugate of the coefficient at k, so the stored half determines a
real-valued field.  The stored half is {k2 > 0} union {k2 == 0, k1 > 0}.

``TransformPlan`` is the one path between stored coefficients and samples on
a uniform physical grid; every physical-space computation goes through it.
It has two layouts:

- complex grids f1 + i f2 that each carry a pair of real grids in one
  complex transform (``synthesize_packed``, and ``analyze_packed``, which
  weights each grid's transform at k and at -k by one pair).  The
  product kernels ``b_core``, ``b(u, v)`` and the adjoint use them, and so
  does the |u|^p quadrature of ``lp_norm`` and the Besov block powers, which
  needs only |u|^2 = Re^2 + Im^2 of the packed velocity.  Every synthesis
  scatters one ``PackedLayout``: the plan's ``velocity_layout`` and
  ``strain_layout`` put every kept mode on one grid, and a ``mode_blocks``
  layout puts each of its sets on a grid of its own.  Both go through
  ``_complex_transform``.  On the minimum-action descent's 64 x 64 grids
  scipy.fft's Python dispatch around the transform took about a fifth of
  it (fft2 34 us, the bare call 26 us, best of 7 x 2,000 calls on a 2-core
  Xeon with scipy 1.17);
- real grids, one per symbol row (``synthesize`` and ``analyze``), for
  ``SpectralField.to_grid``, which hands out the two velocity components,
  and ``tensor_product``.  The tensor stays real: the renorm run reports the
  roundoff-level gap (about 2e-17) between the Wick square's zero mode and a
  direct coefficient sum, and that recorded number moves with any change to
  the tensor's arithmetic.

Every transform, and ``next_fast_len``, calls pocketfft's compiled binding
``scipy.fft._pocketfft.pypocketfft`` with the arguments that scipy.fft's
``fft2``, ``ifft2(norm="forward")``, ``irfft2`` and ``rfft2`` pass it, so the
bits are scipy.fft's.  ``_load_pocketfft`` loads that one file by its path
under scipy, without running ``scipy/__init__`` or ``scipy/fft/__init__``:
importing scipy.fft took 0.24-0.27 s, with 80 ms of ``scipy.special`` and
about 130 ms of numpy submodules that scipy's array-API layer touches, while
the binding alone loads in about a millisecond.  The module is registered
under its own name, so a later ``import scipy.fft`` uses it, and an earlier
one's is reused.  There is no fallback: without scipy or the binding file
the import of this module fails, naming where it looked.  Tests in
``tests/test_grid_fields.py`` keep each binding function's one call site
here and check that a fresh ``import sns2d`` loads no scipy package.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    """pocketfft's binding module, from its file under the installed scipy
    (or from ``sys.modules`` when scipy.fft or an earlier load has it)."""
    if _POCKETFFT in sys.modules:
        return sys.modules[_POCKETFFT]
    scipy_spec = importlib.util.find_spec("scipy")
    dirs = (scipy_spec.submodule_search_locations or []) if scipy_spec else []
    where = [os.path.join(d, "fft", "_pocketfft") for d in dirs]
    spec = importlib.machinery.PathFinder.find_spec(_POCKETFFT, where)
    if spec is None:
        from importlib.metadata import PackageNotFoundError, version

        try:
            installed = f"scipy {version('scipy')} is installed"
        except PackageNotFoundError:
            installed = "scipy is not installed"
        place = ", ".join(where) or "no directory: no scipy package was found"
        raise ImportError(f"sns2d needs pocketfft's binding {_POCKETFFT}; looked in "
                          f"{place}; {installed}", name=_POCKETFFT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_POCKETFFT] = module
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()

# scipy.fft.next_fast_len is this cache around the same function
next_fast_len = functools.lru_cache(_pocketfft.good_size)

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


def _complex_transform(grids, forward, out=None):
    """Unnormalized 2-D complex FFT over the last two axes of ``grids``, into
    ``out`` when given (which may be ``grids`` itself): the call that
    ``fft2(grids)`` (forward) and ``ifft2(grids, norm="forward")`` make, on
    one thread."""
    return _pocketfft.c2c(grids, (grids.ndim - 2, grids.ndim - 1), forward, 0, out, 1)


@functools.lru_cache(maxsize=None)
def grid_for(cutoff: int) -> SpectralGrid:
    """Shared immutable grid instance for the given truncation."""
    return SpectralGrid(cutoff)


@dataclass(frozen=True, eq=False)
class PackedLayout:
    """Where ``synthesize_packed`` puts a packed symbol pair's values: some of
    a plan's kept modes, on grids (*axes, size, size).  ``axes == ()`` puts
    every kept mode on one grid (the plan's ``velocity_layout`` and
    ``strain_layout``); ``axes == (blocks,)`` puts each of ``mode_blocks``'
    disjoint sets on a grid of its own, without forming or scattering the
    zeros of the other sets' modes."""

    modes: np.ndarray  # the stored-mode indices of the layout's modes, grid after grid
    symbols: np.ndarray  # (2, n): the grids' coefficients at k and at -k per unit coefficient
    pos: np.ndarray  # (2 n,): their flat positions in (*axes, size, size), at k, then at -k
    axes: tuple


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
        self.keep = np.flatnonzero(keep)
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
        self._rows = {"grid": (self.pos, self.shape[0] * self.shape[1]),
                      "modes": (self.keep, grid.n_modes)}
        self._positions = {}
        # zeroed grids per packed layout and stack size, reused by the plan's
        # calls in each thread: the plan is shared, and two threads'
        # syntheses must not scatter into one grid.  A layout's calls write
        # only its positions, and every call writes all of them
        self._scratch = threading.local()
        every = [np.arange(k1.size)]
        self.velocity_layout = self._layout(self.velocity, every, ())
        self.strain_layout = self._layout(self.strain, every, ())

    def _scatter(self, out, vals, layout):
        """Write each row of vals (..., n) into the same row of out at the
        positions of ``layout``: "grid", the kept modes in the rfft2 layout,
        "modes", the kept modes among the stored ones, or a ``PackedLayout``
        of the plan, whose rows hold its modes' values at k and at -k and
        fill its (*axes, size, size) grids.  One 1-D scatter fills the whole
        stack; a scatter along the last axis of a stack runs several times
        slower."""
        n_rows = vals.size // vals.shape[-1]
        if (layout, n_rows) not in self._positions:
            pos, width = self._rows[layout]
            self._positions[layout, n_rows] = (np.arange(n_rows)[:, None] * width + pos).ravel()
        out.reshape(-1)[self._positions[layout, n_rows]] = vals.reshape(-1)

    def _layout(self, symbols, members, axes) -> PackedLayout:
        """The ``PackedLayout`` of the symbol pair s1, s2 (2, n_kept) that puts
        the kept modes members[j] (index arrays) on grid j of ``axes``.  A
        complex grid has no Hermitian symmetry: its coefficient per unit
        coefficient is s1 + i s2 at k and, times conj(coeffs), conj(s1) +
        i conj(s2) at -k."""
        s1, s2 = symbols
        packed = np.stack([s1 + 1j * s2, np.conj(s1) + 1j * np.conj(s2)])
        which = np.concatenate(members)
        plane = np.repeat(np.arange(len(members)) * self.size**2, [len(m) for m in members])
        n_kept = self.k.shape[1]
        layout = PackedLayout(
            self.keep[which], packed[:, which],
            np.concatenate([plane + self.full_pos[which], plane + self.full_pos[n_kept + which]]),
            axes,
        )
        for a in (layout.modes, layout.symbols, layout.pos):
            a.flags.writeable = False
        self._rows[layout] = (layout.pos, math.prod(axes) * self.size**2)
        return layout

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
        vals = np.take(coeffs, self.keep, axis=-1)[..., None, :] * symbols
        work = np.zeros(vals.shape[:-1] + self.shape, dtype=np.complex128)
        self._scatter(work, vals, "grid")
        n, M = self.kmax, self.size
        # the k2 = 0 column holds k1 > 0 only; its k1 < 0 half is the conjugate
        work[..., M - n :, 0] = np.conj(work[..., n:0:-1, 0])
        # irfft2(work, s=(M, M)): scaled by 1 / M^2 (norm mode 2), undone here
        grids = _pocketfft.c2r(work, (work.ndim - 2, work.ndim - 1), M, False, 2, None, 1)
        grids *= M * M
        return grids

    def analyze(self, phys: np.ndarray, with_mean: bool = False):
        """Fourier coefficients of the kept stored modes of real grids (..., size, size).

        Returns shape (..., n_kept); with ``with_mean`` also the k = 0
        coefficients, shape (...).
        """
        scale = 1.0 / (self.size * self.size)
        spec = _pocketfft.r2c(phys, (phys.ndim - 2, phys.ndim - 1), True, 0, None, 1)
        # scale only the gathered coefficients, not the whole spectrum
        coeffs = np.take(spec.reshape(spec.shape[:-2] + (-1,)), self.pos, axis=-1)
        coeffs *= scale
        return (coeffs, spec[..., 0, 0] * scale) if with_mean else coeffs

    def mode_blocks(self, sets) -> PackedLayout:
        """The velocity ``PackedLayout`` of ``sets``, disjoint boolean masks
        over the kept modes, one grid per set: axes (len(sets),)."""
        members = [np.flatnonzero(s) for s in sets]
        return self._layout(self.velocity, members, (len(members),))

    def synthesize_packed(self, coeffs: np.ndarray, layout: PackedLayout,
                          out: np.ndarray = None) -> np.ndarray:
        """Complex grids f1 + i f2 of the real grid pair f1, f2 that
        ``synthesize`` makes from a pair of symbol rows: the layout of the
        nonlinear kernels and of the L^p and Besov quadrature.

        ``coeffs`` is (..., n_modes) and ``layout`` a ``PackedLayout`` of
        this plan: ``velocity_layout`` (u1 + i u2), ``strain_layout`` (s +
        i t) or a ``mode_blocks`` layout.  Each value is formed once, at its
        layout's modes only.  Returns (..., *layout.axes, size, size),
        written into ``out`` (complex, of that shape) when given.
        """
        kept = coeffs.take(layout.modes, axis=-1)
        vals = np.concatenate((kept * layout.symbols[0], np.conj(kept) * layout.symbols[1]),
                              axis=-1)
        shape = coeffs.shape[:-1] + layout.axes
        n_rows = vals.size // vals.shape[-1]
        M = self.size
        grids = vars(self._scratch).setdefault("packed", {})
        if (layout, n_rows) not in grids:
            grids[layout, n_rows] = np.zeros(shape + (M, M), dtype=np.complex128)
        work = grids[layout, n_rows]
        self._scatter(work, vals, layout)
        # unnormalized inverse: the sum over k itself, with no M^2 to undo
        return _complex_transform(work.reshape(shape + (M, M)), False, out)

    def packed_weights(self, c1, c2) -> np.ndarray:
        """Weights (2, n_kept) with which ``analyze_packed`` returns
        c1[k] f1^(k) + c2[k] f2^(k) for a complex grid f1 + i f2.

        With F = fft2(f1 + i f2), F(k) / M^2 = f1^ + i f2^ and
        conj(F(-k)) / M^2 = f1^ - i f2^ split the pair.
        """
        scale = 0.5 / (self.size * self.size)
        return np.stack([scale * (c1 - 1j * c2), scale * (c1 + 1j * c2)])

    def analyze_packed(self, grids: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """alpha(k) F(k) + beta(k) conj(F(-k)) on the kept modes, F = fft2 of
        each complex grid, scattered onto all stored modes.

        ``grids`` (..., size, size) is overwritten; ``weights`` (2, n_kept)
        holds (alpha, beta), as ``packed_weights`` gives them.  Returns
        (..., n_modes), zero outside the band.
        """
        spec = _complex_transform(grids, True, grids)
        at = np.take(spec.reshape(spec.shape[:-2] + (-1,)), self.full_pos, axis=-1)
        n = at.shape[-1] // 2
        plus, minus = at[..., :n], at[..., n:]
        # in place and in one operand order: numpy's complex product is not
        # commutative to the last bit, and a product with a temporary second
        # operand may be evaluated with the operands swapped
        plus *= weights[0]
        minus = np.conj(minus, out=minus)
        minus *= weights[1]
        plus += minus
        out = np.zeros(plus.shape[:-1] + (self.n_modes,), dtype=np.complex128)
        self._scatter(out, plus, "modes")
        return out


@functools.lru_cache(maxsize=None)
def transform_plan(cutoff: int, kmax: int, size: int) -> TransformPlan:
    """Shared plan for the modes of grid_for(cutoff) within kmax on a size x size grid."""
    return TransformPlan(grid_for(cutoff), kmax, size)
