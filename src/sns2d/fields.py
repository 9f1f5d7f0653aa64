"""Divergence-free spectral velocity fields, the Leray projection onto them,
and Fourier tensor fields."""

import numpy as np

from .grid import TWO_PI, SpectralGrid, grid_for, transform_plan
from .noise import as_generator, unit_complex_normals


class SpectralField:
    """Zero-mean, divergence-free velocity field on the periodic square.

    Stores one complex coefficient per half-lattice mode in the orthonormal
    divergence-free basis; the conjugate half is implicit, so the field is
    real-valued and exactly divergence-free by construction.  Instances are
    immutable: operations return fresh fields.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: SpectralGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.n_modes,):
            raise ValueError(
                f"expected {grid.n_modes} coefficients for cutoff "
                f"{grid.cutoff}, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "grid", grid)
        c = coeffs.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @property
    def cutoff(self) -> int:
        return self.grid.cutoff

    @classmethod
    def zero(cls, cutoff: int) -> "SpectralField":
        g = grid_for(cutoff)
        return cls(g, np.zeros(g.n_modes, dtype=np.complex128))

    @classmethod
    def from_modes(cls, cutoff: int, modes: dict) -> "SpectralField":
        """Build a field from {(k1, k2): coefficient}.

        Keys on the implicit half are folded onto the stored half as
        conjugates, preserving realness.
        """
        g = grid_for(cutoff)
        c = np.zeros(g.n_modes, dtype=np.complex128)
        for (k1, k2), val in modes.items():
            if (k1, k2) in g.mode_index:
                c[g.mode_index[(k1, k2)]] += val
            elif (-k1, -k2) in g.mode_index:
                c[g.mode_index[(-k1, -k2)]] += np.conj(val)
            else:
                raise KeyError(f"mode {(k1, k2)} outside cutoff {cutoff}")
        return cls(g, c)

    @classmethod
    def random(cls, cutoff, rng, amplitude=1.0, decay=0.0):
        """Random field with coefficients ~ amplitude * |k|^(-decay) * CN(0, 1),
        drawn from rng: an RngStream, a Generator or an int seed."""
        g = grid_for(cutoff)
        std = amplitude * g.ksq ** (-decay / 2.0)
        return cls(g, unit_complex_normals(as_generator(rng), g.n_modes, std))

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)

    def _check(self, other):
        if not isinstance(other, SpectralField):
            raise TypeError("expected a SpectralField")
        if other.grid.cutoff != self.grid.cutoff:
            raise ValueError(
                f"cutoff mismatch: {self.grid.cutoff} vs {other.grid.cutoff}"
            )

    def to_grid(self, size: int = None, grid_factor: int = 2) -> np.ndarray:
        """Velocity samples on a size x size uniform grid, shape (2, size, size)."""
        g = self.grid
        if size is None:
            size = g.physical_size(grid_factor)
        return transform_plan(g.cutoff, g.cutoff, size).synthesize(self.coeffs)


def taylor_green(cutoff: int, amplitude: float = 1.0) -> SpectralField:
    """Taylor-Green-type low-mode field u = a*(sin x1 cos x2, -cos x1 sin x2)."""
    # sin x1 cos x2 = (e^{i(x1+x2)} + e^{i(x1-x2)} - e^{-i(x1-x2)} - e^{-i(x1+x2)}) / 4i
    vhat = np.zeros((2, 2 * cutoff + 1, 2 * cutoff + 1), dtype=np.complex128)
    n = cutoff
    q = amplitude / 4.0
    for (a, b), s1, s2 in [
        ((1, 1), -1j * q, 1j * q),
        ((1, -1), -1j * q, -1j * q),
        ((-1, 1), 1j * q, 1j * q),
        ((-1, -1), 1j * q, -1j * q),
    ]:
        vhat[0, n + a, n + b] = s1
        vhat[1, n + a, n + b] = s2
    return leray_project(vhat, cutoff)


def leray_project(vector_coeffs: np.ndarray, cutoff: int) -> SpectralField:
    """Project plain vector Fourier coefficients onto the divergence-free basis.

    ``vector_coeffs`` has shape (2, S, S), S = 2*cutoff + 1, centered layout
    (index [j, k1+N, k2+N]).  The k = 0 entry is ignored (zero-average
    constraint) and only the stored half is read; for Hermitian input this is
    the exact orthogonal projection onto divergence-free, zero-mean fields.
    """
    g = grid_for(cutoff)
    S = 2 * cutoff + 1
    vector_coeffs = np.asarray(vector_coeffs, dtype=np.complex128)
    if vector_coeffs.shape != (2, S, S):
        raise ValueError(
            f"expected vector coefficients of shape (2, {S}, {S}), "
            f"got {vector_coeffs.shape}"
        )
    v1 = vector_coeffs[0, g.k1 + cutoff, g.k2 + cutoff]
    v2 = vector_coeffs[1, g.k1 + cutoff, g.k2 + cutoff]
    # <u, e_k> with e_k = (i/2pi)(k_perp/|k|) exp(ik.x)
    c = -TWO_PI * 1j * (v1 * g.k2 - v2 * g.k1) / g.kabs
    return SpectralField(g, c)


class TensorField:
    """2x2 matrix-valued field as Fourier coefficients on the full lattice.

    ``comps[i, j]`` holds the centered coefficients of component (i+1, j+1)
    in the plain exponential basis, shape (S, S) with S = 2*cutoff + 1; each
    component is Hermitian-symmetric (real in physical space).
    """

    __slots__ = ("grid", "comps")

    def __init__(self, grid: SpectralGrid, comps: np.ndarray):
        comps = np.asarray(comps, dtype=np.complex128)
        S = 2 * grid.cutoff + 1
        if comps.shape != (2, 2, S, S):
            raise ValueError(f"expected shape (2, 2, {S}, {S}), got {comps.shape}")
        object.__setattr__(self, "grid", grid)
        c = comps.copy()
        c.flags.writeable = False
        object.__setattr__(self, "comps", c)

    def __setattr__(self, name, value):
        raise AttributeError("TensorField is immutable")

    @property
    def cutoff(self) -> int:
        return self.grid.cutoff

    def zero_mode(self) -> np.ndarray:
        """The (2, 2) matrix of k = 0 coefficients (spatial means)."""
        n = self.grid.cutoff
        return np.real(self.comps[:, :, n, n]).copy()


FIELD_HEADER = "sns2d-field v1"


def save_field(field: SpectralField, path):
    """Write a field as CSV rows (k1, k2, re, im) for the stored half-lattice.

    The header records the truncation and the coefficient convention; the
    conjugate half is implicit.
    """
    lines = [
        f"# {FIELD_HEADER}",
        f"# cutoff={field.cutoff}",
        "# basis=divergence-free orthonormal, e_k = (i/2pi)(k_perp/|k|) exp(ik.x)",
        "# layout=k1,k2,re,im (conjugate modes implicit)",
        "k1,k2,re,im",
    ]
    g = field.grid
    for a, b, c in zip(g.k1, g.k2, field.coeffs):
        lines.append(f"{a},{b},{float(c.real)!r},{float(c.imag)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path) -> SpectralField:
    """The field a ``save_field`` file holds; a row that is not a finite
    coefficient of a stored mode of the header's cutoff, or that repeats the
    mode of an earlier row, raises ValueError."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != f"# {FIELD_HEADER}":
        raise ValueError(f"{path}: not a {FIELD_HEADER} file")
    cutoff = None
    rows = []
    for ln in lines[1:]:
        if ln.startswith("# cutoff="):
            cutoff = int(ln.split("=", 1)[1])
        elif ln.startswith("#") or ln == "k1,k2,re,im" or not ln:
            continue
        else:
            rows.append(ln.split(","))
    if cutoff is None:
        raise ValueError(f"{path}: missing cutoff header")
    g = grid_for(cutoff)
    c = np.zeros(g.n_modes, dtype=np.complex128)
    seen = set()
    for row in rows:
        k1, k2, re, im = row
        mode, value = (int(k1), int(k2)), float(re) + 1j * float(im)
        if mode not in g.mode_index or mode in seen or not np.isfinite(value):
            raise ValueError(
                f"{path}: row {','.join(row)} is not a finite coefficient of a stored "
                f"mode of cutoff {cutoff} that no earlier row gives"
            )
        seen.add(mode)
        c[g.mode_index[mode]] = value
    return SpectralField(g, c)
