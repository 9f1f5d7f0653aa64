"""Pseudo-spectral Navier-Stokes nonlinearity b(u, v) = -P div(u x v).

Products are formed on a padded physical grid large enough that no aliased
frequency lands inside the retained band, so the discrete bilinear term is
the exact Galerkin truncation of the continuum one.  Every transform goes
through the real-FFT ``TransformPlan`` of ``sns2d.grid``: synthesize the
factors, multiply pointwise, analyze the products back onto the stored
modes.  Under the two-thirds rule inputs and outputs are restricted to
|k_i| <= floor(2N/3), which keeps repeated applications closed in a fixed
band and makes the energy and enstrophy orthogonality identities hold to
roundoff.

The kernels use the 2-D trace-free forms (Basdevant 1983).  The Leray
projection P removes gradients, so the isotropic part (u . v / 2) I of
u x v, whose divergence is a gradient, drops out:

    b(u, v) = -P div [[a, u1 v2], [u2 v1, -a]],   a = (u1 v1 - u2 v2) / 2,

and for v = u the tensor is symmetric, [[a, c], [c, -a]] with c = u1 u2.
For a divergence-free w, grad w + grad w^T is symmetric and trace-free,
[[s, t], [t, -s]] with s = 2 d1 w1 and t = d1 w2 + d2 w1.  Real grids
transformed per field and call:

    b_core                      2 synthesized, 2 analyzed
    b_bilinear_core             4 synthesized, 3 analyzed
    b_linearized_adjoint_core   4 synthesized, 2 analyzed
                                (2 synthesized when handed u's velocity grids)
    tensor_product              4 synthesized, 4 analyzed (the full tensor)

``b_core`` can write the velocity grids it synthesizes into a caller's
buffer, and ``b_linearized_adjoint_core`` can read them from there: the
adjoint sweep of the minimum-action descent reads the grids of the forward
march that made its states.
"""

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .fields import SpectralField, TensorField
from .grid import stack_depth, transform_plan


@dataclass(frozen=True)
class DealiasRule:
    """Spectral truncation applied around pointwise products."""

    kind: str
    effective_cutoff: int

    @classmethod
    def two_thirds(cls, cutoff: int) -> "DealiasRule":
        return cls("two_thirds", (2 * cutoff) // 3)

    @classmethod
    def none(cls, cutoff: int) -> "DealiasRule":
        return cls("none", cutoff)

    @classmethod
    def make(cls, kind: str, cutoff: int) -> "DealiasRule":
        if kind == "two_thirds":
            return cls.two_thirds(cutoff)
        if kind == "none":
            return cls.none(cutoff)
        raise ValueError(f"unknown dealias kind {kind!r}")


def _plan_for(grid, rule: DealiasRule):
    kmax = rule.effective_cutoff
    # alias-free for products of fields band-limited to kmax
    return transform_plan(grid.cutoff, kmax, next_fast_len(3 * kmax + 1))


def _minus_div(plan, a, t12, t21):
    """-P div of the trace-free tensor [[a, t12], [t21, -a]] given the kept
    coefficients of its entries, each (..., n_kept); returns (..., n_modes)."""
    k1, k2 = plan.k
    return plan.project(-1j * (k1 * a + k2 * t21), -1j * (k1 * t12 - k2 * a))


def b_core(coeffs: np.ndarray, grid, rule: DealiasRule, velocity=None) -> np.ndarray:
    """b(u, u) on raw half-lattice coefficients (hot path for the solvers).

    ``coeffs`` is one field (n_modes,) or a stack (..., n_modes); each row
    gets the arithmetic of a call of its own, in one synthesis and one
    analysis for the whole stack.  A ``velocity`` buffer (..., 2, M, M), M
    the rule's padded grid size, receives the synthesized velocity grids.
    """
    plan = _plan_for(grid, rule)
    u = plan.synthesize(coeffs, out=velocity)
    u1, u2 = u[..., 0, :, :], u[..., 1, :, :]
    # a = (u1^2 - u2^2) / 2 and c = u1 u2, as b_bilinear_core forms them at v = u
    t = plan.analyze(np.stack((0.5 * (u1 * u1 - u2 * u2), u1 * u2), axis=-3))
    return _minus_div(plan, t[..., 0, :], t[..., 1, :], t[..., 1, :])


def replicas_per_block(grid, rule: DealiasRule) -> int:
    """Replicas whose b_core stack fits one synthesis budget on the rule's
    padded grid: 32/8/2/1 at cutoff 8/16/32/64 under the two-thirds rule."""
    return stack_depth(_plan_for(grid, rule).size)


def padded_size(grid, rule: DealiasRule) -> int:
    """Side M of the rule's padded physical grid, on which b_core's
    velocity grids (2, M, M) live."""
    return _plan_for(grid, rule).size


def b_bilinear_core(cu: np.ndarray, cv: np.ndarray, grid, rule: DealiasRule) -> np.ndarray:
    plan = _plan_for(grid, rule)
    (u1, u2), (v1, v2) = plan.synthesize(cu), plan.synthesize(cv)
    t = plan.analyze(np.stack((0.5 * (u1 * v1 - u2 * v2), u1 * v2, u2 * v1)))
    return _minus_div(plan, t[0], t[1], t[2])


def tensor_product(u: SpectralField, v: SpectralField, rule: DealiasRule) -> TensorField:
    """Pointwise tensor u(x) x v(x) back in Fourier space, truncated per rule."""
    u._check(v)
    g = u.grid
    plan = _plan_for(g, rule)
    ug = plan.synthesize(u.coeffs)
    vg = plan.synthesize(v.coeffs)
    t, mean = plan.analyze(ug[:, None] * vg[None, :], with_mean=True)
    n = g.cutoff
    k1, k2 = g.k1[plan.keep], g.k2[plan.keep]
    comps = np.zeros((2, 2, 2 * n + 1, 2 * n + 1), dtype=np.complex128)
    comps[:, :, n + k1, n + k2] = t
    comps[:, :, n - k1, n - k2] = np.conj(t)
    comps[:, :, n, n] = mean
    return TensorField(g, comps)


def b_bilinear(u: SpectralField, v: SpectralField, rule: DealiasRule) -> SpectralField:
    """b(u, v) = -P div(u x v), computed alias-free."""
    u._check(v)
    return u.with_coeffs(b_bilinear_core(u.coeffs, v.coeffs, u.grid, rule))


def b_self(u: SpectralField, rule: DealiasRule) -> SpectralField:
    """b(u) = -P div(u x u)."""
    return u.with_coeffs(b_core(u.coeffs, u.grid, rule))


def b_linearized_adjoint_core(cu, cw, grid, rule: DealiasRule, velocity=None) -> np.ndarray:
    """Adjoint of v -> b(u, v) + b(v, u) in the H inner product.

    Equals the truncation of P[u . (grad w + grad w^T)]; exact to roundoff
    because every product is alias-free within the retained band.  ``cu``
    and ``cw`` are one field each (n_modes,) or stacks of the same shape.
    ``velocity``, u's velocity grids as ``b_core`` writes them, stands in
    for synthesizing ``cu`` again; the result is the same bit for bit.
    """
    plan = _plan_for(grid, rule)
    u = plan.synthesize(cu) if velocity is None else velocity
    # grad w + grad w^T = [[s, t], [t, -s]] on the padded grid
    S = plan.synthesize(cw, plan.strain)
    u1, u2 = u[..., 0, :, :], u[..., 1, :, :]
    s, t = S[..., 0, :, :], S[..., 1, :, :]
    rhat = plan.analyze(np.stack((u1 * s + u2 * t, u1 * t - u2 * s), axis=-3))
    return plan.project(rhat[..., 0, :], rhat[..., 1, :])


def b_linearized_adjoint(u: SpectralField, w: SpectralField, rule: DealiasRule) -> SpectralField:
    u._check(w)
    return u.with_coeffs(b_linearized_adjoint_core(u.coeffs, w.coeffs, u.grid, rule))
