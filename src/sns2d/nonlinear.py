"""Pseudo-spectral Navier-Stokes nonlinearity b(u, v) = -P div(u x v).

Products are formed on a padded physical grid large enough that no aliased
frequency lands inside the retained band, so the discrete bilinear term is
the exact Galerkin truncation of the continuum one.  Every transform goes
through the ``TransformPlan`` of ``sns2d.grid``: synthesize the factors,
multiply pointwise, analyze the products back onto the stored modes.  Under
the two-thirds rule inputs and outputs are restricted to |k_i| <= floor(2N/3),
which keeps repeated applications closed in a fixed band and makes the
energy and enstrophy orthogonality identities hold to roundoff.

The kernels use the 2-D trace-free forms (Basdevant 1983).  The Leray
projection P removes gradients, so the isotropic part (u . v / 2) I of
u x v, whose divergence is a gradient, drops out:

    b(u, v) = -P div [[a, u1 v2], [u2 v1, -a]],   a = (u1 v1 - u2 v2) / 2,

and for v = u the tensor is symmetric, [[a, c], [c, -a]] with c = u1 u2.
For a divergence-free w, grad w + grad w^T is symmetric and trace-free,
[[s, t], [t, -s]] with s = 2 d1 w1 and t = d1 w2 + d2 w1.

In 2-D a trace-free pair of reals is one complex number.  With the complex
velocity w_u = u1 + i u2 and the complex strain sigma = s + i t:

    w_u w_u       = 2a + 2ic                    (b(u, u))
    w_u w_v       = 2a + i (u1 v2 + u2 v1)      (the symmetric part of u x v)
    Im(conj(w_u) w_v) = u1 v2 - u2 v1           (its antisymmetric part)
    conj(w_u) sigma   = u . (grad w + grad w^T) as r1 + i r2 (the adjoint)

so one complex grid does the work of two real ones (the plan's packed
path).  The -P div or P that follows each product is folded into the
weights of the packed analysis.  Complex grids transformed per field and
call:

    b_core                      1 synthesized, 1 analyzed
    b_bilinear_core             2 synthesized, 2 analyzed
    b_linearized_adjoint_core   2 synthesized, 1 analyzed
                                (1 synthesized when handed u's velocity grid)

``tensor_product`` forms the full tensor on real grids, 4 synthesized and
4 analyzed; ``wick_square`` subtracts the renormalization constant from
its zero mode.

``b_core`` can synthesize the velocity grid w_u straight into a caller's
buffer, and ``b_linearized_adjoint_core`` can read it from there: the
adjoint sweep of the minimum-action descent reads the grids of the forward
march that made its states.

Every transform, and ``next_fast_len`` for the padded grid sizes, comes
from ``sns2d.grid``, which calls pocketfft's binding directly: at the
descent's 64 x 64 grids scipy.fft's Python dispatch cost about a fifth of
each transform, and importing scipy.fft cost 0.24-0.27 s of each process's
start-up, where the binding, loaded from its file alone, takes about a
millisecond.  Without the binding ``import sns2d`` fails, naming where it
looked.  ``test_fft_transforms_live_only_in_the_grid_module`` checks that no
module here imports scipy.fft, and
``test_a_fresh_import_loads_the_binding_and_no_scipy_package`` that a fresh
import loads no scipy package.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .fields import SpectralField, TensorField
from .grid import next_fast_len, stack_depth, transform_plan
from .noise import NoiseSpec, renorm_constant


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
        """The rule of that kind at cutoff; one whose band |k_i| <=
        effective_cutoff holds no mode is refused here, not mid-march."""
        if kind == "two_thirds":
            rule = cls.two_thirds(cutoff)
        elif kind == "none":
            rule = cls.none(cutoff)
        else:
            raise ValueError(f"unknown dealias kind {kind!r}")
        if rule.effective_cutoff < 1:
            raise ValueError(
                f"dealias {kind!r} keeps no mode at cutoff {cutoff} "
                f"(band limit {rule.effective_cutoff})"
            )
        return rule


def _plan_for(grid, rule: DealiasRule):
    kmax = rule.effective_cutoff
    # alias-free for products of fields band-limited to kmax
    return transform_plan(grid.cutoff, kmax, next_fast_len(3 * kmax + 1))


@functools.lru_cache(maxsize=None)
def _weights(plan):
    """``analyze_packed`` weights (3, 2, n_kept) on the plan's kept modes:

    0: -P div [[a, c], [c, -a]] from the packed grid 2a + 2ic;
    1: -P div [[0, r/2], [-r/2, 0]] from the real grid r;
    2: P (r1, r2) from the packed grid r1 + i r2.
    """
    k1, k2 = plan.k
    p1, p2 = plan.projection
    # <d, e_k> = p1 d1 + p2 d2 for a plain vector coefficient d; the
    # divergence of [[a, t12], [t21, -a]] is i (k1 a + k2 t21, k1 t12 - k2 a)
    return np.stack([
        plan.packed_weights(-0.5j * (p1 * k1 - p2 * k2), -0.5j * (p1 * k2 + p2 * k1)),
        plan.packed_weights(0.5j * (p1 * k2 - p2 * k1), 0.0),
        plan.packed_weights(p1, p2),
    ])


def b_core(coeffs: np.ndarray, grid, rule: DealiasRule, velocity=None) -> np.ndarray:
    """b(u, u) on raw half-lattice coefficients (hot path for the solvers).

    ``coeffs`` is one field (n_modes,) or a stack (..., n_modes); each row
    gets the arithmetic of a call of its own, in one synthesis and one
    analysis for the whole stack.  A ``velocity`` buffer (..., M, M), M the
    rule's padded grid size, receives the synthesized velocity grids
    w_u = u1 + i u2; without one the grids are squared where they were
    synthesized.
    """
    plan = _plan_for(grid, rule)
    # w_u w_u = (u1^2 - u2^2) + 2i u1 u2 = 2a + 2ic, as b_bilinear_core forms it at v = u
    wu = plan.synthesize_packed(coeffs, out=velocity)
    square = np.multiply(wu, wu, out=wu) if velocity is None else wu * wu
    return plan.analyze_packed(square[..., None, :, :], _weights(plan)[:1])


def replicas_per_block(grid, rule: DealiasRule) -> int:
    """Replicas whose b_core stack fits one synthesis budget on the rule's
    padded grid: 32/8/2/1 at cutoff 8/16/32/64 under the two-thirds rule."""
    return stack_depth(_plan_for(grid, rule).size)


def padded_size(grid, rule: DealiasRule) -> int:
    """Side M of the rule's padded physical grid, on which b_core's
    velocity grid w_u (M, M) lives."""
    return _plan_for(grid, rule).size


def b_bilinear_core(cu: np.ndarray, cv: np.ndarray, grid, rule: DealiasRule) -> np.ndarray:
    """b(u, v) on raw coefficients, one field each (n_modes,) or stacks of
    the same shape."""
    plan = _plan_for(grid, rule)
    wu, wv = plan.synthesize_packed(np.stack((cu, cv)))
    # w_u w_v = 2a + i (u1 v2 + u2 v1) packs the symmetric part of u x v;
    # r = u1 v2 - u2 v1 = Im(conj(w_u) w_v), exactly 0 at v = u, the rest
    r = wu.real * wv.imag - wu.imag * wv.real
    return plan.analyze_packed(np.stack((wu * wv, r), axis=-3), _weights(plan)[:2])


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


def wick_square(z: SpectralField, spec: NoiseSpec, rule: DealiasRule) -> TensorField:
    """Renormalized square z x z - eps theta I.

    The subtracted constant is the truncated-lattice theta at the rule's
    effective cutoff, which is exactly the stationary mean of the squared
    components per unit eps, so the zero-mode diagonal is centered.
    """
    t = tensor_product(z, z, rule)
    theta = renorm_constant(spec.delta, spec.gamma, rule.effective_cutoff)
    comps = t.comps.copy()
    n = t.grid.cutoff
    comps[0, 0, n, n] -= spec.epsilon * theta
    comps[1, 1, n, n] -= spec.epsilon * theta
    return TensorField(t.grid, comps)


def b_linearized_adjoint_core(cu, cw, grid, rule: DealiasRule, velocity=None) -> np.ndarray:
    """Adjoint of v -> b(u, v) + b(v, u) in the H inner product.

    Equals the truncation of P[u . (grad w + grad w^T)]; exact to roundoff
    because every product is alias-free within the retained band.  ``cu``
    and ``cw`` are one field each (n_modes,) or stacks of the same shape.
    ``velocity``, u's velocity grid w_u as ``b_core`` writes it, stands in
    for synthesizing ``cu`` again; the result is the same bit for bit.
    """
    plan = _plan_for(grid, rule)
    wu = plan.synthesize_packed(cu) if velocity is None else velocity
    # grad w + grad w^T = [[s, t], [t, -s]] packed as sigma = s + i t
    sigma = plan.synthesize_packed(cw, plan.strain_packed)
    # conj(w_u) sigma = (u1 s + u2 t) + i (u1 t - u2 s) = r1 + i r2
    r = np.multiply(np.conj(wu), sigma, out=sigma)
    return plan.analyze_packed(r[..., None, :, :], _weights(plan)[2:])
