"""Independent brute-force oracles used to pin the pseudo-spectral paths.

Everything here works on centered plain Fourier coefficient arrays and sums
convolutions directly (O(N^4)); none of it shares code with the package's
FFT-based implementations.  The exceptions are built from the package's
own parts and kept as references for faster forms of the same arithmetic:

- ``stokes_apply``, ``heat_semigroup``, ``fractional_power``, ``h_inner``,
  ``dyadic_block`` and ``h_norms``, the linear operations on one field and
  the H norms of a path, which only the tests apply;
- ``besov_norm_per_block``, the one-block-at-a-time Besov sum built from
  ``dyadic_block`` and ``lp_norm``, the reference for the stacked
  ``besov_norm``;
- ``trajectory_space_norm_two_pass``, the path-space norm from two
  ``besov_norm`` passes per state, the reference for the shared block powers
  of ``trajectory_space_norm``;
- ``laplace_rhs_probe``, the variational side of the Laplace check searched
  over minimum-action paths steered to endpoints on a segment, an upper
  bound and the reference for ``laplace_check``'s one fixed-weight descent;
  ``fixed_weight_infimum_linear``, that descent's value at b = 0 in closed
  form;
- ``gaussian_mode_variances``, ``gaussian_laplace_value`` and
  ``continuous_shell_action``, the exact answers at b = 0: the per-mode
  variance of a controlled path about its skeleton, the Laplace functional
  of the unclipped endpoint distance, and the minimum continuous-time
  control cost between two fields;
- ``minimize_action_remarching``, the minimum-action descent that calls
  ``action_objective_and_gradient`` for every objective and gradient and so
  marches an accepted control again, the reference for ``minimize_action``;
- ``march_allocating``, ``adjoint_gradient_allocating`` and
  ``control_states_allocating``, the exponential step, the adjoint sweep and
  the descent's forward march forming each step, each sweep term and each
  forcing in new arrays, the references for the in-place ``march``,
  ``adjoint_gradient`` and ``control_states``; the allocating march
  synthesizes its velocity grids apart from b_core, and the sweep without grids
  synthesizes each state's velocity again, the reference for
  ``adjoint_gradient`` reading the grids of the march that made its states;
- ``b_core_three_products`` and ``adjoint_four_gradients``, the nonlinear
  term from the full symmetric tensor u x u and its adjoint from all four
  velocity gradients, the references for the trace-free ``b_core`` and
  ``b_linearized_adjoint_core``;
- ``b_core_real_grids``, ``b_bilinear_real_grids`` and
  ``adjoint_real_grids``, the trace-free kernels on one real grid per
  velocity component, tensor entry and strain entry, projected by
  ``project_kept``, the references for the kernels on packed complex grids;
- ``power_integrals_real_grids`` and ``block_powers_real_grids``, the
  |u|^p quadrature on the real grid pair u1, u2, one block at a time for
  the block powers, the references for ``lp_norm`` and ``block_powers`` on
  packed complex grids;
- ``synthesize_scaling_a_copy`` and ``analyze_scaling_the_spectrum``, the
  transform plan's synthesis and analysis with the normalization applied to
  a full new array, the references for ``TransformPlan``'s in-place scaling;
  the synthesis selects the band by a boolean mask of its own, the
  reference for the plan's integer gather;
- ``march_alone``, the exponential step applied to one state with one
  generator, and the per-replica loops built on it,
  ``controlled_per_replica`` and ``besov_moment_check_per_replica``, the
  references for the replica blocks of ``march``; their draws are
  ``unit_complex_normals_assembled``;
- ``unit_complex_normals_assembled``, the complex normals assembled from a
  full (2, *shape) draw in complex arithmetic, the reference for the fused
  ``unit_complex_normals``;
- ``ou_step_batch_whole``, the OU step of each row of Z as decay * Z plus
  a whole draw, which the tests of the OU law apply;
- ``lp_log_moment_check_whole``, the L^p moment check from all of its
  stationary samples at once (at p != 2 drawn in the same row batches),
  the reference for ``lp_log_moment_check``, which reduces each row batch
  or each piece as it is drawn;
- ``l2_powers_whole``, the squared L^2 norm of each row of a whole array
  as 2 (sum Re^2 + sum Im^2), the reference for ``drawn_l2_powers``, which
  reduces the same sums piece by piece as the draw's parts are drawn;
- ``wick_diagonal_whole``, renorm's Wick sums from each whole batch of
  stationary samples, the reference for ``wick_diagonal``, which reduces
  each batch piece by piece as its parts are drawn;
- ``divergence_residual``, max |k . u_hat(k)| over the velocity that
  ``velocity_coeffs_direct`` reconstructs, relative to its largest
  coefficient, the check that the package's basis is divergence-free;
- ``load_trajectory``, the reader of the files ``save_trajectory`` writes.
"""

import math

import numpy as np
from scipy.fft import irfft2, rfft2

from sns2d.dynamics import (
    TRAJ_HEADER,
    ControlPath,
    IntegrationBlowupError,
    Trajectory,
    _psi2,
    exp_weights,
    skeleton_forcing,
    solve_skeleton,
    step_count,
)
from sns2d.fields import SpectralField
from sns2d.grid import SAMPLES_PER_CALL, grid_for, transform_plan
from sns2d.ldp import (
    MinimizeReport,
    OptimizerSettings,
    action_objective_and_gradient,
    minimize_action,
)
from sns2d.montecarlo import MomentReport
from sns2d.noise import (
    as_generator,
    covariance_weights,
    l2_moment_exact,
    lattice_power_sum,
    ou_transition,
    stationary_batch,
    stationary_std,
    unit_complex_normals,
)
from sns2d.nonlinear import _plan_for, b_core, b_linearized_adjoint_core
from sns2d.spectral import (
    _block_mask,
    besov_norm,
    block_count,
    block_grid_size,
    h_norm_of,
    lp_norm,
    lp_powers,
)

TWO_PI = 2.0 * np.pi


def stokes_apply(u):
    """Stokes operator: multiply each mode by -|k|^2."""
    return u.with_coeffs(u.coeffs * (-u.grid.ksq))


def heat_semigroup(u, t, alpha=0.0):
    """exp(t(A - alpha)) u: each mode decays by exp(-t(|k|^2 + alpha))."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return u.with_coeffs(u.coeffs * np.exp(-t * (u.grid.ksq + alpha)))


def fractional_power(u, r):
    """(-A)^r u: multiply each mode by |k|^(2r)."""
    return u.with_coeffs(u.coeffs * u.grid.ksq**r)


def h_inner(u, v):
    """Real inner product of H, computed from the stored half-lattice."""
    u._check(v)
    return 2.0 * float(np.real(np.sum(u.coeffs * np.conj(v.coeffs))))


def dyadic_block(u, q):
    """Frequency annulus 2^(q-1) < |k| <= 2^q of u; q = 0 keeps |k| = 1.

    The blocks partition the retained modes, so summing over q recovers u.
    """
    if q < 0:
        raise ValueError(f"block index must be >= 0, got {q}")
    return u.with_coeffs(np.where(_block_mask(u.grid.ksq, q), u.coeffs, 0.0))


def h_norms(traj):
    """The H norm of each state of a Trajectory, (n_steps + 1,)."""
    return np.sqrt(2.0 * np.sum(np.abs(traj.coeffs) ** 2, axis=1))


def velocity_coeffs_direct(field):
    """Centered plain vector coefficients from a field's stored half-lattice."""
    n = field.cutoff
    S = 2 * n + 1
    out = np.zeros((2, S, S), dtype=np.complex128)
    g = field.grid
    for idx in range(g.n_modes):
        k1, k2 = int(g.k1[idx]), int(g.k2[idx])
        c = field.coeffs[idx]
        kabs = np.hypot(k1, k2)
        v = c * (1j / TWO_PI) * np.array([k2, -k1]) / kabs
        out[:, n + k1, n + k2] += v
        out[:, n - k1, n - k2] += np.conj(v)
    return out


def truncate_centered(vhat, kmax):
    """Zero all modes with max(|k1|, |k2|) > kmax (centered layout)."""
    n = (vhat.shape[-1] - 1) // 2
    out = vhat.copy()
    idx = np.arange(-n, n + 1)
    mask = (np.abs(idx)[:, None] > kmax) | (np.abs(idx)[None, :] > kmax)
    out[..., mask] = 0.0
    return out


def convolve_direct(ahat, bhat):
    """Full convolution sum_k a(k) b(m - k) of two centered scalar arrays.

    The result is returned at the same truncation (modes outside dropped).
    The k sum for each target m is evaluated as an elementwise product of a
    slice of a with the reversed matching slice of b.
    """
    n = (ahat.shape[0] - 1) // 2
    S = 2 * n + 1
    out = np.zeros((S, S), dtype=np.complex128)
    for m1 in range(-n, n + 1):
        k1_lo, k1_hi = max(-n, m1 - n), min(n, m1 + n)
        for m2 in range(-n, n + 1):
            k2_lo, k2_hi = max(-n, m2 - n), min(n, m2 + n)
            a = ahat[n + k1_lo : n + k1_hi + 1, n + k2_lo : n + k2_hi + 1]
            b = bhat[
                n + m1 - k1_hi : n + m1 - k1_lo + 1,
                n + m2 - k2_hi : n + m2 - k2_lo + 1,
            ][::-1, ::-1]
            out[n + m1, n + m2] = np.sum(a * b)
    return out


def tensor_product_direct(u, v, kmax):
    """Oracle for the tensor product: direct convolution, inputs and output
    truncated to max(|k_i|) <= kmax."""
    uh = truncate_centered(velocity_coeffs_direct(u), kmax)
    vh = truncate_centered(velocity_coeffs_direct(v), kmax)
    n = u.cutoff
    S = 2 * n + 1
    comps = np.zeros((2, 2, S, S), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            comps[i, j] = truncate_centered(convolve_direct(uh[i], vh[j]), kmax)
    return comps


def b_direct(u, v, kmax):
    """Oracle for b(u, v) = -P div(u x v): direct convolution, divergence in
    Fourier space, projection onto the divergence-free basis; returns
    half-lattice coefficients on u's grid."""
    comps = tensor_product_direct(u, v, kmax)
    n = u.cutoff
    freqs = np.arange(-n, n + 1, dtype=np.float64)
    d1 = 1j * (freqs[:, None] * comps[0, 0] + freqs[None, :] * comps[1, 0])
    d2 = 1j * (freqs[:, None] * comps[0, 1] + freqs[None, :] * comps[1, 1])
    g = u.grid
    out = np.zeros(g.n_modes, dtype=np.complex128)
    for idx in range(g.n_modes):
        k1, k2 = int(g.k1[idx]), int(g.k2[idx])
        if max(abs(k1), abs(k2)) > kmax:
            continue
        kabs = np.hypot(k1, k2)
        dd1 = d1[n + k1, n + k2]
        dd2 = d2[n + k1, n + k2]
        out[idx] = TWO_PI * 1j * (dd1 * k2 - dd2 * k1) / kabs
    return out


def project_kept(plan, d1, d2):
    """Divergence-free part of plain vector fields given on the plan's kept
    modes (..., n_kept), on all stored modes (..., n_modes), zero outside
    the band."""
    out = np.zeros(d1.shape[:-1] + (plan.n_modes,), dtype=np.complex128)
    out[..., plan.keep] = plan.projection[0] * d1 + plan.projection[1] * d2
    return out


def minus_div_real(plan, a, t12, t21):
    """-P div of the trace-free tensor [[a, t12], [t21, -a]] given the kept
    coefficients of its entries, each (..., n_kept)."""
    k1, k2 = plan.k
    return project_kept(plan, -1j * (k1 * a + k2 * t21), -1j * (k1 * t12 - k2 * a))


def b_core_three_products(coeffs, grid, rule):
    """b(u, u) = -P div(u x u) from the three distinct products u1 u1, u1 u2
    and u2 u2; one field or a stack."""
    plan = _plan_for(grid, rule)
    u = plan.synthesize(coeffs)
    t = plan.analyze(u[..., [0, 0, 1], :, :] * u[..., [0, 1, 1], :, :])
    t11, t12, t22 = t[..., 0, :], t[..., 1, :], t[..., 2, :]
    k1, k2 = plan.k
    return project_kept(plan, -1j * (k1 * t11 + k2 * t12), -1j * (k1 * t12 + k2 * t22))


def adjoint_four_gradients(cu, cw, grid, rule):
    """P[u . (grad w + grad w^T)] from the four gradient grids d_l w_j of one
    field w."""
    plan = _plan_for(grid, rule)
    u = plan.synthesize(cu)
    # velocity[l, j] multiplied by i k_l: the symbol of d_l w_j
    G = plan.synthesize(cw, 1j * plan.k[:, None] * plan.velocity[None, :])
    r1 = u[0] * (2.0 * G[0, 0]) + u[1] * (G[1, 0] + G[0, 1])
    r2 = u[0] * (G[0, 1] + G[1, 0]) + u[1] * (2.0 * G[1, 1])
    rhat = plan.analyze(np.stack((r1, r2)))
    return project_kept(plan, rhat[0], rhat[1])


def b_core_real_grids(coeffs, grid, rule):
    """b(u, u) from the real grids u1, u2 and the two products
    a = (u1^2 - u2^2) / 2 and c = u1 u2; one field or a stack."""
    plan = _plan_for(grid, rule)
    u = plan.synthesize(coeffs)
    u1, u2 = u[..., 0, :, :], u[..., 1, :, :]
    t = plan.analyze(np.stack((0.5 * (u1 * u1 - u2 * u2), u1 * u2), axis=-3))
    return minus_div_real(plan, t[..., 0, :], t[..., 1, :], t[..., 1, :])


def b_bilinear_real_grids(cu, cv, grid, rule):
    """b(u, v) from the real grids u1, u2, v1, v2 and the three products
    (u1 v1 - u2 v2) / 2, u1 v2 and u2 v1; one field each or stacks."""
    plan = _plan_for(grid, rule)
    u, v = plan.synthesize(cu), plan.synthesize(cv)
    u1, u2, v1, v2 = u[..., 0, :, :], u[..., 1, :, :], v[..., 0, :, :], v[..., 1, :, :]
    t = plan.analyze(np.stack((0.5 * (u1 * v1 - u2 * v2), u1 * v2, u2 * v1), axis=-3))
    return minus_div_real(plan, t[..., 0, :], t[..., 1, :], t[..., 2, :])


def adjoint_real_grids(cu, cw, grid, rule):
    """P[u . (grad w + grad w^T)] from the real grids u1, u2 and the strain
    entries s, t of [[s, t], [t, -s]]; one field each or stacks."""
    plan = _plan_for(grid, rule)
    u = plan.synthesize(cu)
    S = plan.synthesize(cw, plan.strain)
    u1, u2 = u[..., 0, :, :], u[..., 1, :, :]
    s, t = S[..., 0, :, :], S[..., 1, :, :]
    rhat = plan.analyze(np.stack((u1 * s + u2 * t, u1 * t - u2 * s), axis=-3))
    return project_kept(plan, rhat[..., 0, :], rhat[..., 1, :])


def synthesize_scaling_a_copy(plan, coeffs, symbols=None):
    """``TransformPlan.synthesize`` with the kept modes selected by a boolean
    band mask of its own and the inverse transform scaled into a new array."""
    if symbols is None:
        symbols = plan.velocity
    # n_modes = ((2 N + 1)^2 - 1) / 2 stored modes at cutoff N
    g = grid_for((math.isqrt(2 * plan.n_modes + 1) - 1) // 2)
    band = (np.abs(g.k1) <= plan.kmax) & (np.abs(g.k2) <= plan.kmax)
    vals = coeffs[..., None, band] * symbols
    work = np.zeros(vals.shape[:-1] + plan.shape, dtype=np.complex128)
    plan._scatter(work, vals, "grid")
    n, M = plan.kmax, plan.size
    work[..., M - n :, 0] = np.conj(work[..., n:0:-1, 0])
    return irfft2(work, s=(M, M)) * (M * M)


def analyze_scaling_the_spectrum(plan, phys, with_mean=False):
    """``TransformPlan.analyze`` with the whole spectrum scaled before the
    kept coefficients are gathered."""
    M = plan.size
    spec = rfft2(phys) * (1.0 / (M * M))
    coeffs = np.take(spec.reshape(spec.shape[:-2] + (-1,)), plan.pos, axis=-1)
    return (coeffs, spec[..., 0, 0]) if with_mean else coeffs


def lp_norm_quadrature(field, p, size=512):
    """L^p norm by dense direct evaluation of the basis sum on a big grid."""
    n = field.cutoff
    x = TWO_PI * np.arange(size) / size
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    vel = np.zeros((2, size, size), dtype=np.complex128)
    g = field.grid
    for idx in range(g.n_modes):
        k1, k2 = int(g.k1[idx]), int(g.k2[idx])
        c = field.coeffs[idx]
        kabs = np.hypot(k1, k2)
        phase = np.exp(1j * (k1 * X1 + k2 * X2))
        base = (1j / TWO_PI) / kabs
        vel[0] += 2.0 * np.real(c * base * k2 * phase)
        vel[1] += 2.0 * np.real(c * base * (-k1) * phase)
    speed = np.sqrt(vel[0].real ** 2 + vel[1].real ** 2)
    cell = (TWO_PI / size) ** 2
    return float((np.sum(speed**p) * cell) ** (1.0 / p))


def besov_norm_per_block(u, sigma, p, grid_factor=2):
    """(sum_q 2^(p q sigma) |block_q u|_Lp^p)^(1/p), one lp_norm per
    non-empty block."""
    total = 0.0
    for q in range(block_count(u.cutoff)):
        bq = dyadic_block(u, q)
        if not np.any(bq.coeffs):
            continue
        total += 2.0 ** (p * q * sigma) * lp_norm(bq, p, grid_factor) ** p
    return float(total ** (1.0 / p))


def trajectory_space_norm_two_pass(traj, besov, grid_factor=2):
    """sup_t |.|_{B^sigma_p} plus the L^beta(0,T) norm of |.|_{B^alpha_p},
    one ``besov_norm`` per state and exponent."""
    states = [traj.state(i) for i in range(traj.coeffs.shape[0])]
    sup_term = float(np.max([besov_norm(f, besov.sigma, besov.p, grid_factor) for f in states]))
    vals = np.array([besov_norm(f, besov.alpha, besov.p, grid_factor) for f in states])
    weights = np.full(vals.size, traj.dt)
    weights[0] = weights[-1] = 0.5 * traj.dt
    time_term = float(np.dot(weights, vals**besov.beta) ** (1.0 / besov.beta))
    return sup_term + time_term


def laplace_rhs_probe(functional, u0, cfg, t_final, n_candidates=5, opt=OptimizerSettings()):
    """inf_f (G(f) + I(f)) of a clipped endpoint functional, searched over the
    zero control and the minimum-action paths steered to n_candidates - 1
    endpoints on the segment from the free-decay endpoint to the target: the
    least G + action among them, an upper bound on the infimum."""
    zero = ControlPath.zero(u0.cutoff, cfg.dt, step_count(t_final, cfg.dt))
    free = solve_skeleton(u0, zero, cfg)
    best = functional(free)  # zero-control candidate, zero action
    free_end, tgt = free.coeffs[-1], functional.target.coeffs
    for s in np.linspace(0.0, 1.0, n_candidates)[1:]:
        cand = SpectralField(u0.grid, (1.0 - s) * free_end + s * tgt)
        phi_star, rep = minimize_action(u0, cand, t_final, cfg, opt)
        best = min(best, functional(solve_skeleton(u0, phi_star, cfg)) + rep.action)
    return best


def fixed_weight_infimum_linear(u0, target, weight, t_final, dt):
    """J*(a) = min_phi (1/2)|phi|^2 + a |u(T) - g|_H^2 of the exponential-Euler
    march at b = 0, which splits per stored mode k into
    2a |g_k - e^{-|k|^2 T} u0_k|^2 / (1 + 2a dt psi1(|k|^2 dt)^2 S_k),
    S_k = sum_{m < n} e^{-2 |k|^2 dt m} over the n steps."""
    ksq = u0.grid.ksq
    n = step_count(t_final, dt)
    _, psi1 = exp_weights(ksq * dt)
    S = np.sum(np.exp(-2.0 * ksq[None, :] * dt * np.arange(n)[:, None]), axis=0)
    r = target.coeffs - np.exp(-ksq * t_final) * u0.coeffs
    return float(np.sum(2.0 * weight * np.abs(r) ** 2 / (1.0 + 2.0 * weight * dt * psi1**2 * S)))


def gaussian_mode_variances(grid, spec, t):
    """E|x_k|^2 = eps lambda_k^2 (1 - e^{-2|k|^2 t}) / (2|k|^2) per stored mode
    k, lambda_k^2 = 1 / (1 + delta |k|^(2 gamma)): at b = 0 the controlled
    path minus its skeleton is the Ornstein-Uhlenbeck process from 0, a
    complex Gaussian per mode, independent across modes."""
    ksq = grid.ksq
    lam_sq = 1.0 / (1.0 + spec.delta * ksq**spec.gamma)
    return spec.epsilon * lam_sq * -np.expm1(-2.0 * ksq * t) / (2.0 * ksq)


def gaussian_laplace_value(u0, target, spec, scale, t_final):
    """-eps log E exp(-a |u(T) - g|_H^2 / eps) for the uncontrolled path at
    b = 0, per stored mode c |m_k - g_k|^2 / (1 + c v_k) + eps log(1 + c v_k)
    with c = 2a, m_k = e^{-|k|^2 T} u0_k the mean and eps v_k the variance of
    u_k(T): the first sum is the variational value, the second the exact
    O(eps) gap."""
    c = 2.0 * scale
    v = gaussian_mode_variances(u0.grid, spec, t_final) / spec.epsilon
    m = np.exp(-u0.grid.ksq * t_final) * u0.coeffs
    return float(np.sum(
        c * np.abs(m - target.coeffs) ** 2 / (1.0 + c * v) + spec.epsilon * np.log1p(c * v)
    ))


def continuous_shell_action(u0, target, t_final):
    """min (1/2) int_0^T |phi|_H^2 dt over continuous-time controls that steer
    du/dt = Au + phi from u0 to the target: sum_k |r_k|^2 / int_0^T
    e^{-2|k|^2 s} ds, r = target - e^{-|k|^2 T} u0.  The exponential-Euler
    march's minimum is sum_k |r_k|^2 / (dt psi1^2 S_k), larger per mode by
    (z/2) / tanh(z/2), z = |k|^2 dt."""
    ksq = u0.grid.ksq
    r = target.coeffs - np.exp(-ksq * t_final) * u0.coeffs
    return float(np.sum(np.abs(r) ** 2 * 2.0 * ksq / -np.expm1(-2.0 * ksq * t_final)))


def minimize_action_remarching(u0, target, t_final, cfg, opt=OptimizerSettings(), phi0=None,
                               bound_passes=None):
    """Gradient descent with backtracking on the endpoint-penalized action,
    one full ``action_objective_and_gradient`` call per objective: a trial,
    an accepted control and each penalty round's start all march again.

    A list given as ``bound_passes`` gets one entry per line-search trial:
    whether the trial's control term (1/2)|phi|^2 alone meets the Armijo
    bound."""
    grid = u0.grid
    n = step_count(t_final, cfg.dt)
    phi_vals = (
        phi0.values.copy() if phi0 is not None else np.zeros((n, grid.n_modes), dtype=np.complex128)
    )
    dt = cfg.dt
    weight = opt.initial_penalty
    history = []
    iterations = 0
    converged = False
    for round_idx in range(opt.max_penalty_rounds):
        J, grad, states = action_objective_and_gradient(phi_vals, u0, target, weight, cfg)
        step_size = opt.initial_step
        for _ in range(opt.max_iterations):
            iterations += 1
            gnorm_sq = dt * 2.0 * float(np.sum(np.abs(grad) ** 2))
            if gnorm_sq == 0.0:
                break
            step_size = min(step_size * 2.0, opt.initial_step * 1e6)
            accepted = False
            while step_size >= opt.min_step:
                trial = phi_vals - step_size * grad
                if bound_passes is not None:
                    # (1/2) * dt * 2 * sum|phi|^2; the powers of two are exact
                    control = dt * float(np.sum(np.abs(trial) ** 2))
                    bound_passes.append(control <= J - opt.armijo_constant * step_size * gnorm_sq)
                try:
                    J_trial, _, _ = action_objective_and_gradient(
                        trial, u0, target, weight, cfg, want_gradient=False
                    )
                except IntegrationBlowupError:
                    J_trial = math.inf
                if J_trial <= J - opt.armijo_constant * step_size * gnorm_sq:
                    accepted = True
                    break
                step_size *= opt.backtrack_factor
            if not accepted:
                break
            drop = J - J_trial
            phi_vals = trial
            J, grad, states = action_objective_and_gradient(phi_vals, u0, target, weight, cfg)
            history.append({"round": round_idx, "objective": J, "weight": weight})
            if drop <= opt.relative_tolerance * max(abs(J), 1e-300):
                break
        endpoint_err = h_norm_of(states[-1] - target.coeffs)
        if endpoint_err < opt.endpoint_tolerance:
            converged = True
            break
        if round_idx < opt.max_penalty_rounds - 1:
            weight *= opt.penalty_growth
    phi = ControlPath(grid, dt, phi_vals)
    report = MinimizeReport(
        action=0.5 * phi.l2h_norm_sq(),
        endpoint_error=endpoint_err,
        objective=J,
        penalty_weight=weight,
        iterations=iterations,
        converged=converged,
        history=history,
    )
    return phi, report


def adjoint_gradient_allocating(phi_vals, states, target, weight, cfg, velocity=None):
    """Gradient of the penalized objective by the backward adjoint sweep
    along the marched states, each term in a new array; without
    ``velocity`` each step synthesizes its state's velocity."""
    grid = target.grid
    dt = cfg.dt
    rule = cfg.rule(grid.cutoff)
    decay, psi1 = exp_weights(grid.ksq * dt)
    grad = np.empty_like(phi_vals)
    lam = 2.0 * weight * (states[-1] - target.coeffs)
    for step in range(phi_vals.shape[0] - 1, -1, -1):
        forced = psi1 * lam
        grad[step] = phi_vals[step] + forced
        if step > 0:
            propagated = decay * lam
            if not cfg.disable_nonlinearity:
                propagated = propagated + dt * b_linearized_adjoint_core(
                    states[step], forced, grid, rule,
                    None if velocity is None else velocity[step],
                )
            lam = propagated
    return grad


def march_allocating(grid, u0, n_steps, dt, forcing=None, cfg=None, rate=None,
                     noise_std=None, gen=None):
    """``march`` forming each step in a new array and copying it into its
    slot: one start (n_modes,) or a block (R, n_modes) with one generator
    per row.  Raises IntegrationBlowupError naming the lowest failing row."""
    n_modes = grid.n_modes
    z = (grid.ksq if rate is None else rate) * dt
    decay, psi1 = exp_weights(z)
    gain = dt * psi1
    etd2 = cfg is not None and cfg.scheme == "etd2"
    gain2 = dt * _psi2(z) if etd2 else None
    u0 = np.asarray(u0)
    single = u0.ndim == 1
    n_rows = 1 if single else u0.shape[0]
    gens = [gen] if single else gen
    limit_sq = math.inf if cfg is None else cfg.blowup_threshold**2
    out = np.empty(u0.shape[:-1] + (n_steps + 1, n_modes), dtype=np.complex128)
    out[..., 0, :] = u0
    u = out[..., 0, :]
    for step in range(n_steps):
        unew = decay * u
        if forcing is not None:
            F = forcing(u, step)
            unew += gain * F
            if etd2:
                unew += gain2 * (forcing(unew, step) - F)
        rows = unew.reshape(n_rows, n_modes)
        if noise_std is not None:
            rows += unit_complex_normals(gens, rows.shape, noise_std)
        for r, row in enumerate(rows):
            nrm_sq = 2.0 * np.vdot(row, row).real
            if not nrm_sq <= limit_sq:
                raise IntegrationBlowupError((step + 1) * dt, math.sqrt(abs(nrm_sq)), row=r)
        out[..., step + 1, :] = unew
        u = out[..., step + 1, :]
    return out


def control_states_allocating(phi_vals, u0, cfg):
    """(states, velocity) of ``control_states`` from ``march_allocating``,
    the forcing b(u) + phi formed in a new array by b_core without a buffer
    and each velocity grid synthesized on its own and copied in."""
    grid = u0.grid
    n = phi_vals.shape[0]
    if cfg.disable_nonlinearity:
        return march_allocating(
            grid, u0.coeffs, n, cfg.dt, skeleton_forcing(grid, cfg, phi_vals), cfg
        ), None
    rule = cfg.rule(grid.cutoff)
    plan = _plan_for(grid, rule)
    velocity = np.empty((n, plan.size, plan.size), dtype=np.complex128)

    def forcing(u, step):
        velocity[step] = plan.synthesize_packed(u)
        return b_core(u, grid, rule) + phi_vals[step]

    return march_allocating(grid, u0.coeffs, n, cfg.dt, forcing, cfg), velocity


def unit_complex_normals_assembled(gen, shape, std=None):
    """Complex normals with E|z|^2 = 1 from one (2, *shape) draw, real parts
    first, assembled as (xi[0] + 1j*xi[1]) / sqrt(2) and then multiplied by
    std (a scalar or one real per entry of the last axis) as complex arrays."""
    if isinstance(shape, int):
        shape = (shape,)
    xi = gen.standard_normal((2,) + tuple(shape))
    z = (xi[0] + 1j * xi[1]) / np.sqrt(2.0)
    return z if std is None else std * z


def ou_step_batch_whole(Z, grid, spec, alpha, dt, gen):
    """decay * Z plus the whole step draw, as one array expression."""
    decay, std = ou_transition(grid, spec, alpha, dt)
    g = unit_complex_normals(gen, Z.shape, std)
    return decay[None, :] * Z + g


def l2_powers_whole(W):
    """|w|_{L^2}^2 = 2 sum_k |w_k|^2 of each row of W (rows, n_modes), summed
    as 2 (sum_k Re(w_k)^2 + sum_k Im(w_k)^2) over whole rows."""
    return 2.0 * (np.sum(W.real**2, axis=1) + np.sum(W.imag**2, axis=1))


def lp_log_moment_check_whole(spec, p, replicas, rng, cutoff, alpha=0.0, grid_factor=2):
    """lp_log_moment_check holding all of its stationary samples Z at once."""
    g = grid_for(cutoff)
    gen = as_generator(rng)
    if p == 2:
        samples = l2_powers_whole(stationary_batch(g, spec, alpha, gen, replicas))
        closed = l2_moment_exact(g, spec, alpha)
    else:
        # the check's layout: row batches of SAMPLES_PER_CALL complex entries
        rows = max(1, SAMPLES_PER_CALL // g.n_modes)
        Z = np.concatenate([
            stationary_batch(g, spec, alpha, gen, min(rows, replicas - lo))
            for lo in range(0, replicas, rows)
        ])
        samples = lp_powers(g, Z, p, grid_factor)
        closed = None
    est = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(replicas))
    bound = (spec.epsilon * math.log((1.0 + spec.delta) / spec.delta)) ** (p / 2.0)
    return MomentReport(
        epsilon=spec.epsilon, delta=spec.delta, replicas=replicas, estimate=est,
        stderr=se, bound=bound, ratio=est / bound, closed_form=closed,
    )


def wick_diagonal_whole(g, spec, gen, replicas, keep, weights, shift):
    """sum_k w_k |Z_k|^2 - shift over the modes in keep, for each weight
    vector w, of each stationary sample Z, drawn in batches of 2000 and
    reduced a whole batch at a time: (len(weights), replicas)."""
    sums = [[] for _ in weights]
    for done in range(0, replicas, 2000):
        Z = stationary_batch(g, spec, 0.0, gen, min(2000, replicas - done))[:, keep]
        a2 = np.abs(Z) ** 2
        for acc, w in zip(sums, weights):
            acc.append(a2 @ w - shift)
    return np.array([np.concatenate(acc) for acc in sums])


def march_alone(grid, u0, n_steps, dt, forcing=None, cfg=None, rate=None, noise_std=None,
                gen=None):
    """One state (n_modes,) marched by the exponential step, one draw from gen
    per step; (n_steps + 1, n_modes).  Raises IntegrationBlowupError at the
    first state outside the blow-up threshold."""
    n_modes = grid.n_modes
    z = (grid.ksq if rate is None else rate) * dt
    decay, psi1 = exp_weights(z)
    gain = dt * psi1
    etd2 = cfg is not None and cfg.scheme == "etd2"
    gain2 = dt * _psi2(z) if etd2 else None
    limit_sq = math.inf if cfg is None else cfg.blowup_threshold**2
    out = np.empty((n_steps + 1, n_modes), dtype=np.complex128)
    out[0] = u0
    u = out[0]
    for step in range(n_steps):
        unew = decay * u
        if forcing is not None:
            F = forcing(u, step)
            unew += gain * F
            if etd2:
                unew += gain2 * (forcing(unew, step) - F)
        if noise_std is not None:
            unew += unit_complex_normals_assembled(gen, n_modes, noise_std)
        nrm_sq = 2.0 * np.vdot(unew, unew).real
        if not nrm_sq <= limit_sq:
            raise IntegrationBlowupError((step + 1) * dt, math.sqrt(abs(nrm_sq)))
        out[step + 1] = unew
        u = out[step + 1]
    return out


def controlled_per_replica(u0, phi, spec, cfg, streams):
    """The controlled path of each stream marched on its own, stacked
    (R, n_steps + 1, n_modes)."""
    grid = u0.grid
    forced = phi.values * covariance_weights(grid, spec)[None, :]
    use_noise = spec.epsilon > 0.0
    noise_std = ou_transition(grid, spec, 0.0, phi.dt)[1] if use_noise else None
    return np.stack([
        march_alone(
            grid, u0.coeffs, phi.n_steps, phi.dt, skeleton_forcing(grid, cfg, forced), cfg,
            noise_std=noise_std, gen=s.child(1).generator() if use_noise else None,
        )
        for s in streams
    ])


def besov_moment_check_per_replica(spec, sigma, sigma_prime, p, kappa, horizon, dt,
                                   replicas, rng, cutoff, alpha=0.0, grid_factor=2,
                                   tail_cutoff=512):
    """``besov_moment_check`` with each replica's start and steps drawn and
    marched on its own."""
    g = grid_for(cutoff)
    n_steps = step_count(horizon, dt)
    _, std = ou_transition(g, spec, alpha, dt)
    sups = np.empty(replicas)
    for i in range(replicas):
        gen = rng.child(i).generator()
        z0 = unit_complex_normals_assembled(gen, g.n_modes, stationary_std(g, spec, alpha))
        path = march_alone(g, z0, n_steps, dt, rate=g.ksq + alpha, noise_std=std, gen=gen)
        norms = [besov_norm(SpectralField(g, c), sigma, p, grid_factor) for c in path]
        sups[i] = np.max(norms) ** kappa
    s, _ = lattice_power_sum(2.0 * (sigma_prime - 1.0), cutoff=tail_cutoff)
    bound = (spec.epsilon * s) ** (kappa / 2.0)
    est = float(np.mean(sups))
    return MomentReport(
        epsilon=spec.epsilon,
        delta=spec.delta,
        replicas=replicas,
        estimate=est,
        stderr=float(np.std(sups, ddof=1) / math.sqrt(replicas)),
        bound=bound,
        ratio=est / bound,
    )


def power_integrals_real_grids(plan, coeffs, p, symbols=None):
    """Uniform-grid quadrature of |u(x)|^p over D for each velocity that
    ``plan.synthesize(coeffs, symbols)`` returns as the real grid pair u1,
    u2; shape symbols.shape[:-2]."""
    phys = plan.synthesize(coeffs, symbols)
    speed_sq = phys[..., 0, :, :] ** 2 + phys[..., 1, :, :] ** 2
    return np.sum(speed_sq ** (p / 2), axis=(-2, -1)) * (TWO_PI / plan.size) ** 2


def block_powers_real_grids(grid, coeffs, p, grid_factor=2):
    """|block_q u|_Lp^p of each dyadic block of one state, each block
    synthesized alone as the real grid pair u1, u2 on its
    ``block_grid_size`` grid."""
    cutoff = grid.cutoff
    powers = []
    for q in range(block_count(cutoff)):
        size = block_grid_size(cutoff, q, p, grid_factor)
        plan = transform_plan(cutoff, min(2**q, cutoff), size)
        mask = _block_mask(grid.ksq[plan.keep], q)
        powers.append(power_integrals_real_grids(plan, coeffs, p, mask * plan.velocity))
    return np.array(powers)


def divergence_residual(field):
    """max_k |k . u_hat(k)| / max_k |u_hat(k)| over the reconstructed velocity."""
    vhat = velocity_coeffs_direct(field)
    n = field.cutoff
    freqs = np.arange(-n, n + 1)
    dot = freqs[:, None] * vhat[0] + freqs[None, :] * vhat[1]
    scale = np.max(np.abs(vhat))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(dot)) / scale)


def load_trajectory(path):
    """The trajectory a ``save_trajectory`` file holds, its metadata as strings."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != f"# {TRAJ_HEADER}":
        raise ValueError(f"{path}: not a {TRAJ_HEADER} file")
    cutoff = dt = n_steps = None
    meta = {}
    data_start = None
    for idx, ln in enumerate(lines[1:], start=1):
        if ln.startswith("# cutoff="):
            cutoff = int(ln.split("=", 1)[1])
        elif ln.startswith("# dt="):
            dt = float(ln.split("=", 1)[1])
        elif ln.startswith("# n_steps="):
            n_steps = int(ln.split("=", 1)[1])
        elif ln.startswith("# meta:"):
            key, val = ln[len("# meta:") :].split("=", 1)
            meta[key] = val
        elif ln == "step,k1,k2,re,im":
            data_start = idx + 1
            break
    if None in (cutoff, dt, n_steps) or data_start is None:
        raise ValueError(f"{path}: malformed trajectory header")
    g = grid_for(cutoff)
    coeffs = np.zeros((n_steps + 1, g.n_modes), dtype=np.complex128)
    index = g.mode_index
    for ln in lines[data_start:]:
        if not ln:
            continue
        step, k1, k2, re, im = ln.split(",")
        coeffs[int(step), index[(int(k1), int(k2))]] = float(re) + 1j * float(im)
    return Trajectory(g, dt, coeffs, metadata=meta)
