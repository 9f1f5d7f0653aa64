"""Large-deviation layer: action functional, minimum-action paths, and the
convergence, tube-probability and Laplace-principle experiments."""

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import noise as noise_mod
from .dynamics import (
    ControlPath,
    IntegrationBlowupError,
    IntegratorConfig,
    Trajectory,
    exp_weights,
    march,
    skeleton_forcing,
    solve_controlled_block,
    solve_skeleton,
    step_count,
)
from .fields import SpectralField
from .nonlinear import (
    DealiasRule,
    b_core,
    b_linearized_adjoint_core,
    padded_size,
    replicas_per_block,
)
from .noise import NoiseSpec, mean_stderr, replica_values, require_stream, sweep_specs
from .spectral import BesovParams, besov_of_powers, block_powers, h_norm_of, h_norm_sq, sobolev_norm


@dataclass
class ActionReport:
    """Action value with the residual path behind it.

    value = (1/2) * discrete L^2(0,T;H) norm squared of the residual
    f' - Af - b(f).
    """

    value: float
    residual_path: ControlPath
    dt: float


def residual(f: Trajectory, rule: DealiasRule) -> ControlPath:
    """Residual f'(t) - A f(t) - b(f(t)) on the trajectory's grid.

    Time derivative by centered differences (one-sided at the endpoints);
    one value per grid time.
    """
    if f.n_steps < 2:
        raise ValueError("need at least 2 steps to form the residual")
    c = f.coeffs
    dt = f.dt
    n = c.shape[0]
    dfdt = np.empty_like(c)
    dfdt[0] = (c[1] - c[0]) / dt
    dfdt[-1] = (c[-1] - c[-2]) / dt
    dfdt[1:-1] = (c[2:] - c[:-2]) / (2.0 * dt)
    grid = f.grid
    out = np.empty_like(c)
    for i in range(n):
        out[i] = dfdt[i] + grid.ksq * c[i] - b_core(c[i], grid, rule)
    return ControlPath(grid, dt, out)


def action(f: Trajectory, rule: DealiasRule = None) -> ActionReport:
    """Action of a trajectory: trapezoid quadrature of (1/2)|residual|_H^2.

    Paths that are not time-differentiable have no finite action; their
    reported value grows like 1/dt as the time grid is refined.
    """
    if rule is None:
        rule = DealiasRule.two_thirds(f.grid.cutoff)
    res = residual(f, rule)
    sq = h_norm_sq(res.values, axis=1)
    weights = np.full(sq.shape[0], f.dt)
    weights[0] = weights[-1] = 0.5 * f.dt
    return ActionReport(value=0.5 * float(np.dot(weights, sq)), residual_path=res, dt=f.dt)


# ---------------------------------------------------------------------------
# minimum-action (instanton) solver


@dataclass(frozen=True)
class OptimizerSettings:
    max_iterations: int = 500
    relative_tolerance: float = 1e-8
    endpoint_tolerance: float = 1e-3
    initial_penalty: float = 10.0
    penalty_growth: float = 2.0
    max_penalty_rounds: int = 12
    armijo_constant: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    min_step: float = 1e-12

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"OptimizerSettings.{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"OptimizerSettings.{name} must be finite, got {value!r}")
        for name in ("max_iterations", "max_penalty_rounds"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"OptimizerSettings.{name} must be an integer")
        if self.max_penalty_rounds < 1:
            raise ValueError("OptimizerSettings.max_penalty_rounds must be >= 1")
        # a factor of 1 never leaves the backtracking loop
        for name in ("armijo_constant", "backtrack_factor"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"OptimizerSettings.{name} must lie in (0, 1)")
        # a positive weight keeps the endpoint term >= 0, which the line
        # search relies on to reject a trial before marching it
        for name in ("initial_step", "min_step", "initial_penalty", "penalty_growth"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"OptimizerSettings.{name} must be > 0")


@dataclass
class MinimizeReport:
    action: float
    endpoint_error: float
    objective: float
    penalty_weight: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list)

    @property
    def constrained_action(self) -> float:
        """action + 2 weight |u(T) - target|_H^2: the minimizer's action with
        the first-order multiplier correction for the endpoint it missed.
        The penalized minimizer stops short of the target by e, and the
        endpoint multiplier 2 weight e prices that gap; on a linear problem
        the correction leaves an error 1 + 2c times smaller than the
        action's, c = 2 weight dt psi1^2 S_k per mode."""
        return self.action + 2.0 * self.penalty_weight * self.endpoint_error**2


def _require_adjoint_scheme(cfg: IntegratorConfig):
    if cfg.scheme != "exponential_euler":
        raise ValueError("the adjoint gradient is implemented for exponential_euler")


def control_states(phi_vals: np.ndarray, u0: SpectralField, cfg: IntegratorConfig):
    """Forward exponential-Euler march of the skeleton under the control
    values, guarded against blow-up (raises IntegrationBlowupError).

    Returns (states (n + 1, n_modes), velocity): velocity[step] holds the
    complex velocity grid u1 + i u2 (M, M) that the step's b_core
    synthesized from states[step], the grid ``adjoint_gradient`` reads;
    None when the nonlinearity is disabled.
    """
    _require_adjoint_scheme(cfg)
    grid = u0.grid
    n = phi_vals.shape[0]
    velocity = None
    if not cfg.disable_nonlinearity:
        M = padded_size(grid, cfg.rule(grid.cutoff))
        velocity = np.empty((n, M, M), dtype=np.complex128)
    forcing = skeleton_forcing(grid, cfg, phi_vals, velocity)
    return march(grid, u0.coeffs, n, cfg.dt, forcing, cfg), velocity


def control_term(phi_vals, dt: float) -> float:
    """(1/2)|phi|^2_{L2H}, the term of ``penalized_objective`` that needs no march."""
    return 0.5 * (dt * float(h_norm_sq(phi_vals)))


def endpoint_term(final, target: SpectralField, weight: float) -> float:
    """weight |u(T) - target|_H^2 from the marched final state u(T)."""
    mismatch = final - target.coeffs
    return weight * float(h_norm_sq(mismatch))


def penalized_objective(phi_vals, final, target: SpectralField, weight: float, dt: float):
    """J = (1/2)|phi|^2_{L2H} + weight |u(T) - target|_H^2 from the marched u(T)."""
    return control_term(phi_vals, dt) + endpoint_term(final, target, weight)


def adjoint_gradient(
    phi_vals, states, target: SpectralField, weight: float, cfg: IntegratorConfig, velocity,
):
    """Gradient of ``penalized_objective`` in the discrete L^2(0,T;H) metric:
    one backward sweep of the adjoint of the exponential-Euler recursion
    along the marched states.  ``velocity`` is the grids of the march that
    made the states (``control_states``), so the sweep does not synthesize
    them again."""
    _require_adjoint_scheme(cfg)
    grid = target.grid
    dt = cfg.dt
    rule = cfg.rule(grid.cutoff)
    decay, psi1 = exp_weights(grid.ksq * dt)
    grad = np.empty_like(phi_vals)
    lam = 2.0 * weight * (states[-1] - target.coeffs)
    forced = np.empty_like(lam)
    # in place, each product in its operand order: numpy's complex product
    # is not commutative to the last bit
    for step in range(phi_vals.shape[0] - 1, -1, -1):
        np.multiply(psi1, lam, out=forced)
        np.add(phi_vals[step], forced, out=grad[step])
        if step > 0:
            np.multiply(decay, lam, out=lam)
            if not cfg.disable_nonlinearity:
                nonlinear = b_linearized_adjoint_core(
                    states[step], forced, grid, rule, velocity[step]
                )
                lam += np.multiply(dt, nonlinear, out=nonlinear)
    return grad


def action_objective_and_gradient(
    phi_vals: np.ndarray,
    u0: SpectralField,
    target: SpectralField,
    weight: float,
    cfg: IntegratorConfig,
    want_gradient: bool = True,
):
    """Penalized objective J = (1/2)|phi|^2_{L2H} + weight |u(T) - target|_H^2
    and its gradient in the discrete L^2(0,T;H) metric, via the adjoint of the
    exponential-Euler recursion.  A forward pass that blows up raises
    IntegrationBlowupError.  Returns (J, gradient or None, states)."""
    states, velocity = control_states(phi_vals, u0, cfg)
    J = penalized_objective(phi_vals, states[-1], target, weight, cfg.dt)
    grad = (
        adjoint_gradient(phi_vals, states, target, weight, cfg, velocity)
        if want_gradient
        else None
    )
    return J, grad, states


def minimize_action(
    u0: SpectralField,
    target: SpectralField,
    t_final: float,
    cfg: IntegratorConfig,
    opt: OptimizerSettings = OptimizerSettings(),
    phi0: ControlPath = None,
):
    """Gradient descent with backtracking on the endpoint-penalized action.

    The penalty weight doubles until the endpoint error drops below the
    configured tolerance; returns (control, MinimizeReport) where the report
    carries the discrete action (1/2)|phi*|^2 of the minimizer.

    The initial control is marched, then every line-search trial whose
    control term alone does not already fail the Armijo test.  The endpoint
    term is >= 0, so the objective of a trial that does would fail it too,
    and the trial is rejected unmarched: every accept or reject is the one a
    march would give.  Each iteration's gradient costs one adjoint sweep,
    swept at the top of the iteration that reads it: an accepted step that
    ends its round costs none.

    The sweep reads the velocity grids of the march that made its states,
    n_steps x M^2 complex numbers u1 + i u2 on the rule's padded M x M
    grid.  After it only u(T) of that march is kept, which is all the
    objective reads, so a new penalty round's objective costs no march.  A
    rejected trial's march is dropped as soon as it is rejected, and each
    trial phi - step * grad is formed in one reused buffer.  At its peak
    the descent holds the control, its gradient, one trial, and the states
    and grids of the one march in flight.
    The first sweep of a penalty round whose predecessor's last iteration
    accepted no step (its line search failed, or its gradient vanished)
    finds the states gone: it marches the control swept last again, for the
    same states and grids bit for bit, at the cost of one march.
    """
    _require_adjoint_scheme(cfg)
    grid = u0.grid
    n = step_count(t_final, cfg.dt)
    if phi0 is not None and (phi0.n_steps != n or abs(phi0.dt - cfg.dt) > 1e-12 * cfg.dt):
        raise ValueError(
            f"initial control has {phi0.n_steps} steps of dt={phi0.dt}; the horizon "
            f"t_final={t_final} needs {n} steps of dt={cfg.dt}"
        )
    phi_vals = (
        phi0.values.copy() if phi0 is not None else np.zeros((n, grid.n_modes), dtype=np.complex128)
    )
    dt = cfg.dt
    weight = opt.initial_penalty
    history = []
    iterations = 0
    converged = False
    trial = np.empty_like(phi_vals)
    states, velocity = control_states(phi_vals, u0, cfg)
    final = states[-1]
    for round_idx in range(opt.max_penalty_rounds):
        J = penalized_objective(phi_vals, final, target, weight, dt)
        grad = None
        step_size = opt.initial_step
        for _ in range(opt.max_iterations):
            iterations += 1
            if grad is None:
                if states is None:  # the last round swept this control and dropped its states
                    states, velocity = control_states(phi_vals, u0, cfg)
                grad = adjoint_gradient(phi_vals, states, target, weight, cfg, velocity)
                # of the march only u(T) is read again; the rest goes before a trial marches
                final, states, velocity = states[-1].copy(), None, None
            gnorm_sq = dt * float(h_norm_sq(grad))
            if gnorm_sq == 0.0:
                break
            step_size = min(step_size * 2.0, opt.initial_step * 1e6)
            accepted = False
            while step_size >= opt.min_step:
                # phi_vals - step_size * grad in the one trial buffer: a fresh
                # array per trial leaves the same traced peak but a larger RSS
                np.subtract(phi_vals, np.multiply(step_size, grad, out=trial), out=trial)
                bound = J - opt.armijo_constant * step_size * gnorm_sq
                control = control_term(trial, dt)
                if control <= bound:  # otherwise J_trial >= control > bound
                    try:
                        states, velocity = control_states(trial, u0, cfg)
                    except IntegrationBlowupError:  # a runaway trial is a rejected step
                        pass
                    else:
                        J_trial = control + endpoint_term(states[-1], target, weight)
                        if J_trial <= bound:
                            accepted = True
                            break
                        states = velocity = None  # a rejected trial's march goes at once
                step_size *= opt.backtrack_factor
            if not accepted:
                break
            drop = J - J_trial
            # the next iteration sweeps for the gradient, if there is one; the
            # old control's buffer takes the next trial
            phi_vals, trial, final, J, grad = trial, phi_vals, states[-1], J_trial, None
            history.append({"round": round_idx, "objective": J, "weight": weight})
            if drop <= opt.relative_tolerance * max(abs(J), 1e-300):
                break
        endpoint_err = h_norm_of(final - target.coeffs)
        if endpoint_err < opt.endpoint_tolerance:
            converged = True
            break
        if round_idx < opt.max_penalty_rounds - 1:
            weight *= opt.penalty_growth
    report = MinimizeReport(
        action=control_term(phi_vals, dt),
        endpoint_error=endpoint_err,
        objective=J,
        penalty_weight=weight,
        iterations=iterations,
        converged=converged,
        history=history,
    )
    return ControlPath(grid, dt, phi_vals), report


# ---------------------------------------------------------------------------
# convergence experiments


@dataclass
class ConvergenceReport:
    """Distance-versus-epsilon sweep with a fitted log-log decay slope."""

    norm: str
    epsilons: list
    deltas: list
    means: list
    stderrs: list
    replicas: int
    slope: float
    slope_stderr: float

    def rows(self):
        return [
            {
                "epsilon": e,
                "delta": d,
                "mean_distance": m,
                "stderr": s,
                "replicas": self.replicas,
            }
            for e, d, m, s in zip(self.epsilons, self.deltas, self.means, self.stderrs)
        ]


def fit_loglog(xs, ys):
    """OLS slope of log(y) against log(x) with its standard error."""
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 sweep points to fit a slope")
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    s_sq = float(np.dot(resid, resid)) / (n - 2)
    return slope, math.sqrt(s_sq / float(np.dot(xc, xc)))


def controlled_values(u0, phi, spec: NoiseSpec, cfg: IntegratorConfig, member, replicas, value):
    """value(path) of each of the member's controlled paths under phi at
    spec, replica r on member.child(r), marched in blocks of as many as one
    b_core synthesis holds."""
    return replica_values(
        member, replicas, replicas_per_block(u0.grid, cfg.rule(u0.cutoff)),
        partial(solve_controlled_block, u0, phi, spec, cfg), value,
    )


def _sweep_distances(norm, u0, phi, schedule, gamma, epsilons, replicas, cfg, rng, distance):
    """The convergence sweeps' shared tail: the mean distance(path, skeleton)
    of each member's replicas, replica r of member i (epsilons descending) on
    rng.child(i).child(r), and the log-log slope of the means."""
    stream = require_stream(rng)
    skeleton = solve_skeleton(u0, phi, cfg)
    specs = sweep_specs(schedule, epsilons, gamma)
    stats = [
        mean_stderr(controlled_values(
            u0, phi, spec, cfg, stream.child(i), replicas, lambda traj: distance(traj, skeleton)
        ))
        for i, spec in enumerate(specs)
    ]
    eps_s, means = [s.epsilon for s in specs], [m for m, _ in stats]
    return ConvergenceReport(
        norm, eps_s, [s.delta for s in specs], means, [se for _, se in stats], replicas,
        *fit_loglog(eps_s, means),
    )


def h_convergence_experiment(
    u0: SpectralField,
    phi: ControlPath,
    schedule,
    eta: float,
    epsilons,
    replicas: int,
    cfg: IntegratorConfig,
    rng,
    gamma: float = 1.0,
    force: bool = False,
) -> ConvergenceReport:
    """Coupled sup-in-time H distance between the controlled solution and the
    skeleton solution across a noise sweep.

    Requires the schedule to satisfy both delta(eps) -> 0 and the scaling
    condition eps * delta(eps)^(-eta) -> 0 (checked along the sweep; the
    latter can be overridden with force=True for negative controls).  The
    pathwise same-grid coupling upper-bounds the distributional convergence
    being probed.  Replica r of member i (epsilons descending) runs on
    rng.child(i).child(r).
    """
    noise_mod.validate_vanishing_schedule(schedule, epsilons)
    noise_mod.validate_scaling_condition(schedule, epsilons, eta, force=force)
    return _sweep_distances(
        "H", u0, phi, schedule, gamma, epsilons, replicas, cfg, rng,
        distance=lambda a, b: a.sup_h_distance(b),
    )


def besov_convergence_experiment(
    u0: SpectralField,
    phi: ControlPath,
    besov: BesovParams,
    schedule,
    epsilons,
    replicas: int,
    cfg: IntegratorConfig,
    rng,
    gamma: float = 1.0,
    grid_factor: int = 2,
) -> ConvergenceReport:
    """Same sweep, on the same replica streams, measured in sup-in-time Besov
    norm; only delta(eps) -> 0 is required of the schedule.  The initial
    condition must carry the Sobolev regularity sigma + 1 - 2/p demanded of
    the Besov exponents."""
    besov.validate()
    noise_mod.validate_vanishing_schedule(schedule, epsilons)
    theta = besov.min_initial_regularity()
    if not math.isfinite(sobolev_norm(u0, max(theta, 0.0))):
        raise ValueError(f"initial condition lacks H^{theta} regularity")

    def distance(a, b):
        powers = block_powers(a.grid, a.difference(b), besov.p, grid_factor)
        return float(np.max(besov_of_powers(powers, besov.sigma, besov.p)))

    return _sweep_distances(
        f"B^{besov.sigma}_{besov.p}", u0, phi, schedule, gamma, epsilons, replicas, cfg, rng,
        distance,
    )


def trajectory_space_norm(
    traj: Trajectory, besov: BesovParams, grid_factor: int = 2
) -> float:
    """sup_t |.|_{B^sigma_p} plus the L^beta(0,T) norm of |.|_{B^alpha_p}.

    Both terms weight the same block powers, computed once per state."""
    powers = block_powers(traj.grid, traj.coeffs, besov.p, grid_factor)
    sup_term = float(np.max(besov_of_powers(powers, besov.sigma, besov.p)))
    vals = besov_of_powers(powers, besov.alpha, besov.p)
    weights = np.full(vals.size, traj.dt)
    weights[0] = weights[-1] = 0.5 * traj.dt
    time_term = float(np.dot(weights, vals**besov.beta) ** (1.0 / besov.beta))
    return sup_term + time_term


# ---------------------------------------------------------------------------
# tube probabilities and the Laplace principle


@dataclass
class TubeReport:
    radius: float
    p_hat: float
    ci_low: float
    ci_high: float
    hits: int
    replicas: int
    distances: np.ndarray = None

    def at_radius(self, radius: float) -> "TubeReport":
        """Re-threshold the stored sample of sup distances (same paths)."""
        return _tube_from_distances(self.distances, radius)


def wilson_interval(hits: int, n: int, z: float = 1.96):
    if n == 0:
        raise ValueError("empty sample")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _tube_from_distances(distances, radius):
    n = distances.size
    hits = int(np.sum(distances <= radius))
    lo, hi = wilson_interval(hits, n)
    return TubeReport(
        radius=float(radius),
        p_hat=hits / n,
        ci_low=lo,
        ci_high=hi,
        hits=hits,
        replicas=n,
        distances=distances,
    )


def tube_probability(
    u0: SpectralField,
    center: Trajectory,
    radius: float,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    replicas: int,
    rng,
) -> TubeReport:
    """Monte Carlo probability that the stochastic path stays within the
    given sup-in-time H radius of the center trajectory (Wilson interval).

    When no path hits, p_hat = 0 and the upper confidence bound is the
    informative part of the report.  Replica r runs on rng.child(r).
    """
    zero = ControlPath.zero(u0.cutoff, cfg.dt, step_count(center.t_final, cfg.dt))
    dists = controlled_values(
        u0, zero, spec, cfg, rng, replicas, lambda traj: traj.sup_h_distance(center)
    )
    return _tube_from_distances(dists, radius)


class ClippedEndpointDistance:
    """Bounded continuous trajectory functional a * |u(T) - target|_H^2,
    clipped at a ceiling (keeps exponential moments finite).  The scale must
    be > 0: the Laplace check's variational side is a descent at weight scale."""

    def __init__(self, target: SpectralField, scale: float = 1.0, clip: float = 10.0):
        if not scale > 0:  # NaN included
            raise ValueError(f"ClippedEndpointDistance scale must be > 0, got {scale!r}")
        self.target = target
        self.scale = scale
        self.clip = clip

    def __call__(self, traj: Trajectory) -> float:
        d = h_norm_of(traj.coeffs[-1] - self.target.coeffs)
        return min(self.clip, self.scale * d * d)


class ConstantFunctional:
    def __init__(self, value: float):
        self.value = value

    def __call__(self, traj: Trajectory) -> float:
        return self.value


@dataclass
class LaplaceReport:
    epsilons: list
    lhs: list
    ess: list
    rhs: float
    variance_flag: bool

    def rows(self):
        return [
            {"epsilon": e, "lhs": l, "rhs": self.rhs, "gap": abs(l - self.rhs), "ess": s}
            for e, l, s in zip(self.epsilons, self.lhs, self.ess)
        ]


def laplace_check(
    functional,
    u0: SpectralField,
    schedule,
    epsilons,
    replicas: int,
    cfg: IntegratorConfig,
    t_final: float,
    rng,
    gamma: float = 1.0,
    opt: OptimizerSettings = OptimizerSettings(),
) -> LaplaceReport:
    """Monte Carlo Laplace functional -eps log E exp(-G(u)/eps) across a noise
    sweep against the variational value inf_f (G(f) + I(f)).

    For a constant G the infimum is the constant.  For the clipped endpoint
    functional G(f) = min(c, a |f(T) - g|_H^2) it is min(c, J*(a)): the free
    decay has I = 0, and J*(a) = min_phi (1/2)|phi|^2 + a |u(T) - g|_H^2 is
    what one penalty round of ``minimize_action`` at the fixed weight a minimizes.
    Flags the sweep when the exponential estimator's effective sample size
    degenerates.  Replica r of member i (epsilons descending) runs on
    rng.child(i).child(r).
    """
    stream = require_stream(rng)
    if isinstance(functional, ConstantFunctional):
        rhs = functional.value
    else:
        _, rep = minimize_action(
            u0, functional.target, t_final, cfg,
            replace(opt, initial_penalty=functional.scale, max_penalty_rounds=1),
        )
        rhs = min(functional.clip, rep.objective)
    zero = ControlPath.zero(u0.cutoff, cfg.dt, step_count(t_final, cfg.dt))
    specs = sweep_specs(schedule, epsilons, gamma)
    lhs, ess_list = [], []
    for i, spec in enumerate(specs):
        eps = spec.epsilon
        vals = controlled_values(u0, zero, spec, cfg, stream.child(i), replicas, functional)
        w = np.exp(-(vals - vals.min()) / eps)
        ess = float(w.sum() ** 2 / np.dot(w, w))
        log_mean = math.log(float(np.mean(w))) - vals.min() / eps
        lhs.append(-eps * log_mean)
        ess_list.append(ess)
    # exponential reweighting degenerates when few paths carry all the mass
    flag = any(e < min(max(10.0, 0.01 * replicas), 0.5 * replicas) for e in ess_list)
    return LaplaceReport(
        epsilons=[s.epsilon for s in specs],
        lhs=lhs,
        ess=ess_list,
        rhs=rhs,
        variance_flag=flag,
    )
