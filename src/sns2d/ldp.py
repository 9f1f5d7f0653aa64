"""Large-deviation layer: the action functional and the minimum-action
(instanton) descent with its reports.  The Monte Carlo side of the
small-noise limit is ``sns2d.montecarlo``."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ControlPath,
    IntegrationBlowupError,
    IntegratorConfig,
    Trajectory,
    exp_weights,
    march,
    skeleton_forcing,
    step_count,
)
from .fields import SpectralField
from .nonlinear import DealiasRule, b_core, b_linearized_adjoint_core, padded_size
from .spectral import h_norm_of, h_norm_sq


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
    dfdt = np.empty_like(c)
    dfdt[0] = (c[1] - c[0]) / dt
    dfdt[-1] = (c[-1] - c[-2]) / dt
    dfdt[1:-1] = (c[2:] - c[:-2]) / (2.0 * dt)
    grid = f.grid
    # b_core gives each state of the stack the arithmetic of a call of its own
    return ControlPath(grid, dt, dfdt + grid.ksq * c - b_core(c, grid, rule))


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
):
    """Gradient descent with backtracking on the endpoint-penalized action.

    The penalty weight doubles until the endpoint error drops below the
    configured tolerance; returns (control, MinimizeReport) where the report
    carries the discrete action (1/2)|phi*|^2 of the minimizer.

    The descent starts from the zero control over the horizon's steps.
    That control is marched, then every line-search trial whose
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
    phi_vals = np.zeros((step_count(t_final, cfg.dt), grid.n_modes), dtype=np.complex128)
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
