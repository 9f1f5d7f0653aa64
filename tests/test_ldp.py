import ast
import dataclasses
import itertools
import math
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

import sns2d
from sns2d import (
    BesovParams,
    ControlPath,
    DealiasRule,
    IntegratorConfig,
    NoiseSpec,
    OptimizerSettings,
    PowerSchedule,
    RngStream,
    SpectralField,
    action,
    besov_convergence_experiment,
    besov_moment_check,
    h_convergence_experiment,
    laplace_check,
    lp_log_moment_check,
    minimize_action,
    residual,
    taylor_green,
    tube_probability,
)
from sns2d import ldp, montecarlo
from sns2d.dynamics import (
    Trajectory,
    solve_controlled,
    solve_controlled_block,
    solve_skeleton,
    step_count,
)
from sns2d.grid import TransformPlan, grid_for
from sns2d.ldp import action_objective_and_gradient, control_term
from sns2d.montecarlo import (
    ClippedEndpointDistance,
    ConstantFunctional,
    fit_loglog,
    trajectory_space_norm,
    wilson_interval,
)
from sns2d.noise import unit_complex_normals
from sns2d.nonlinear import padded_size

import _oracles


def generic_field(cutoff=8, amplitude=0.3, seed=2):
    return taylor_green(cutoff, 1.0) + SpectralField.random(
        cutoff, np.random.default_rng(seed), amplitude=amplitude, decay=1.0
    )


def varying_control(cutoff, dt, n):
    f1 = SpectralField.from_modes(cutoff, {(1, 0): 0.5}).coeffs
    f2 = SpectralField.from_modes(cutoff, {(2, 1): 0.25 - 0.1j}).coeffs
    t = np.arange(n) * dt
    vals = np.cos(2 * np.pi * t)[:, None] * f1[None, :]
    vals += np.sin(4 * t)[:, None] * f2[None, :]
    return ControlPath(grid_for(cutoff), dt, vals)


# ------------------------------------------------------------ residual/action


def test_residual_of_constant_single_mode_trajectory():
    # f constant in time: residual = -Af - b(f); b vanishes on a pair mode
    f = SpectralField.from_modes(6, {(2, 0): 0.7})
    coeffs = np.tile(f.coeffs, (11, 1))
    traj = Trajectory(f.grid, 0.05, coeffs)
    res = residual(traj, DealiasRule.two_thirds(6))
    for i in (0, 5, 10):
        assert np.allclose(res.values[i], 4.0 * f.coeffs, rtol=1e-13)


def test_residual_requires_two_steps():
    f = SpectralField.from_modes(6, {(1, 0): 1.0})
    traj = Trajectory(f.grid, 0.1, np.tile(f.coeffs, (2, 1)))
    with pytest.raises(ValueError):
        residual(traj, DealiasRule.two_thirds(6))


def smooth_field(cutoff=8):
    # low-mode data: divided differences resolve every retained decay rate
    return taylor_green(cutoff, 1.0) + SpectralField.from_modes(
        cutoff, {(2, 1): 0.2 - 0.1j, (0, 3): 0.1j, (3, 2): 0.05}
    )


def test_residual_recovers_constant_control():
    u0 = smooth_field()
    dt = 0.005
    f = SpectralField.from_modes(8, {(1, 0): 0.5})
    phi = ControlPath.constant(f, dt, round(0.2 / dt))
    traj = solve_skeleton(u0, phi, IntegratorConfig(dt=dt))
    res = residual(traj, DealiasRule.two_thirds(8))
    interior = res.values[1:-1] - f.coeffs[None, :]
    err = np.max(np.sqrt(2.0 * np.sum(np.abs(interior) ** 2, axis=1)))
    assert err < 2e-2


def test_action_duality_under_refinement():
    u0 = smooth_field()
    gaps = []
    dts = (0.02, 0.01, 0.005)
    for dt in dts:
        phi = varying_control(8, dt, round(0.4 / dt))
        traj = solve_skeleton(u0, phi, IntegratorConfig(dt=dt))
        cost = control_term(phi.values, phi.dt)
        gaps.append(abs(action(traj).value - cost) / cost)
    slope, _ = fit_loglog(dts, gaps)
    assert slope >= 1.0
    assert gaps[-1] < 0.02


def test_free_decay_action_vanishes_under_refinement():
    u0 = smooth_field()
    vals = []
    for dt in (0.02, 0.01, 0.005):
        phi = ControlPath.zero(8, dt, round(0.3 / dt))
        traj = solve_skeleton(u0, phi, IntegratorConfig(dt=dt))
        vals.append(action(traj).value)
    assert vals[-1] < vals[0]
    assert vals[-1] < 1e-4


def refined_actions(f, strides=(8, 4, 2, 1)):
    """The action of f subsampled at each stride, coarse to fine."""
    return [action(Trajectory(f.grid, f.dt * s, f.coeffs[::s].copy())).value for s in strides]


def diverging(actions):
    """Growing at every refinement and more than 1.5 times the coarsest."""
    return all(b > a for a, b in zip(actions, actions[1:])) and actions[-1] > 1.5 * actions[0]


def test_rough_path_action_diverges():
    # stationary OU path: difference quotients scale like 1/dt
    spec = NoiseSpec(epsilon=0.5, delta=0.1, gamma=1.0)
    cfg = IntegratorConfig(dt=0.00125, disable_nonlinearity=True)
    zero = ControlPath.zero(6, 0.00125, 160)
    traj = solve_controlled(SpectralField.zero(6), zero, spec, cfg, RngStream(17))
    actions = refined_actions(traj)
    assert diverging(actions)
    assert actions[-1] > 3.0 * actions[0]
    # a smooth path under the same refinement stabilizes
    smooth = solve_skeleton(generic_field(6), zero, IntegratorConfig(dt=0.00125))
    assert not diverging(refined_actions(smooth))


# ------------------------------------------------------- minimization


def test_adjoint_gradient_matches_finite_differences():
    cfg = IntegratorConfig(dt=0.025)
    u0 = taylor_green(6, 0.5)
    rng = np.random.default_rng(14)
    target = SpectralField.random(6, rng, amplitude=0.2, decay=1.0)
    n = round(0.25 / cfg.dt)
    g = grid_for(6)
    phi = 0.2 * unit_complex_normals(rng, (n, g.n_modes))
    J, grad, _ = action_objective_and_gradient(phi, u0, target, 5.0, cfg)
    h = 1e-6
    for _ in range(5):
        d = unit_complex_normals(rng, phi.shape)
        Jp, _, _ = action_objective_and_gradient(
            phi + h * d, u0, target, 5.0, cfg, want_gradient=False
        )
        Jm, _, _ = action_objective_and_gradient(
            phi - h * d, u0, target, 5.0, cfg, want_gradient=False
        )
        fd = (Jp - Jm) / (2 * h)
        pairing = cfg.dt * 2.0 * float(np.real(np.sum(grad * np.conj(d))))
        assert abs(fd - pairing) <= 1e-5 * abs(fd)


def test_adjoint_gradient_requires_exponential_euler():
    cfg = IntegratorConfig(dt=0.05, scheme="etd2")
    u0 = taylor_green(6, 0.5)
    with pytest.raises(ValueError):
        action_objective_and_gradient(
            np.zeros((4, u0.grid.n_modes), complex), u0, u0, 1.0, cfg
        )


def test_minimize_action_reachable_target_is_free():
    u0 = generic_field(6)
    cfg = IntegratorConfig(dt=0.02)
    free = solve_skeleton(u0, ControlPath.zero(6, 0.02, 10), cfg)
    phi_star, rep = minimize_action(
        u0, free.final(), 0.2, cfg, OptimizerSettings(endpoint_tolerance=1e-8)
    )
    assert rep.action <= 1e-12
    assert rep.endpoint_error <= 1e-8
    assert rep.converged


RIDGE_CASES = {
    # with the nonlinearity disabled the penalized problem splits per mode
    "linear_N4": lambda: (
        IntegratorConfig(dt=0.02, disable_nonlinearity=True),
        generic_field(4, amplitude=0.4),
        SpectralField.random(4, np.random.default_rng(8), amplitude=0.3, decay=1.0),
    ),
    # both fields lie in the shell |k|^2 = 2, so every state and multiplier is
    # a multiple of one Taylor-Green field: b(u, u) and the adjoint term
    # vanish and the same split holds with the nonlinearity on
    "taylor_green_N8": lambda: (
        IntegratorConfig(dt=0.02), taylor_green(8, 0.5), taylor_green(8, 0.8)
    ),
    "taylor_green_N16": lambda: (
        IntegratorConfig(dt=0.02), taylor_green(16, 0.5), taylor_green(16, 0.8)
    ),
}


@pytest.mark.parametrize("case", sorted(RIDGE_CASES))
def test_minimize_action_linear_matches_per_mode_ridge(case):
    cfg, u0, target = RIDGE_CASES[case]()
    t_final = 0.2
    weight = 2.0
    opt = OptimizerSettings(
        max_iterations=4000,
        relative_tolerance=1e-16,
        endpoint_tolerance=1e9,
        initial_penalty=weight,
        max_penalty_rounds=1,
    )
    phi_star, rep = minimize_action(u0, target, t_final, cfg, opt)
    g = u0.grid
    n = round(t_final / cfg.dt)
    z = g.ksq * cfg.dt
    m = np.exp(-z)
    a = cfg.dt * (-np.expm1(-z) / z)
    powers = m[None, :] ** np.arange(n - 1, -1, -1)[:, None]
    S = np.sum(powers**2, axis=0)
    r = (m**n * u0.coeffs - target.coeffs) / (1.0 + 2.0 * weight * a**2 * S / cfg.dt)
    oracle = -(2.0 * weight * a / cfg.dt)[None, :] * powers * r[None, :]
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(phi_star.values - oracle)) < 1e-6 * scale
    J_oracle, _, _ = action_objective_and_gradient(
        oracle, u0, target, weight, cfg, want_gradient=False
    )
    assert rep.objective <= J_oracle * (1.0 + 1e-10)


def test_minimize_action_penalty_rounds_hit_endpoint():
    u0 = generic_field(6, amplitude=0.2)
    cfg = IntegratorConfig(dt=0.02)
    target = 0.6 * solve_skeleton(u0, ControlPath.zero(6, 0.02, 10), cfg).final()
    opt = OptimizerSettings(endpoint_tolerance=5e-3, max_iterations=200)
    phi_star, rep = minimize_action(u0, target, 0.2, cfg, opt)
    assert rep.converged
    assert rep.endpoint_error < 5e-3
    assert rep.action > 0.0
    assert rep.action == pytest.approx(control_term(phi_star.values, phi_star.dt), rel=1e-12)


def _descent_case(name):
    """(u0, target, t_final, cfg, opt) of the descents pinned to the oracle."""
    if name == "penalty_rounds":
        u0 = generic_field(6, amplitude=0.2)
        cfg = IntegratorConfig(dt=0.02)
        target = 0.6 * solve_skeleton(u0, ControlPath.zero(6, 0.02, 10), cfg).final()
        return u0, target, 0.2, cfg, OptimizerSettings(endpoint_tolerance=5e-3, max_iterations=200)
    if name == "runaway_trials":
        return (
            taylor_green(4, 0.5), taylor_green(4, 0.8), 0.1, IntegratorConfig(dt=0.01),
            OptimizerSettings(initial_step=1e6, max_iterations=50),
        )
    # neither end is a Taylor-Green state, so b(u, u) is far from roundoff
    target = SpectralField.random(6, np.random.default_rng(5), amplitude=0.3, decay=1.0)
    opt = OptimizerSettings(endpoint_tolerance=2e-2, max_iterations=30)
    return generic_field(6, amplitude=0.3), target, 0.1, IntegratorConfig(dt=0.02), opt


DESCENT_CASES = ("penalty_rounds", "runaway_trials", "generic_target")


@pytest.mark.parametrize("name", DESCENT_CASES)
def test_minimize_action_is_the_remarching_descent_with_one_march_per_control(name, monkeypatch):
    # the oracle's line-search trials are its objective calls without a
    # gradient; only those whose control term meets the Armijo bound march
    case = _descent_case(name)
    trials, passes, marches = [], [], []
    objective, march = _oracles.action_objective_and_gradient, ldp.march

    def count_trials(*args, **kwargs):
        trials.append(not kwargs.get("want_gradient", True))
        return objective(*args, **kwargs)

    def count_marches(*args, **kwargs):
        marches.append(args)
        return march(*args, **kwargs)

    monkeypatch.setattr(_oracles, "action_objective_and_gradient", count_trials)
    phi_ref, ref = _oracles.minimize_action_remarching(*case, bound_passes=passes)
    monkeypatch.undo()
    monkeypatch.setattr(ldp, "march", count_marches)
    phi, rep = minimize_action(*case)
    assert np.array_equal(phi.values, phi_ref.values)
    assert rep == ref  # every field, the history included, exactly
    assert len({h["round"] for h in rep.history}) > 1
    assert sum(trials) > 0
    assert len(passes) == sum(trials)
    assert not all(passes)  # each case has a trial rejected unmarched
    assert len(marches) == sum(passes) + 1


@pytest.mark.parametrize("name", DESCENT_CASES)
def test_minimize_action_sweeps_the_adjoint_once_per_iteration(name, monkeypatch):
    # weights of the adjoint sweeps: each penalty round has its own weight
    sweeps = []
    gradient = ldp.adjoint_gradient

    def count_sweeps(phi_vals, states, target, weight, *args, **kwargs):
        sweeps.append(weight)
        return gradient(phi_vals, states, target, weight, *args, **kwargs)

    monkeypatch.setattr(ldp, "adjoint_gradient", count_sweeps)
    case = _descent_case(name)
    _, ref = _oracles.minimize_action_remarching(*case)
    # the remarching descent sweeps at each round's start and each accepted step
    remarching = len(sweeps)
    rounds = len(set(sweeps))
    assert remarching == rounds + len(ref.history)
    sweeps.clear()
    _, rep = minimize_action(*case)
    assert rep == ref
    assert len(set(sweeps)) == rounds
    # a round sweeps once per iteration: at its start and after each accepted
    # step it goes on from; one that ends on an accepted step sweeps for none
    for weight in set(sweeps):
        accepted = sum(h["weight"] == weight for h in rep.history)
        assert sweeps.count(weight) in (accepted, accepted + 1)
    assert len(sweeps) == rep.iterations
    assert len(sweeps) < remarching


def _gradient_case(name):
    """(phi, u0, target, weight, cfg): a generic control on a descent case's
    ends, or on generic_target's with the nonlinearity disabled."""
    linear = name == "disable_nonlinearity"
    u0, target, t_final, cfg, _ = _descent_case("generic_target" if linear else name)
    if linear:
        cfg = IntegratorConfig(dt=cfg.dt, disable_nonlinearity=True)
    n = round(t_final / cfg.dt)
    phi = 0.2 * unit_complex_normals(np.random.default_rng(3), (n, u0.grid.n_modes))
    return phi, u0, target, 5.0, cfg


@pytest.mark.parametrize("name", DESCENT_CASES + ("disable_nonlinearity",))
def test_adjoint_gradient_from_march_grids_is_the_resynthesizing_sweep(name):
    phi, u0, target, weight, cfg = _gradient_case(name)
    states, velocity = ldp.control_states(phi, u0, cfg)
    assert (velocity is None) == cfg.disable_nonlinearity
    want = _oracles.adjoint_gradient_allocating(phi, states, target, weight, cfg)
    # the in-place sweep gives the allocating sweep's bits, with grids or without
    assert np.array_equal(
        _oracles.adjoint_gradient_allocating(phi, states, target, weight, cfg, velocity), want
    )
    assert np.array_equal(ldp.adjoint_gradient(phi, states, target, weight, cfg, velocity), want)
    _, grad, marched = action_objective_and_gradient(phi, u0, target, weight, cfg)
    assert np.array_equal(marched, states)
    assert np.array_equal(grad, want)


@pytest.mark.parametrize("linear", [False, True])
def test_control_states_in_place_are_the_allocating_march_and_its_grids(linear):
    # N=32, the descent's size: 64 x 64 velocity grids
    cfg = IntegratorConfig(dt=0.01, disable_nonlinearity=linear)
    u0 = generic_field(32, amplitude=0.3)
    phi = 0.2 * unit_complex_normals(np.random.default_rng(4), (6, u0.grid.n_modes))
    states, velocity = ldp.control_states(phi, u0, cfg)
    want_states, want_velocity = _oracles.control_states_allocating(phi, u0, cfg)
    assert np.array_equal(states, want_states)
    if linear:
        assert velocity is None and want_velocity is None
    else:
        assert velocity.shape == (6, 64, 64)
        assert np.array_equal(velocity, want_velocity)
    target = taylor_green(32, 0.8)
    assert np.array_equal(
        ldp.adjoint_gradient(phi, states, target, 5.0, cfg, velocity),
        _oracles.adjoint_gradient_allocating(phi, want_states, target, 5.0, cfg, want_velocity),
    )


def test_a_sweep_over_march_grids_synthesizes_only_the_strain_grids(monkeypatch):
    phi, u0, target, weight, cfg = _gradient_case("generic_target")
    states, velocity = ldp.control_states(phi, u0, cfg)
    # one complex grid u1 + i u2 per step: the bytes of two real grids
    M = padded_size(u0.grid, cfg.rule(u0.grid.cutoff))
    assert velocity.shape == (phi.shape[0], M, M) and velocity.dtype == np.complex128
    calls = []
    synthesize_packed = TransformPlan.synthesize_packed

    def counted(plan, *args, **kwargs):
        calls.append(plan)
        return synthesize_packed(plan, *args, **kwargs)

    monkeypatch.setattr(TransformPlan, "synthesize_packed", counted)
    monkeypatch.setattr(TransformPlan, "synthesize", None)  # no real-grid synthesis
    n_steps = phi.shape[0]
    ldp.adjoint_gradient(phi, states, target, weight, cfg, velocity)
    # one complex strain grid s + i t per step
    assert len(calls) == n_steps - 1


@pytest.mark.parametrize("failing_line_searches", [False, True])
@pytest.mark.parametrize("name", DESCENT_CASES)
def test_minimize_action_sweeps_march_grids_one_march_at_a_time(
    name, failing_line_searches, monkeypatch
):
    # no march starts while an earlier march's grids are alive, and every
    # sweep is the resynthesizing sweep of its states
    u0, target, t_final, cfg, opt = _descent_case(name)
    if failing_line_searches:
        opt = dataclasses.replace(opt, min_step=1e-2)
    alive, events = [], []
    march, gradient = ldp.control_states, ldp.adjoint_gradient

    def tracked_march(phi_vals, *args):
        assert [ref for ref in alive if ref() is not None] == []
        states, velocity = march(phi_vals, *args)
        alive.append(weakref.ref(velocity))
        events.append(("march", phi_vals.copy(), None))
        return states, velocity

    def checked_sweep(phi_vals, states, target, weight, cfg, velocity):
        assert velocity is not None  # every sweep reads the grids of a march
        events.append(("sweep", phi_vals.copy(), weight))
        grad = gradient(phi_vals, states, target, weight, cfg, velocity)
        want = _oracles.adjoint_gradient_allocating(phi_vals, states, target, weight, cfg)
        assert np.array_equal(grad, want)
        return grad

    monkeypatch.setattr(ldp, "control_states", tracked_march)
    monkeypatch.setattr(ldp, "adjoint_gradient", checked_sweep)
    minimize_action(u0, target, t_final, cfg, opt)
    assert len(alive) > 1
    # the control swept last is marched again only for the first sweep of a
    # round whose predecessor accepted no step, whose states went after its sweep
    swept, remarches = None, 0  # (control, weight) of the latest sweep
    for i, (kind, phi_vals, weight) in enumerate(events):
        if kind == "sweep":
            swept = phi_vals, weight
        elif swept is not None and np.array_equal(phi_vals, swept[0]):
            assert events[i + 1][0] == "sweep" and events[i + 1][2] != swept[1]
            remarches += 1
    assert (remarches > 0) == failing_line_searches


@pytest.mark.parametrize(
    "settings",
    [
        {"max_iterations": 3, "max_penalty_rounds": 1},
        # round 0 ends on a failed line search, so round 1 marches its control again
        {"max_iterations": 50, "max_penalty_rounds": 3, "min_step": 0.1},
    ],
)
def test_minimize_action_holds_one_trial_and_one_march(settings):
    # instanton32's ends and grid: N=32, 50 steps, 64 x 64 velocity grids
    u0, target, cfg = taylor_green(32, 0.5), taylor_green(32, 0.8), IntegratorConfig(dt=0.01)
    opt = OptimizerSettings(**settings)
    # plans and caches
    minimize_action(u0, target, 0.5, cfg, dataclasses.replace(opt, max_iterations=1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        minimize_action(u0, target, 0.5, cfg, opt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n_steps, n_modes = 50, u0.grid.n_modes
    M = padded_size(u0.grid, cfg.rule(32))
    control = n_steps * n_modes * 16
    states = (n_steps + 1) * n_modes * 16
    grids = n_steps * M * M * 16
    # the control, its gradient, one trial, and the states and grids of the
    # one march in flight
    assert peak <= 3 * control + states + grids + 2**20


@pytest.mark.parametrize(
    "settings, match",
    [
        ({"backtrack_factor": 1.0}, "backtrack_factor must lie in"),
        ({"backtrack_factor": 0.0}, "backtrack_factor must lie in"),
        ({"armijo_constant": 1.0}, "armijo_constant must lie in"),
        ({"armijo_constant": -1e-4}, "armijo_constant must lie in"),
        ({"max_penalty_rounds": 0}, "max_penalty_rounds must be >= 1"),
        ({"max_penalty_rounds": 2.5}, "max_penalty_rounds must be an integer"),
        ({"max_iterations": 10.0}, "max_iterations must be an integer"),
        ({"initial_step": -1.0}, "initial_step must be > 0"),
        ({"min_step": 0.0}, "min_step must be > 0"),
        ({"initial_penalty": float("nan")}, "initial_penalty must be finite"),
        ({"endpoint_tolerance": float("inf")}, "endpoint_tolerance must be finite"),
        ({"penalty_growth": True}, "penalty_growth must be a number"),
        ({"relative_tolerance": "1e-8"}, "relative_tolerance must be a number"),
        ({"initial_penalty": 0.0}, "initial_penalty must be > 0"),
        ({"penalty_growth": -2.0}, "penalty_growth must be > 0"),
    ],
)
def test_optimizer_settings_refuse_a_descent_that_cannot_run(settings, match):
    with pytest.raises(ValueError, match=match):
        OptimizerSettings(**settings)


def test_optimizer_settings_take_numpy_numbers():
    opt = OptimizerSettings(max_iterations=np.int64(3), backtrack_factor=np.float64(0.25))
    assert opt.max_iterations == 3 and opt.backtrack_factor == 0.25


# ------------------------------------------------------- convergence sweeps


def test_h_convergence_small_sweep():
    u0 = taylor_green(6, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.constant(SpectralField.from_modes(6, {(1, 0): 0.4}), 0.02, 15)
    report = h_convergence_experiment(
        u0, phi, PowerSchedule(0.5), 1.0, [1e-1, 1e-2, 1e-3], replicas=6,
        cfg=cfg, rng=RngStream(23),
    )
    assert report.means[0] > report.means[-1]
    assert report.slope - 2.0 * report.slope_stderr > 0.0
    rows = report.rows()
    assert rows[0]["epsilon"] == 0.1
    assert {"epsilon", "delta", "mean_distance", "stderr", "replicas"} <= set(rows[0])


def test_h_convergence_rejects_bad_scaling():
    u0 = taylor_green(6, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.zero(6, 0.02, 10)
    with pytest.raises(ValueError, match="scaling condition"):
        h_convergence_experiment(
            u0, phi, PowerSchedule(2.0), 1.0, [1e-1, 1e-2], replicas=2,
            cfg=cfg, rng=RngStream(1),
        )
    with pytest.raises(ValueError, match="delta"):
        h_convergence_experiment(
            u0, phi, PowerSchedule(-1.0), 1.0, [1e-1, 1e-2], replicas=2,
            cfg=cfg, rng=RngStream(1),
        )


def test_besov_convergence_small_sweep():
    u0 = taylor_green(6, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.constant(SpectralField.from_modes(6, {(1, 0): 0.4}), 0.02, 15)
    besov = BesovParams(sigma=-0.25, p=4.0, alpha=0.3, beta=3.0)
    report = besov_convergence_experiment(
        u0, phi, besov, PowerSchedule(1.0), [1e-1, 1e-2, 1e-3], replicas=6,
        cfg=cfg, rng=RngStream(29),
    )
    assert report.means[0] > report.means[-1]
    assert report.slope - 2.0 * report.slope_stderr > 0.0
    with pytest.raises(ValueError, match="sigma > max"):
        besov_convergence_experiment(
            u0, phi, BesovParams(-0.8, 4.0, 0.3, 3.0), PowerSchedule(1.0),
            [1e-1, 1e-2], replicas=2, cfg=cfg, rng=RngStream(1),
        )


def test_besov_sweep_distance_is_the_sup_of_per_state_besov_norms():
    # the distance takes each replica's difference path in one block_powers
    # call; the reference takes one besov_norm per state
    u0 = taylor_green(6, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.constant(SpectralField.from_modes(6, {(1, 0): 0.4}), 0.02, 6)
    besov = BesovParams(sigma=-0.25, p=4.0, alpha=0.3, beta=3.0)
    epsilons = [1e-1, 1e-2, 1e-3]
    report = besov_convergence_experiment(
        u0, phi, besov, PowerSchedule(1.0), epsilons, replicas=3, cfg=cfg, rng=RngStream(7)
    )
    reference = montecarlo._sweep_distances(
        "B", u0, phi, PowerSchedule(1.0), 1.0, epsilons, 3, cfg, RngStream(7),
        distance=lambda a, b: a.sup_distance(b, lambda f: sns2d.besov_norm(f, -0.25, 4.0)),
    )
    assert report.means == reference.means


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_trajectory_space_norm_matches_two_besov_passes(p):
    traj = solve_skeleton(
        generic_field(16), ControlPath.zero(16, 0.01, 50), IntegratorConfig(dt=0.01)
    )
    besov = BesovParams(sigma=-0.25, p=p, alpha=0.3, beta=3.0)
    ref = _oracles.trajectory_space_norm_two_pass(traj, besov)
    assert abs(trajectory_space_norm(traj, besov) - ref) <= 1e-14 * ref


def test_trajectory_space_norm_zero_and_positive():
    zero = Trajectory(grid_for(6), 0.1, np.zeros((6, grid_for(6).n_modes), complex))
    besov = BesovParams(sigma=-0.25, p=4.0, alpha=0.3, beta=3.0)
    assert trajectory_space_norm(zero, besov) == 0.0
    traj = solve_skeleton(
        generic_field(6), ControlPath.zero(6, 0.05, 5), IntegratorConfig(dt=0.05)
    )
    assert trajectory_space_norm(traj, besov) > 0.0


# ------------------------------------------------------------------- tubes


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert 0.4 < lo < 0.5 < hi < 0.6
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0


def test_tube_probability_monotone_and_saturating():
    u0 = taylor_green(6, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    center = solve_skeleton(u0, ControlPath.zero(6, 0.02, 15), cfg)
    spec = NoiseSpec(epsilon=0.01, delta=0.1, gamma=1.0)
    radii = (0.01, 0.05, 0.2, 0.5, 1.0, np.inf)
    reps = tube_probability(u0, center, radii, spec, cfg, replicas=40, rng=RngStream(31))
    assert [rep.radius for rep in reps] == list(radii)
    assert all(rep.replicas == 40 for rep in reps)
    probs = [rep.p_hat for rep in reps]
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert probs[-1] == 1.0
    # small noise concentrates around the deterministic path
    assert probs[radii.index(0.5)] == 1.0


# ----------------------------------------------------------------- Laplace


def test_laplace_constant_functionals_exact():
    cfg = IntegratorConfig(dt=0.02)
    for c in (0.0, 0.7):
        report = laplace_check(
            ConstantFunctional(c), SpectralField.zero(6), PowerSchedule(0.5),
            [1e-1, 1e-2], replicas=4, cfg=cfg, t_final=0.1, rng=RngStream(3),
        )
        assert report.rhs == c
        for lhs in report.lhs:
            assert lhs == pytest.approx(c, abs=1e-12)
        assert not report.variance_flag


def test_laplace_endpoint_functional_smoke():
    cfg = IntegratorConfig(dt=0.02)
    target = SpectralField.from_modes(6, {(1, 0): 0.05})
    functional = ClippedEndpointDistance(target, scale=1.0, clip=5.0)
    report = laplace_check(
        functional, SpectralField.zero(6), PowerSchedule(0.5), [5e-2, 1e-2],
        replicas=30, cfg=cfg, t_final=0.2, rng=RngStream(7),
    )
    rows = report.rows()
    assert len(rows) == 2
    assert report.rhs >= 0.0
    for row in rows:
        assert row["lhs"] >= -1e-9
        assert row["gap"] >= 0.0


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_clipped_endpoint_distance_refuses_a_scale_that_is_not_positive(scale):
    # the Laplace check would otherwise refuse it as the optimizer's initial_penalty
    with pytest.raises(ValueError, match="ClippedEndpointDistance scale must be > 0"):
        ClippedEndpointDistance(taylor_green(4, 0.5), scale=scale)


def _laplace_rhs(functional, u0, cfg, t_final):
    """laplace_check's variational side, beside a cheap two-replica sweep."""
    return laplace_check(
        functional, u0, PowerSchedule(0.5), [0.1], 2, cfg, t_final, RngStream(0)
    ).rhs


def _random_field(cutoff, amplitude, decay, seed):
    return SpectralField.random(
        cutoff, np.random.default_rng(seed), amplitude=amplitude, decay=decay
    )


@pytest.mark.parametrize(
    "u0, target, scale",
    [
        (lambda: SpectralField.zero(8), lambda: taylor_green(8, 0.5), 1.0),
        (lambda: taylor_green(8, 0.5), lambda: _random_field(8, 0.5, 2.0, 7), 2.0),
    ],
    ids=["zero_to_taylor_green", "taylor_green_to_random"],
)
def test_laplace_rhs_at_b0_is_the_closed_form_infimum(u0, target, scale):
    cfg = IntegratorConfig(dt=0.01, disable_nonlinearity=True)
    u0, target = u0(), target()
    rhs = _laplace_rhs(ClippedEndpointDistance(target, scale, clip=1e3), u0, cfg, 0.5)
    exact = _oracles.fixed_weight_infimum_linear(u0, target, scale, 0.5, cfg.dt)
    assert rhs == pytest.approx(exact, rel=1e-6)


def test_controlled_paths_at_b0_have_the_exact_mean_square_about_the_skeleton():
    # each path minus the skeleton is Gaussian: |x_k|^2 is exponential with
    # mean s_k per mode, so |x|_H^2 has mean 2 sum s_k and variance 4 sum s_k^2
    cfg = IntegratorConfig(dt=0.02, disable_nonlinearity=True)
    u0 = taylor_green(8, 0.5)
    phi = ControlPath.constant(SpectralField.from_modes(8, {(1, 0): 0.4}), 0.02, 10)
    spec, replicas, z_bound = NoiseSpec(epsilon=0.1, delta=0.1), 400, 4.0
    streams = [RngStream(3).child(r) for r in range(replicas)]
    paths = solve_controlled_block(u0, phi, spec, cfg, streams)
    # at eps = 0 the controlled run is the skeleton driven by Q phi
    skeleton = solve_controlled(u0, phi, NoiseSpec(0.0, spec.delta), cfg, RngStream(0))
    square = np.array([
        2.0 * np.sum(np.abs(p.coeffs - skeleton.coeffs) ** 2, axis=1) for p in paths
    ])
    assert np.all(square[:, 0] == 0.0)
    for n in range(1, phi.n_steps + 1):
        s = _oracles.gaussian_mode_variances(u0.grid, spec, n * cfg.dt)
        stderr = math.sqrt(4.0 * np.sum(s**2) / replicas)
        assert abs(np.mean(square[:, n]) - 2.0 * np.sum(s)) <= z_bound * stderr, n


def test_laplace_check_at_b0_meets_the_gaussian_closed_form():
    # the clip is out of reach, so G = a |u(T) - g|_H^2 exactly; the
    # delta-method stderr of -eps log mean(w) is eps sqrt((R/ESS - 1)/R)
    cfg = IntegratorConfig(dt=0.02, disable_nonlinearity=True)
    u0, target, scale, t_final = taylor_green(8, 0.5), taylor_green(8, 0.45), 1.0, 0.2
    schedule, replicas, z_bound = PowerSchedule(1.0), 1000, 4.0
    functional = ClippedEndpointDistance(target, scale, clip=1e6)
    report = laplace_check(
        functional, u0, schedule, [0.3, 0.1], replicas, cfg, t_final, RngStream(4)
    )
    assert not report.variance_flag
    for eps, lhs, ess in zip(report.epsilons, report.lhs, report.ess):
        assert ess >= 100
        spec = NoiseSpec.at_epsilon(eps, schedule)
        exact = _oracles.gaussian_laplace_value(u0, target, spec, scale, t_final)
        stderr = eps * math.sqrt((replicas / ess - 1.0) / replicas)
        assert abs(lhs - exact) <= z_bound * stderr, eps


def _laplace_zscore_of_direct_samples(u0, target, spec, scale, t_final, gen, variance_factor):
    """|lhs - closed form| over the delta-method stderr, where lhs is the
    Laplace functional -eps log mean exp(-a |u(T) - g|_H^2 / eps) of 8,000
    direct Gaussian samples of u(T) at b = 0: mean e^{-|k|^2 T} u0_k and
    per-mode variance variance_factor times gaussian_mode_variances."""
    eps, replicas = spec.epsilon, 8000
    mean = np.exp(-u0.grid.ksq * t_final) * u0.coeffs
    var = variance_factor * _oracles.gaussian_mode_variances(u0.grid, spec, t_final)
    xi = gen.standard_normal((2, replicas, mean.size))
    ends = mean + np.sqrt(var / 2.0) * (xi[0] + 1j * xi[1])
    G = scale * 2.0 * np.sum(np.abs(ends - target.coeffs) ** 2, axis=1)
    w = np.exp(-(G - G.min()) / eps)
    ess = w.sum() ** 2 / np.dot(w, w)
    lhs = -eps * (math.log(np.mean(w)) - G.min() / eps)
    stderr = eps * math.sqrt((replicas / ess - 1.0) / replicas)
    exact = _oracles.gaussian_laplace_value(u0, target, spec, scale, t_final)
    return abs(lhs - exact) / stderr


@pytest.mark.parametrize("eps", [0.3, 0.1])
def test_the_gaussian_laplace_closed_form_meets_direct_samples(eps):
    # N = 8, Taylor-Green 0.5 -> 0.45, a = 1, T = 0.2, delta = eps; the
    # z-bound is fixed before the run, and the same draws with a 5% larger
    # variance fail it (z 8.3-11.7 at eps = 0.3, 6.1-9.2 at eps = 0.1, seeds 0-9)
    u0, target, scale, t_final = taylor_green(8, 0.5), taylor_green(8, 0.45), 1.0, 0.2
    z_bound = 4.0
    spec = NoiseSpec.at_epsilon(eps, PowerSchedule(1.0))
    args = (u0, target, spec, scale, t_final)
    assert _laplace_zscore_of_direct_samples(*args, np.random.default_rng(5), 1.0) <= z_bound
    assert _laplace_zscore_of_direct_samples(*args, np.random.default_rng(5), 1.05) > z_bound


def test_continuous_over_discrete_shell_action_is_tanh_of_half_z_over_half_z():
    # Taylor-Green 0.5 -> 0.8 stays on the shell |k|^2 = 2, so z = 2 dt for
    # every mode the endpoints differ in
    u0, target, t_final = taylor_green(4, 0.5), taylor_green(4, 0.8), 0.4
    continuous = _oracles.continuous_shell_action(u0, target, t_final)
    ksq = u0.grid.ksq
    r = target.coeffs - np.exp(-ksq * t_final) * u0.coeffs
    for dt in (0.2, 0.1, 0.05):
        cfg = IntegratorConfig(dt=dt, disable_nonlinearity=True)
        n = step_count(t_final, dt)
        # the discrete minimizer: step m's control is r times the endpoint's
        # gain dt psi1 e^{-z (n - 1 - m)} from it, over the sum of squared gains
        lag = (n - 1 - np.arange(n))[:, None]
        gain = -np.expm1(-ksq * dt) / ksq * np.exp(-ksq * dt * lag)
        phi = ControlPath(u0.grid, dt, gain * r / np.sum(gain**2, axis=0))
        end = solve_skeleton(u0, phi, cfg).coeffs[-1]
        assert np.max(np.abs(end - target.coeffs)) < 1e-12
        discrete = control_term(phi.values, phi.dt)
        z = 2.0 * dt
        assert continuous / discrete == pytest.approx(math.tanh(z / 2) / (z / 2), rel=1e-12)
        # the descent converges to the discrete value, not to the continuous one
        _, rep = minimize_action(u0, target, t_final, cfg)
        assert rep.constrained_action == pytest.approx(discrete, rel=1e-4)
        assert rep.constrained_action != pytest.approx(continuous, rel=5e-4)


LAPLACE_PROBE_CASES = {
    # name: (u0, functional, t_final, probe candidates)
    "mode_target": (
        lambda: SpectralField.zero(6),
        lambda: ClippedEndpointDistance(SpectralField.from_modes(6, {(1, 0): 0.05}), 1.0, 5.0),
        0.2, 5,
    ),
    "taylor_green_to_random": (
        lambda: taylor_green(4, 0.5),
        lambda: ClippedEndpointDistance(_random_field(4, 0.5, 2.0, 3), 2.0, 10.0),
        0.1, 3,
    ),
    "random_to_random": (
        lambda: _random_field(4, 0.5, 1.0, 4),
        lambda: ClippedEndpointDistance(_random_field(4, 0.5, 1.0, 5), 1.0, 10.0),
        0.1, 3,
    ),
    "clip_binds": (
        lambda: taylor_green(4, 0.3),
        lambda: ClippedEndpointDistance(_random_field(4, 1.0, 1.0, 6), 5.0, 0.05),
        0.1, 3,
    ),
}


@pytest.mark.parametrize("case", sorted(LAPLACE_PROBE_CASES))
def test_laplace_rhs_is_at_most_the_candidate_probe(case):
    make_u0, make_functional, t_final, n_candidates = LAPLACE_PROBE_CASES[case]
    cfg = IntegratorConfig(dt=0.02)
    u0, functional = make_u0(), make_functional()
    rhs = _laplace_rhs(functional, u0, cfg, t_final)
    probe = _oracles.laplace_rhs_probe(functional, u0, cfg, t_final, n_candidates)
    assert rhs <= probe
    if case == "clip_binds":
        assert rhs == probe == functional.clip


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_laplace_rhs_derivative_in_the_weight_is_the_endpoint_mismatch(scale):
    # envelope theorem: dJ*/da = |u*(T) - g|_H^2 at the fixed-weight minimizer
    cfg = IntegratorConfig(dt=0.01)
    u0, target = taylor_green(8, 0.5), _random_field(8, 0.5, 2.0, 7)
    h = 1e-3 * scale
    J_plus, J_minus = (
        _laplace_rhs(ClippedEndpointDistance(target, a, clip=1e3), u0, cfg, 0.5)
        for a in (scale + h, scale - h)
    )
    opt = OptimizerSettings(initial_penalty=scale, max_penalty_rounds=1)
    _, rep = minimize_action(u0, target, 0.5, cfg, opt)
    assert (J_plus - J_minus) / (2.0 * h) == pytest.approx(rep.endpoint_error**2, rel=1e-3)


def test_zero_noise_member_has_zero_distance():
    # the degenerate eps = 0 member of the controlled family is the skeleton
    from sns2d import solve_controlled

    u0 = taylor_green(6, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.constant(SpectralField.from_modes(6, {(1, 0): 0.4}), 0.02, 10)
    spec = NoiseSpec(epsilon=0.0, delta=0.0, gamma=1.0)
    ctl = solve_controlled(u0, phi, spec, cfg, RngStream(0))
    skel = solve_skeleton(u0, phi, cfg)
    assert ctl.sup_h_distance(skel) == 0.0


def test_contrast_schedule_fails_h_but_passes_besov():
    # delta(eps) = eps keeps eps * delta^(-1) constant: inadmissible for the
    # strong-space sweep at eta = 1, while the Besov sweep only needs
    # delta(eps) -> 0
    u0 = taylor_green(6, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.constant(SpectralField.from_modes(6, {(1, 0): 0.4}), 0.02, 10)
    sched = PowerSchedule(1.0)
    with pytest.raises(ValueError, match="scaling condition"):
        h_convergence_experiment(
            u0, phi, sched, 1.0, [1e-1, 1e-2, 1e-3], replicas=2, cfg=cfg,
            rng=RngStream(1),
        )
    besov = BesovParams(sigma=-0.25, p=4.0, alpha=0.3, beta=3.0)
    report = besov_convergence_experiment(
        u0, phi, besov, sched, [1e-1, 1e-2, 1e-3], replicas=4, cfg=cfg,
        rng=RngStream(2),
    )
    assert report.means[-1] < report.means[0]


def test_tube_escape_probability_decreases_with_noise():
    u0 = taylor_green(6, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    center = solve_skeleton(u0, ControlPath.zero(6, 0.02, 15), cfg)
    radius = 0.12
    escapes = []
    for i, eps in enumerate((0.05, 0.005)):
        spec = NoiseSpec(epsilon=eps, delta=0.1, gamma=1.0)
        [rep] = tube_probability(u0, center, [radius], spec, cfg, 60, RngStream(41 + i))
        escapes.append(1.0 - rep.p_hat)
    assert escapes[1] <= escapes[0]


def test_residual_of_heat_flow_is_minus_nonlinearity(rng):
    # path generated with the nonlinearity disabled: f' - Af = O(dt^2), so
    # the full residual reduces to -b(f) along the path
    from sns2d.nonlinear import b_core

    u0 = smooth_field()
    dt = 0.002
    cfg = IntegratorConfig(dt=dt, disable_nonlinearity=True)
    traj = solve_skeleton(u0, ControlPath.zero(8, dt, round(0.1 / dt)), cfg)
    rule = DealiasRule.two_thirds(8)
    res = residual(traj, rule)
    worst = 0.0
    for i in range(1, traj.n_steps):
        expected = -b_core(traj.coeffs[i], traj.grid, rule)
        diff = res.values[i] - expected
        worst = max(worst, float(np.sqrt(2.0 * np.sum(np.abs(diff) ** 2))))
    scale = max(
        float(np.sqrt(2.0 * np.sum(np.abs(b_core(traj.coeffs[0], traj.grid, rule)) ** 2))),
        1e-30,
    )
    assert worst < 5e-3 * max(scale, 1.0)
    # one b_core call on the whole path gives each state the bits of a call
    # of its own
    for cutoff, kind in itertools.product((8, 16, 32), ("two_thirds", "none")):
        rule = DealiasRule.make(kind, cutoff)
        c = np.stack([SpectralField.random(cutoff, rng).coeffs for _ in range(6)])
        dfdt = np.empty_like(c)
        dfdt[0], dfdt[-1] = (c[1] - c[0]) / dt, (c[-1] - c[-2]) / dt
        dfdt[1:-1] = (c[2:] - c[:-2]) / (2.0 * dt)
        g = grid_for(cutoff)
        per_state = [dfdt[i] + g.ksq * c[i] - b_core(c[i], g, rule) for i in range(len(c))]
        assert np.array_equal(residual(Trajectory(g, dt, c), rule).values, per_state)


def test_laplace_endpoint_gap_shrinks_with_noise():
    # with the free-decay endpoint as target the variational value is zero
    # and the Monte Carlo side decays with the noise strength
    u0 = taylor_green(6, 0.3)
    cfg = IntegratorConfig(dt=0.02)
    zero = ControlPath.zero(6, 0.02, 10)
    free = solve_skeleton(u0, zero, cfg)
    functional = ClippedEndpointDistance(free.final(), scale=1.0, clip=5.0)
    lhs = []
    for i, eps in enumerate((0.2, 0.02, 0.002)):
        spec = NoiseSpec(epsilon=eps, delta=0.1, gamma=1.0)
        vals = np.empty(200)
        for r in range(200):
            traj = solve_controlled(u0, zero, spec, cfg, RngStream(600 + i).child(r))
            vals[r] = functional(traj)
        w = np.exp(-(vals - vals.min()) / eps)
        lhs.append(vals.min() - eps * np.log(float(np.mean(w))))
    assert all(v >= 0.0 for v in lhs)
    assert lhs[2] < lhs[1] < lhs[0]


def test_objective_states_are_the_skeleton_path():
    u0 = generic_field(cutoff=6)
    cfg = IntegratorConfig(dt=0.02)
    phi = unit_complex_normals(np.random.default_rng(3), (10, u0.grid.n_modes))
    J, grad, states = action_objective_and_gradient(phi, u0, taylor_green(6, 0.2), 5.0, cfg)
    traj = solve_skeleton(u0, ControlPath(u0.grid, cfg.dt, phi), cfg)
    assert np.array_equal(states, traj.coeffs)
    _, _, trial_states = action_objective_and_gradient(
        phi, u0, taylor_green(6, 0.2), 5.0, cfg, want_gradient=False
    )
    assert np.array_equal(trial_states, traj.coeffs)


def test_runaway_line_search_trial_is_a_rejected_step():
    # huge trial steps blow the forward pass up; each is backtracked, and the
    # descent ends where it does when such trials only fail the Armijo test
    _, rep = minimize_action(
        taylor_green(4, 0.5), taylor_green(4, 0.8), 0.1, IntegratorConfig(dt=0.01),
        OptimizerSettings(initial_step=1e6, max_iterations=50),
    )
    assert rep.converged
    assert rep.iterations == 176
    assert rep.action == pytest.approx(18.262696944472083, rel=1e-10)


@pytest.mark.parametrize("rng", [23, np.random.default_rng(23)])
def test_monte_carlo_entry_points_take_only_a_stream(rng):
    u0 = taylor_green(4, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.zero(4, 0.02, 3)
    eps = [1e-1, 1e-2, 1e-3]
    calls = (
        lambda: h_convergence_experiment(u0, phi, PowerSchedule(0.5), 1.0, eps, 2, cfg, rng),
        lambda: besov_convergence_experiment(
            u0, phi, BesovParams(-0.25, 4.0, 0.3, 3.0), PowerSchedule(1.0), eps, 2, cfg, rng
        ),
        lambda: tube_probability(
            u0, solve_skeleton(u0, phi, cfg), [0.1], NoiseSpec(0.01, 0.1), cfg, 2, rng
        ),
        lambda: laplace_check(
            ConstantFunctional(0.0), u0, PowerSchedule(0.5), eps, 2, cfg, 0.06, rng
        ),
    )
    for call in calls:
        with pytest.raises(TypeError, match="expected an RngStream"):
            call()


def _monte_carlo_calls():
    """Each public Monte Carlo entry point that reports a spread, as a call
    with the given replica count that returns it: the standard errors, the
    width of the tube's confidence interval, or the Laplace check's
    effective sample sizes."""
    u0 = taylor_green(4, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.zero(4, 0.02, 3)
    eps = [1e-1, 1e-2, 1e-3]
    spec = NoiseSpec(0.01, 0.1)
    rng = RngStream(23)
    tube_width = lambda reps: reps[0].ci_high - reps[0].ci_low
    return {
        "h_convergence": lambda n: h_convergence_experiment(
            u0, phi, PowerSchedule(0.5), 1.0, eps, n, cfg, rng
        ).stderrs,
        "besov_convergence": lambda n: besov_convergence_experiment(
            u0, phi, BesovParams(-0.25, 4.0, 0.3, 3.0), PowerSchedule(1.0), eps, n, cfg, rng
        ).stderrs,
        "besov_moment": lambda n: besov_moment_check(
            spec, -0.75, -0.5, 4.0, 2.0, 0.06, 0.02, n, rng, 4
        ).stderr,
        "lp_moment": lambda n: lp_log_moment_check(spec, 3.0, n, rng, 4).stderr,
        "tube": lambda n: tube_width(
            tube_probability(u0, solve_skeleton(u0, phi, cfg), [0.1], spec, cfg, n, rng)
        ),
        "laplace": lambda n: laplace_check(
            ConstantFunctional(0.1), u0, PowerSchedule(0.5), eps[:1], n, cfg, 0.06, rng
        ).ess,
    }


@pytest.mark.parametrize("entry", sorted(_monte_carlo_calls()))
def test_monte_carlo_entry_points_refuse_fewer_than_2_replicas(entry):
    # one replica has no sample standard deviation: besov_moment_check and
    # the convergence sweeps reported a NaN stderr with numpy's warning, and
    # laplace_check an effective sample size of 1 with its variance flag
    # down (at 0 replicas it failed inside numpy)
    call = _monte_carlo_calls()[entry]
    for replicas in (0, 1):
        with pytest.raises(ValueError, match="need at least 2 replicas"):
            call(replicas)
    assert np.all(np.isfinite(call(2)))


def test_tube_blocks_are_each_replica_marched_alone():
    # 35 replicas at cutoff 8: a block of 32 and one of 3
    u0 = taylor_green(8, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    center = solve_skeleton(u0, ControlPath.zero(8, 0.02, 5), cfg)
    spec = NoiseSpec(epsilon=0.01, delta=0.1, gamma=1.0)
    stream = RngStream(12).child(1)
    paths = _oracles.controlled_per_replica(
        u0, ControlPath.zero(8, 0.02, 5), spec, cfg, [stream.child(r) for r in range(35)]
    )
    dists = np.array([Trajectory(center.grid, 0.02, p).sup_h_distance(center) for p in paths])
    blocked = montecarlo.controlled_values(
        u0, ControlPath.zero(8, 0.02, 5), spec, cfg, stream, 35,
        lambda traj: traj.sup_h_distance(center),
    )
    assert np.array_equal(blocked, dists)
    # hits at each solo distance and just below it: equal counts at both
    # pin the blocked distances to the solo ones bit for bit, as a set
    radii = np.concatenate([dists, np.nextafter(dists, -np.inf)])
    reps = tube_probability(u0, center, radii, spec, cfg, 35, stream)
    assert [rep.hits for rep in reps] == [int(np.sum(dists <= r)) for r in radii]


def _per_replica_values(u0, phi, spec, cfg, member, value):
    """value(path) of 35 replicas of member, replica r marched alone on
    member.child(r): at cutoff 8 the engine marches a block of 32 and one
    of 3."""
    paths = _oracles.controlled_per_replica(
        u0, phi, spec, cfg, [member.child(r) for r in range(35)]
    )
    return np.array([value(Trajectory(u0.grid, cfg.dt, path)) for path in paths])


def test_sweep_members_are_each_replica_marched_alone():
    # the harness runs the sweep on stream (1,): replica r of member i is
    # (1, i, r)
    u0 = taylor_green(8, 0.4)
    cfg = IntegratorConfig(dt=0.02)
    phi = ControlPath.constant(SpectralField.from_modes(8, {(1, 0): 0.4}), 0.02, 5)
    schedule, epsilons = PowerSchedule(0.5), [1e-1, 1e-2, 1e-3]
    stream = RngStream(13).child(1)
    report = h_convergence_experiment(u0, phi, schedule, 1.0, epsilons, 35, cfg, stream)
    skeleton = solve_skeleton(u0, phi, cfg)
    for i in range(2):
        spec = NoiseSpec.at_epsilon(epsilons[i], schedule)
        dists = _per_replica_values(
            u0, phi, spec, cfg, stream.child(i), lambda traj: traj.sup_h_distance(skeleton)
        )
        assert report.means[i] == float(np.mean(dists))
        assert report.stderrs[i] == float(np.std(dists, ddof=1) / math.sqrt(35))


def test_laplace_members_are_each_replica_marched_alone():
    u0 = SpectralField.zero(8)
    cfg = IntegratorConfig(dt=0.02)
    functional = ClippedEndpointDistance(taylor_green(8, 0.3))
    schedule, epsilons = PowerSchedule(0.5), [0.2, 0.05]
    stream = RngStream(14).child(1)
    report = laplace_check(functional, u0, schedule, epsilons, 35, cfg, 0.1, stream)
    zero = ControlPath.zero(8, 0.02, 5)
    for i, eps in enumerate(epsilons):
        spec = NoiseSpec.at_epsilon(eps, schedule)
        vals = _per_replica_values(u0, zero, spec, cfg, stream.child(i), functional)
        w = np.exp(-(vals - vals.min()) / eps)
        assert report.ess[i] == float(w.sum() ** 2 / np.dot(w, w))
        assert report.lhs[i] == -eps * (math.log(float(np.mean(w))) - vals.min() / eps)


MARCHES = ("solve_controlled", "march")


def _replica_march_loops(tree):
    """Functions holding a loop (for, while or comprehension) that calls one
    of the single-path marches on each pass."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) in MARCHES
            for loop in ast.walk(func)
            if isinstance(loop, loops)
            for call in ast.walk(loop)
        )
    ]


def test_replicas_are_marched_in_blocks_not_one_by_one():
    src = pathlib.Path(sns2d.__file__).parent
    for name in ("ldp.py", "montecarlo.py", "noise.py"):
        assert _replica_march_loops(ast.parse((src / name).read_text())) == [], name


def test_replica_loop_guard_sees_each_old_per_replica_loop():
    old = (
        "def _sweep_distances(u0, phi, epsilons, replicas, cfg, stream, distance):\n"
        "    for i, eps in enumerate(epsilons):\n"
        "        for r in range(replicas):\n"
        "            traj = solve_controlled(u0, phi, spec, cfg, stream.child(i).child(r))\n"
        "            dists[r] = distance(traj, skeleton)\n"
        "def tube_probability(u0, center, spec, cfg, replicas, stream):\n"
        "    for r in range(replicas):\n"
        "        traj = solve_controlled(u0, zero, spec, cfg, stream.child(r))\n"
        "def laplace_check(functional, u0, epsilons, replicas, cfg, t_final, stream):\n"
        "    for i, eps in enumerate(epsilons):\n"
        "        for r in range(replicas):\n"
        "            traj = solve_controlled(u0, zero, spec, cfg, stream.child(i).child(r))\n"
        "def besov_moment_check(spec, n_steps, dt, replicas, stream, g):\n"
        "    for i in range(replicas):\n"
        "        gen = stream.child(i).generator()\n"
        "        path, _ = march(g, z0, n_steps, dt, noise_std=std, gen=gen)\n"
        "def comprehension(streams):\n"
        "    return [dynamics.solve_controlled(u0, phi, spec, cfg, s) for s in streams]\n"
    )
    assert _replica_march_loops(ast.parse(old)) == [
        "_sweep_distances", "tube_probability", "laplace_check", "besov_moment_check",
        "comprehension",
    ]


REFUSAL = "need at least 2 replicas"


def _replica_statistics_sites(tree):
    """How often tree holds each piece of the replica statistics: a ddof=1
    keyword, a raise of the replica refusal and a NoiseSpec.at_epsilon
    reference."""
    nodes = list(ast.walk(tree))
    return {
        "ddof=1": sum(
            isinstance(node, ast.keyword) and node.arg == "ddof"
            and getattr(node.value, "value", None) == 1
            for node in nodes
        ),
        "refusal": sum(
            isinstance(node, ast.Raise)
            and any(isinstance(c, ast.Constant) and REFUSAL in str(c.value)
                    for c in ast.walk(node))
            for node in nodes
        ),
        "at_epsilon": sum(
            isinstance(node, ast.Attribute) and node.attr == "at_epsilon" for node in nodes
        ),
    }


def test_the_replica_statistics_are_each_written_once():
    src = pathlib.Path(sns2d.__file__).parent
    total = {"ddof=1": 0, "refusal": 0, "at_epsilon": 0}
    for path in sorted(src.glob("*.py")):
        for key, n in _replica_statistics_sites(ast.parse(path.read_text())).items():
            total[key] += n
    assert total == {"ddof=1": 1, "refusal": 1, "at_epsilon": 1}
    # and each in the Monte Carlo module
    montecarlo_src = (src / "montecarlo.py").read_text()
    assert _replica_statistics_sites(ast.parse(montecarlo_src)) == total


def test_replica_statistics_guard_counts_each_copy():
    old = (
        "def _sweep_distances(epsilons, replicas, schedule):\n"
        "    if replicas < 2:\n"
        "        raise ValueError('need at least 2 replicas')\n"
        "    for i, eps in enumerate(sorted(epsilons, reverse=True)):\n"
        "        spec = NoiseSpec.at_epsilon(eps, schedule, gamma=gamma)\n"
        "        se = float(np.std(dists, ddof=1) / math.sqrt(replicas))\n"
        "def lp_log_moment_check(replicas, samples):\n"
        "    if replicas < 2:\n"
        "        raise ValueError(f'need at least 2 replicas, got {replicas}')\n"
        "    se = samples.std(ddof=1)\n"
        "    make = noise.NoiseSpec.at_epsilon\n"
        "def not_counted(samples):\n"
        "    'need at least 2 replicas'\n"
        "    return np.std(samples, ddof=0)\n"
    )
    assert _replica_statistics_sites(ast.parse(old)) == {
        "ddof=1": 2, "refusal": 2, "at_epsilon": 2,
    }


def _np_attr(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name and (
        getattr(node.value, "id", None) == "np"
    )


def _is_squared_sum(node):
    """np.sum(np.abs(x) ** 2, ...): the squared H norm written out."""
    if not (isinstance(node, ast.Call) and _np_attr(node.func, "sum") and node.args):
        return False
    arg = node.args[0]
    return (
        isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Pow)
        and isinstance(arg.left, ast.Call) and _np_attr(arg.left.func, "abs")
        and getattr(arg.right, "value", None) == 2
    )


def _calls(tree, name):
    return sum(
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def _ldp_layer_sites(sources):
    """For {module name: source} of the package: the squared-H-norm sums in
    all modules, the replicas_per_block calls in ldp and montecarlo, and the
    control_states functions of ldp with the b_core calls in them."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    states = [
        node for node in ast.walk(trees["ldp"])
        if isinstance(node, ast.FunctionDef) and node.name == "control_states"
    ]
    return {
        "squared_sum": sum(
            _is_squared_sum(node) for tree in trees.values() for node in ast.walk(tree)
        ),
        "replicas_per_block": sum(
            _calls(trees[name], "replicas_per_block")
            for name in ("ldp", "montecarlo") if name in trees
        ),
        "control_states": len(states),
        "b_core_in_control_states": sum(_calls(f, "b_core") for f in states),
    }


def test_the_ldp_layer_writes_each_quantity_once():
    # one H norm (spectral.h_norm_sq), one controlled-path sampler
    # (montecarlo.controlled_values), one skeleton forcing (dynamics.skeleton_forcing)
    src = pathlib.Path(sns2d.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(src.glob("*.py"))}
    assert _ldp_layer_sites(sources) == {
        "squared_sum": 1, "replicas_per_block": 1, "control_states": 1,
        "b_core_in_control_states": 0,
    }
    assert not hasattr(ldp, "control_action")


def test_ldp_layer_guard_counts_each_copy():
    old_ldp = (
        "def control_states(phi_vals, u0, cfg):\n"
        "    def forcing(u, step):\n"
        "        F = b_core(u, grid, rule, velocity[step])\n"
        "        return F\n"
        "def control_term(phi_vals, dt):\n"
        "    return 0.5 * (dt * 2.0 * float(np.sum(np.abs(phi_vals) ** 2)))\n"
        "def action(res):\n"
        "    sq = 2.0 * np.sum(np.abs(res.values) ** 2, axis=1)\n"
        "def tube_probability(u0, cfg):\n"
        "    per_block = replicas_per_block(u0.grid, cfg.rule(u0.cutoff))\n"
    )
    old_montecarlo = (
        "def laplace_check(u0, cfg):\n"
        "    return replica_values(s, 8, nonlinear.replicas_per_block(g, r), m, f)\n"
    )
    old_spectral = (
        "def sobolev_norm(u, s):\n"
        "    return math.sqrt(2.0 * float(np.sum(np.abs(u.coeffs) ** 2 * u.grid.ksq**s)))\n"
        "def h_norm_of(coeffs):\n"
        "    return math.sqrt(2.0 * float(np.sum(np.abs(coeffs) ** 2)))\n"
        "def per_block(grid, rule):\n"
        "    return replicas_per_block(grid, rule)\n"
    )
    sources = {"ldp": old_ldp, "montecarlo": old_montecarlo, "spectral": old_spectral}
    assert _ldp_layer_sites(sources) == {
        "squared_sum": 3, "replicas_per_block": 2, "control_states": 1,
        "b_core_in_control_states": 1,
    }
