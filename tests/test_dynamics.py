import ast
import dataclasses
import math
import os
import pathlib
import sys
import threading
import time

import numpy as np
import pytest

import sns2d
from sns2d import (
    ControlPath,
    IntegratorConfig,
    NoiseSpec,
    RngStream,
    SpectralField,
    duhamel_gamma,
    lp_norm,
    phi_eps,
    sobolev_norm,
    solve_controlled,
    solve_controlled_block,
    solve_skeleton,
    step_skeleton,
    taylor_green,
)
from sns2d.dynamics import (
    IntegrationBlowupError,
    Trajectory,
    draw_chunks,
    march,
    save_trajectory,
    skeleton_forcing,
    step_count,
)
from sns2d.grid import grid_for
from sns2d.ldp import control_term
from sns2d.montecarlo import ConstantFunctional, fit_loglog, laplace_check
from sns2d.noise import PowerSchedule, covariance_weights, ou_step, ou_transition
from sns2d.nonlinear import b_core

import _oracles
from _oracles import (
    controlled_per_replica,
    divergence_residual,
    h_norms,
    heat_semigroup,
    load_trajectory,
)


def generic_field(cutoff=8, amplitude=0.3, seed=2):
    return taylor_green(cutoff, 1.0) + SpectralField.random(
        cutoff, np.random.default_rng(seed), amplitude=amplitude, decay=1.0
    )


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, scheme="leapfrog")
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, dealias="half")


@pytest.mark.parametrize("field, value", [
    ("dt", math.nan), ("dt", -0.01), ("blowup_threshold", math.nan),
    ("blowup_threshold", -1.0), ("blowup_threshold", 0.0),
])
def test_integrator_config_refuses_a_step_or_threshold_that_is_not_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be > 0"):
        IntegratorConfig(**{"dt": 0.01, field: value})


@pytest.mark.parametrize("dt", [math.nan, 0.0, -0.01])
def test_control_path_refuses_a_step_that_is_not_positive(dt):
    g = taylor_green(4, 0.5).grid
    with pytest.raises(ValueError, match="dt must be > 0"):
        ControlPath(g, dt, np.zeros((3, g.n_modes)))


def test_control_path_norms_and_ball(rng):
    phi = ControlPath.random_in_ball(6, 0.02, 25, gamma=1.7, rng=rng)
    assert 2 * control_term(phi.values, phi.dt) == pytest.approx(1.7, rel=1e-12)
    assert 2 * control_term(phi.values, phi.dt) <= 1.7 * (1.0 + 1e-12)
    assert not 2 * control_term(phi.values, phi.dt) <= 1.6 * (1.0 + 1e-12)
    assert phi.t_final == pytest.approx(0.5)


def test_duhamel_zero_and_constant_mode():
    zero = ControlPath.zero(6, 0.01, 30)
    assert np.max(np.abs(duhamel_gamma(zero).coeffs)) == 0.0
    f = SpectralField.from_modes(6, {(1, 2): 0.8 - 0.3j})
    phi = ControlPath.constant(f, 0.01, 30)
    traj = duhamel_gamma(phi)
    ksq = 5.0
    for i in (1, 10, 30):
        t = i * 0.01
        expected = (1.0 - math.exp(-ksq * t)) / ksq * f.coeffs
        assert np.allclose(traj.coeffs[i], expected, rtol=1e-12, atol=1e-16)


def test_duhamel_smoothing_ratio_bounded(rng):
    # |Gamma(phi)|_{C([0,T];H^rho)} <= c |phi|_{L2(0,T;H)} at rho = 0.9
    worst = 0.0
    for seed in range(5):
        phi = ControlPath.random_in_ball(8, 0.01, 50, 1.0, np.random.default_rng(seed))
        traj = duhamel_gamma(phi)
        sup = max(sobolev_norm(traj.state(i), 0.9) for i in range(traj.n_steps + 1))
        worst = max(worst, sup / math.sqrt(2 * control_term(phi.values, phi.dt)))
    assert worst < 2.0


def test_phi_eps_reweights_modes():
    spec = NoiseSpec(epsilon=0.1, delta=0.5, gamma=1.0)
    f = SpectralField.from_modes(6, {(2, 0): 1.0})
    phi = ControlPath.constant(f, 0.01, 10)
    lam = covariance_weights(f.grid, spec)
    i = f.grid.mode_index[(2, 0)]
    weighted = phi_eps(phi, spec)
    plain = duhamel_gamma(phi)
    assert np.allclose(weighted.coeffs[:, i], lam[i] * plain.coeffs[:, i], rtol=1e-14)
    # delta -> 0 recovers the unweighted convolution
    tiny = phi_eps(phi, NoiseSpec(epsilon=0.1, delta=1e-14, gamma=1.0))
    assert np.allclose(tiny.coeffs, plain.coeffs, rtol=1e-16, atol=1e-13)


def test_phi_eps_l4_bound_over_ball(rng):
    spec = NoiseSpec(epsilon=0.1, delta=0.1, gamma=1.0)
    worst = 0.0
    gamma_ball = 2.0
    for seed in range(4):
        phi = ControlPath.random_in_ball(
            6, 0.02, 25, gamma_ball, np.random.default_rng(seed)
        )
        conv = phi_eps(phi, spec)
        vals = [lp_norm(conv.state(i), 4) for i in range(conv.coeffs.shape[0])]
        weights = np.full(len(vals), conv.dt)
        weights[0] = weights[-1] = conv.dt / 2
        l4l4 = float(np.dot(weights, np.array(vals) ** 4)) ** 0.25
        worst = max(worst, l4l4 / math.sqrt(gamma_ball))
    assert worst < 1.0


def test_step_skeleton_single_mode_exact_decay():
    cfg = IntegratorConfig(dt=0.02)
    u = SpectralField.from_modes(8, {(2, 1): 1.0 - 0.5j})
    zero = SpectralField.zero(8)
    out = step_skeleton(u, zero, cfg)
    assert np.allclose(out.coeffs, u.coeffs * math.exp(-5.0 * 0.02), rtol=1e-14)
    with pytest.raises(ValueError):
        step_skeleton(u, zero, cfg, dt=0.05)


def test_skeleton_zero_state_constant_control_matches_duhamel():
    cfg = IntegratorConfig(dt=0.01)
    f = SpectralField.from_modes(8, {(1, 1): 0.5})
    phi = ControlPath.constant(f, 0.01, 20)
    traj = solve_skeleton(SpectralField.zero(8), phi, cfg)
    conv = duhamel_gamma(phi)
    # starting from zero the nonlinearity stays quadratically small
    assert traj.sup_h_distance(conv) < 5e-4
    cfg_lin = IntegratorConfig(dt=0.01, disable_nonlinearity=True)
    exact = solve_skeleton(SpectralField.zero(8), phi, cfg_lin)
    assert np.array_equal(exact.coeffs, conv.coeffs)


def test_taylor_green_decays_exactly():
    # the projected nonlinearity of the Taylor-Green flow vanishes
    u0 = taylor_green(8, 1.0)
    cfg = IntegratorConfig(dt=0.02)
    traj = solve_skeleton(u0, ControlPath.zero(8, 0.02, 25), cfg)
    for i in (5, 25):
        expected = heat_semigroup(u0, i * 0.02)
        assert np.allclose(traj.coeffs[i], expected.coeffs, rtol=1e-12, atol=1e-16)


def test_free_decay_energy_monotone():
    u0 = generic_field()
    cfg = IntegratorConfig(dt=0.01)
    traj = solve_skeleton(u0, ControlPath.zero(8, 0.01, 40), cfg)
    norms = h_norms(traj)
    assert np.all(np.diff(norms) <= 1e-14)


def test_energy_budget_residual_second_order():
    # per step: 0.5 (|u_new|_H^2 - |u|_H^2) + dt |u|_V^2 - dt <phi, u>, which
    # b drops out of since <b(u), u> = 0
    u0 = generic_field()
    worst = {}
    for dt in (0.02, 0.01, 0.005):
        cfg = IntegratorConfig(dt=dt)
        phi = ControlPath.constant(
            SpectralField.from_modes(8, {(1, 0): 0.4}), dt, round(0.2 / dt)
        )
        traj = solve_skeleton(u0, phi, cfg)
        old = traj.coeffs[:-1]
        h2 = 2.0 * np.sum(np.abs(traj.coeffs) ** 2, axis=1)
        v2 = 2.0 * np.sum(traj.grid.ksq * np.abs(old) ** 2, axis=1)
        pairing = 2.0 * np.real(np.sum(phi.values * np.conj(old), axis=1))
        residual = 0.5 * np.diff(h2) + dt * v2 - dt * pairing
        worst[dt] = np.max(np.abs(residual))
    assert worst[0.01] < 0.35 * worst[0.02]
    assert worst[0.005] < 0.35 * worst[0.01]


def test_sobolev_apriori_bound_under_refinement():
    # sup_t |u|_{H^theta}^2 + int |u|_{H^(theta+1)}^2 stays bounded as dt -> 0
    u0 = generic_field()
    theta = 0.5
    totals = {}
    for dt in (0.02, 0.01, 0.005):
        phi = ControlPath.constant(
            SpectralField.from_modes(8, {(1, 0): 0.3}), dt, round(0.3 / dt)
        )
        traj = solve_skeleton(u0, phi, IntegratorConfig(dt=dt))
        sup = max(sobolev_norm(traj.state(i), theta) ** 2 for i in range(traj.n_steps + 1))
        integ = sum(
            dt * sobolev_norm(traj.state(i), theta + 1.0) ** 2
            for i in range(traj.n_steps)
        )
        totals[dt] = sup + integ
    vals = list(totals.values())
    assert max(vals) / min(vals) < 1.05
    assert all(np.isfinite(v) for v in vals)


def test_self_convergence_orders():
    u0 = generic_field()
    expected = {"exponential_euler": 1.0, "etd2": 2.0}
    for scheme, floor in expected.items():
        sols = {}
        for dt in (4e-3, 2e-3, 1e-3, 5e-4):
            cfg = IntegratorConfig(dt=dt, scheme=scheme)
            traj = solve_skeleton(u0, ControlPath.zero(8, dt, round(0.2 / dt)), cfg)
            sols[dt] = traj.coeffs[-1]
        errs = [np.max(np.abs(sols[dt] - sols[5e-4])) for dt in (4e-3, 2e-3, 1e-3)]
        slope, _ = fit_loglog((4e-3, 2e-3, 1e-3), errs)
        assert slope >= floor - 0.1


def test_blowup_detection():
    u0 = taylor_green(8, 2000.0)
    cfg = IntegratorConfig(dt=0.05)
    with pytest.raises(IntegrationBlowupError) as err:
        solve_skeleton(u0, ControlPath.zero(8, 0.05, 20), cfg)
    assert err.value.t > 0.0


def test_stochastic_zero_noise_equals_skeleton():
    u0 = generic_field()
    cfg = IntegratorConfig(dt=0.01)
    spec = NoiseSpec(epsilon=0.0, delta=0.1, gamma=1.0)
    zero = ControlPath.zero(8, 0.01, 30)
    a = solve_controlled(u0, zero, spec, cfg, RngStream(4))
    b = solve_skeleton(u0, zero, cfg)
    assert np.array_equal(a.coeffs, b.coeffs)


BLOCK_MARCHES = {
    "exponential_euler": ({}, 0.05),
    "etd2": ({"scheme": "etd2"}, 0.05),
    "disable_nonlinearity": ({"disable_nonlinearity": True}, 0.05),
    "epsilon_zero": ({}, 0.0),
}


@pytest.mark.parametrize("name", sorted(BLOCK_MARCHES))
def test_block_march_is_each_replica_marched_alone(name):
    options, epsilon = BLOCK_MARCHES[name]
    cfg = IntegratorConfig(dt=0.01, **options)
    u0 = generic_field()
    phi = ControlPath.constant(taylor_green(8, 0.5), 0.01, 12)
    spec = NoiseSpec(epsilon=epsilon, delta=0.1, gamma=1.0)
    streams = [RngStream(21).child(3).child(r) for r in range(5)]
    block = solve_controlled_block(u0, phi, spec, cfg, streams)
    ref = controlled_per_replica(u0, phi, spec, cfg, streams)
    assert np.array_equal(np.stack([p.coeffs for p in block]), ref)
    assert all(p.coeffs.flags.c_contiguous for p in block)
    assert [p.metadata["stream"] for p in block] == [s.stream_id for s in streams]
    one = solve_controlled(u0, phi, spec, cfg, streams[3])
    assert np.array_equal(one.coeffs, ref[3])


def test_a_blowup_in_a_block_names_the_first_failing_replica():
    u0 = generic_field()
    phi = ControlPath.zero(8, 0.01, 15)
    spec = NoiseSpec(epsilon=0.5, delta=0.1, gamma=1.0)
    alone = {s: solve_controlled(u0, phi, spec, IntegratorConfig(dt=0.01), s)
             for s in (RngStream(5).child(r) for r in range(4))}
    peak = {s: max(h_norms(traj)[1:]) for s, traj in alone.items()}
    # the replica with the highest peak goes to row 2; only it crosses
    ranked = sorted(peak, key=peak.get)
    streams = ranked[:2] + [ranked[3], ranked[2]]
    between = 0.5 * (peak[ranked[3]] + peak[ranked[2]])
    cfg = IntegratorConfig(dt=0.01, blowup_threshold=between)
    with pytest.raises(IntegrationBlowupError) as alone_err:
        solve_controlled(u0, phi, spec, cfg, streams[2])
    for s in streams[:2] + streams[3:]:
        solve_controlled(u0, phi, spec, cfg, s)
    with pytest.raises(IntegrationBlowupError) as err:
        solve_controlled_block(u0, phi, spec, cfg, streams)
    assert f"seed=5 stream={streams[2].stream_id}" in str(err.value)
    assert err.value.row == 2
    assert (err.value.t, err.value.norm) == (alone_err.value.t, alone_err.value.norm)

    # several rows fail: the first step any row fails at, its lowest row
    cfg = IntegratorConfig(dt=0.01, blowup_threshold=min(peak.values()) * (1 - 1e-9))
    first = {}
    for r, s in enumerate(streams):
        with pytest.raises(IntegrationBlowupError) as each:
            solve_controlled(u0, phi, spec, cfg, s)
        first.setdefault(each.value.t, r)
    t_fail = min(first)
    with pytest.raises(IntegrationBlowupError) as err:
        solve_controlled_block(u0, phi, spec, cfg, streams)
    assert (err.value.t, err.value.row) == (t_fail, first[t_fail])
    assert f"stream={streams[first[t_fail]].stream_id}" in str(err.value)


def test_stochastic_matches_ou_law_when_nonlinearity_disabled():
    cfg = IntegratorConfig(dt=0.02, disable_nonlinearity=True)
    spec = NoiseSpec(epsilon=0.5, delta=0.1, gamma=1.0)
    g_cut = 6
    t_final = 0.2
    R = 3000
    stream = RngStream(12)
    finals = np.empty((R, SpectralField.zero(g_cut).grid.n_modes), dtype=np.complex128)
    zero = ControlPath.zero(g_cut, cfg.dt, step_count(t_final, cfg.dt))
    for r in range(R):
        traj = solve_controlled(SpectralField.zero(g_cut), zero, spec, cfg, stream.child(r))
        finals[r] = traj.coeffs[-1]
    g = traj.grid
    # transition variance from zero initial data over time t
    lam2 = 1.0 / (1.0 + spec.delta * g.ksq)
    exact = spec.epsilon * lam2 * (-np.expm1(-2.0 * g.ksq * t_final)) / (2.0 * g.ksq)
    emp = np.mean(np.abs(finals) ** 2, axis=0)
    assert np.max(np.abs(emp - exact) / exact) < 0.25
    assert np.median(np.abs(emp - exact) / exact) < 0.08


def test_mean_energy_growth_rate():
    # from u0 = 0: E|u(t)|^2 follows the OU mode sum, and its t -> 0 slope
    # is eps * sum lambda_k^2 (the exact finite-t factor corrects the stiff
    # modes that have already begun to relax)
    cfg = IntegratorConfig(dt=0.002)
    spec = NoiseSpec(epsilon=0.3, delta=0.2, gamma=1.0)
    stream = RngStream(3)
    R = 1500
    t_final = 0.01
    acc = 0.0
    zero = ControlPath.zero(6, cfg.dt, step_count(t_final, cfg.dt))
    for r in range(R):
        traj = solve_controlled(SpectralField.zero(6), zero, spec, cfg, stream.child(r))
        acc += h_norms(traj)[-1] ** 2
    rate = acc / R / t_final
    g = traj.grid
    lam2 = 1.0 / (1.0 + spec.delta * g.ksq)
    flat_rate = spec.epsilon * 2.0 * float(np.sum(lam2))
    exact = (
        spec.epsilon
        * 2.0
        * float(np.sum(lam2 * (-np.expm1(-2.0 * g.ksq * t_final)) / (2.0 * g.ksq)))
    )
    assert rate == pytest.approx(exact / t_final, rel=0.1)
    # the exact curve itself approaches the flat rate as t -> 0
    t_small = 1e-4
    small = (
        spec.epsilon
        * 2.0
        * float(np.sum(lam2 * (-np.expm1(-2.0 * g.ksq * t_small)) / (2.0 * g.ksq)))
    )
    assert small / t_small == pytest.approx(flat_rate, rel=0.01)


def test_controlled_zero_control_equals_stochastic():
    # du = [Au + b(u)] dt + sqrt(eps) dw: the march with the step noise of child(1)
    u0 = generic_field()
    cfg = IntegratorConfig(dt=0.01)
    spec = NoiseSpec(epsilon=0.2, delta=0.1, gamma=1.0)
    a = solve_controlled(u0, ControlPath.zero(8, 0.01, 25), spec, cfg, RngStream(9))
    g, rule = u0.grid, cfg.rule(8)
    _, std = ou_transition(g, spec, 0.0, cfg.dt)
    b = march(
        g, u0.coeffs, 25, cfg.dt, lambda u, step: b_core(u, g, rule), cfg,
        noise_std=std, gen=RngStream(9).child(1).generator(),
    )
    assert np.array_equal(a.coeffs, b)


def test_controlled_without_noise_is_weighted_skeleton():
    u0 = generic_field()
    cfg = IntegratorConfig(dt=0.01)
    spec = dataclasses.replace(NoiseSpec(epsilon=0.2, delta=0.3, gamma=1.0), epsilon=0.0)
    phi = ControlPath.constant(SpectralField.from_modes(8, {(1, 0): 0.7}), 0.01, 20)
    a = solve_controlled(u0, phi, spec, cfg, RngStream(1))
    lam = covariance_weights(u0.grid, spec)
    weighted = ControlPath(u0.grid, 0.01, phi.values * lam[None, :])
    b = solve_skeleton(u0, weighted, cfg)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_trajectory_states_divergence_free():
    u0 = generic_field()
    cfg = IntegratorConfig(dt=0.01)
    spec = NoiseSpec(epsilon=0.3, delta=0.05, gamma=1.0)
    traj = solve_controlled(u0, ControlPath.zero(8, 0.01, 10), spec, cfg, RngStream(10))
    for i in range(0, traj.n_steps + 1, 5):
        assert divergence_residual(traj.state(i)) <= 1e-12


def test_trajectory_serialization_roundtrip(tmp_path):
    u0 = generic_field()
    cfg = IntegratorConfig(dt=0.01)
    spec = NoiseSpec(epsilon=0.1, delta=0.1, gamma=1.0)
    traj = solve_controlled(u0, ControlPath.zero(8, 0.01, 5), spec, cfg, RngStream(3))
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert back.dt == traj.dt
    assert np.array_equal(back.coeffs, traj.coeffs)
    assert back.metadata["kind"] == "controlled"


def test_control_grid_mismatch_rejected():
    u0 = generic_field()
    cfg = IntegratorConfig(dt=0.01)
    phi = ControlPath.zero(8, 0.02, 10)
    with pytest.raises(ValueError):
        solve_skeleton(u0, phi, cfg)
    with pytest.raises(ValueError):
        solve_skeleton(SpectralField.zero(6), ControlPath.zero(8, 0.01, 10), cfg)


def test_linear_regime_error_scales_quadratically():
    # small data: the solution matches heat flow + Duhamel up to O(a^2)
    ratios = []
    for a in (1e-2, 1e-3):
        u0 = taylor_green(8, a)
        phi = ControlPath.constant(
            SpectralField.from_modes(8, {(2, 1): a * (0.3 + 0.1j)}), 0.01, 20
        )
        traj = solve_skeleton(u0, phi, IntegratorConfig(dt=0.01))
        conv = duhamel_gamma(phi)
        worst = 0.0
        for i in range(traj.n_steps + 1):
            lin = heat_semigroup(u0, i * 0.01).coeffs + conv.coeffs[i]
            worst = max(worst, float(np.max(np.abs(traj.coeffs[i] - lin))))
        ratios.append(worst / a**2)
    # err / a^2 stays bounded as the amplitude drops two decades in a^2
    assert ratios[1] < 3.0 * ratios[0]


def test_trajectory_metadata_records_stream():
    u0 = taylor_green(8, 0.4)
    cfg = IntegratorConfig(dt=0.01)
    spec = NoiseSpec(epsilon=0.1, delta=0.1, gamma=1.0)
    traj = solve_controlled(u0, ControlPath.zero(8, 0.01, 5), spec, cfg, RngStream(99, (3,)))
    assert traj.metadata["seed"] == 99
    assert traj.metadata["stream"] == (3,)
    assert traj.metadata["epsilon"] == 0.1
    assert traj.metadata["scheme"] == "exponential_euler"


def test_march_ou_path_matches_repeated_ou_steps():
    g = taylor_green(6, 1.0).grid
    spec = NoiseSpec(epsilon=0.3, delta=0.1, gamma=1.0)
    dt = 0.05
    z0 = SpectralField.random(6, np.random.default_rng(1), amplitude=0.2)
    _, std = ou_transition(g, spec, 0.0, dt)
    path = march(g, z0.coeffs, 4, dt, noise_std=std, gen=np.random.default_rng(5))
    gen = np.random.default_rng(5)
    z = z0
    for i in range(1, 5):
        z = ou_step(z, spec, 0.0, dt, gen)
        assert np.array_equal(path[i], z.coeffs)


def _march_case(scheme, rows, noise):
    """(args, kwargs) of a march at N=16 under a control, from one start or
    a block of 8, with fresh generators on each call."""
    cfg = IntegratorConfig(dt=0.01, scheme=scheme)
    g = grid_for(16)
    starts = np.stack([generic_field(16, seed=s).coeffs for s in range(rows or 1)])
    forcing = skeleton_forcing(g, cfg, ControlPath.constant(taylor_green(16, 0.5), 0.01, 6).values)
    kwargs = {}
    if noise:
        _, kwargs["noise_std"] = ou_transition(g, NoiseSpec(0.05, 0.1), 0.0, 0.01)
        gens = [np.random.default_rng(30 + r) for r in range(rows or 1)]
        kwargs["gen"] = gens if rows else gens[0]
    return (g, starts if rows else starts[0], 6, 0.01, forcing, cfg), kwargs


@pytest.mark.parametrize("noise", [False, True])
@pytest.mark.parametrize("rows", [0, 8])
@pytest.mark.parametrize("scheme", ["exponential_euler", "etd2"])
def test_march_in_place_is_the_allocating_march(scheme, rows, noise):
    args, kwargs = _march_case(scheme, rows, noise)
    got = march(*args, **kwargs)
    args, kwargs = _march_case(scheme, rows, noise)
    want = _oracles.march_allocating(*args, **kwargs)
    assert got.shape == want.shape == ((rows,) if rows else ()) + (7, grid_for(16).n_modes)
    assert np.array_equal(got, want)


def test_a_planted_blowup_in_an_in_place_block_names_the_lowest_failing_row():
    (g, starts, n, dt, forcing, cfg), kwargs = _march_case("exponential_euler", 8, True)
    # rows 5 and 3 are scaled above a threshold that the other rows stay under
    starts = starts.copy()
    starts[[3, 5]] *= 4.0
    path = _oracles.march_allocating(g, starts, n, dt, forcing, cfg, **kwargs)
    norms = np.sqrt(2.0 * np.sum(np.abs(path) ** 2, axis=-1))
    limit = 0.5 * (np.max(norms[[0, 1, 2, 4, 6, 7]]) + np.min(norms[[3, 5]]))
    cfg = dataclasses.replace(cfg, blowup_threshold=limit)
    errors = []
    for marching in (march, _oracles.march_allocating):
        _, kwargs = _march_case("exponential_euler", 8, True)
        with pytest.raises(IntegrationBlowupError) as err:
            marching(g, starts, n, dt, forcing, cfg, **kwargs)
        errors.append((err.value.row, err.value.t, err.value.norm))
    assert errors[0] == errors[1]
    assert errors[0][:2] == (3, dt)


def test_march_guard_raises_on_non_finite_state_without_config():
    g = taylor_green(4, 1.0).grid
    nan_forcing = lambda u, step: np.full(g.n_modes, np.nan if step == 2 else 0.0)
    with pytest.raises(IntegrationBlowupError) as err:
        march(g, np.zeros(g.n_modes), 5, 0.1, nan_forcing)
    assert err.value.t == pytest.approx(0.3)
    huge = march(g, np.full(g.n_modes, 1e8), 1, 0.1)
    assert np.all(np.isfinite(huge))


def _counting_vdot(monkeypatch):
    """A list that np.vdot appends each call's row to."""
    calls = []
    vdot = np.vdot

    def counted(a, b):
        calls.append(a)
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", counted)
    return calls


def test_a_block_screens_its_rows_at_once_and_checks_a_row_near_the_limit_alone(monkeypatch):
    g = grid_for(16)
    starts = np.stack([generic_field(16, seed=s).coeffs for s in range(8)])
    calls = _counting_vdot(monkeypatch)
    # far under the limit: no row is checked alone; a single start is
    free = march(g, starts, 5, 0.01, cfg=IntegratorConfig(dt=0.01))
    assert calls == []
    march(g, starts[0], 5, 0.01, cfg=IntegratorConfig(dt=0.01))
    assert len(calls) == 5
    # a free decay's first step is decay * u; the largest row sits within
    # 1e-14 of the limit, under it and then over it
    after = np.exp(-g.ksq * 0.01) * starts
    top = max(range(8), key=lambda r: 2.0 * np.vdot(after[r], after[r]).real)
    top_sq = 2.0 * np.vdot(after[top], after[top]).real
    calls.clear()
    at = IntegratorConfig(dt=0.01, blowup_threshold=math.sqrt(top_sq * (1 + 1e-14)))
    assert np.array_equal(march(g, starts, 1, 0.01, cfg=at), free[:, :2])
    assert len(calls) == 8  # the screen passed the step to the per-row check
    over = IntegratorConfig(dt=0.01, blowup_threshold=math.sqrt(top_sq * (1 - 1e-14)))
    with pytest.raises(IntegrationBlowupError) as alone:
        march(g, starts[top], 1, 0.01, cfg=over)
    with pytest.raises(IntegrationBlowupError) as err:
        march(g, starts, 1, 0.01, cfg=over)
    assert (err.value.row, err.value.t, err.value.norm) == (top, alone.value.t, alone.value.norm)
    # a NaN row fails the screen and is named by the per-row check
    starts[5] = np.nan
    with pytest.raises(IntegrationBlowupError) as err:
        march(g, starts, 1, 0.01)
    assert err.value.row == 5 and math.isnan(err.value.norm)


@pytest.mark.parametrize("noise", [False, True])
@pytest.mark.parametrize("rows", [0, 8])
@pytest.mark.parametrize("scheme", ["exponential_euler", "etd2"])
def test_a_march_leaves_the_arrays_its_forcing_returns_untouched(scheme, rows, noise):
    # duhamel_gamma and phi_eps hand out rows of the caller's control
    (g, starts, n, dt, _, cfg), kwargs = _march_case(scheme, rows, noise)
    rng = np.random.default_rng(7)
    shape = (n,) + starts.shape
    control = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kept = control.copy()
    march(g, starts, n, dt, lambda u, step: control[step], cfg, **kwargs)
    assert np.array_equal(control, kept)
    if rows == 0 and not noise:
        phi = ControlPath(g, dt, control)
        duhamel_gamma(phi)
        phi_eps(phi, NoiseSpec(0.05, 0.1))
        assert np.array_equal(phi.values, kept)


# --------------------------------------------------------------------------
# the step noise drawn ahead on a helper thread


def _on_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _noisy_march_case(scheme, rows, n_steps, dt=0.01):
    """(args, kwargs) of a noisy march at N=8 under a control, from one start
    (rows 0, as in ``_march_case``) or a block, with fresh generators on
    each call."""
    cfg = IntegratorConfig(dt=dt, scheme=scheme)
    g = grid_for(8)
    starts = np.stack([generic_field(8, seed=s).coeffs for s in range(rows or 1)])
    control = ControlPath.constant(taylor_green(8, 0.5), dt, n_steps).values
    _, std = ou_transition(g, NoiseSpec(0.05, 0.1), 0.0, dt)
    gens = [np.random.default_rng(40 + r) for r in range(rows or 1)]
    kwargs = {"noise_std": std, "gen": gens if rows else gens[0]}
    forcing = skeleton_forcing(g, cfg, control)
    return (g, starts if rows else starts[0], n_steps, dt, forcing, cfg), kwargs


def test_draw_chunks_cover_the_steps_in_chunks_of_about_their_square_root():
    assert draw_chunks(0) == []
    assert draw_chunks(1) == [1]
    assert draw_chunks(7) == [3, 3, 1]
    assert draw_chunks(50) == [8] * 6 + [2]
    for n in range(1, 400):
        chunks = draw_chunks(n)
        assert sum(chunks) == n and max(chunks) == math.ceil(math.sqrt(n))


@pytest.mark.parametrize("n_steps", [1, 7, 50])
@pytest.mark.parametrize("rows", [0, 1, 8])
@pytest.mark.parametrize("scheme", ["exponential_euler", "etd2"])
def test_the_draw_ahead_march_is_the_serial_march_bit_for_bit(
    monkeypatch, draw_ahead_helpers, scheme, rows, n_steps
):
    def states(kwargs):
        return [g.bit_generator.state for g in (kwargs["gen"] if rows else [kwargs["gen"]])]

    # the serial march draws each step's noise in the march itself
    args, kwargs = _noisy_march_case(scheme, rows, n_steps)
    want = _oracles.march_allocating(*args, **kwargs).tobytes()
    want_states = states(kwargs)
    for cores in (1, 2):
        _on_cores(monkeypatch, cores)
        threads = threading.active_count()
        args, kwargs = _noisy_march_case(scheme, rows, n_steps)
        assert march(*args, **kwargs).tobytes() == want
        assert threading.active_count() == threads
        assert states(kwargs) == want_states
    # one helper per march, on one core and on two, for one chunk too
    assert len(draw_ahead_helpers) == 2


def test_one_core_draws_a_noisy_block_ahead_on_one_helper(monkeypatch, draw_ahead_helpers):
    # one core runs the threads and the code of two: the march's own steps
    # and one helper drawing its noise
    _on_cores(monkeypatch, 1)
    args, kwargs = _noisy_march_case("exponential_euler", 8, 50)
    want = _oracles.march_allocating(*args, **kwargs)
    threads = threading.active_count()
    args, kwargs = _noisy_march_case("exponential_euler", 8, 50)
    kwargs["gen"] = [_PlantedGenerator(g) for g in kwargs["gen"]]
    got = march(*args, **kwargs)
    assert threading.active_count() == threads
    assert len(draw_ahead_helpers) == 1
    drawn_on = {ident for g in kwargs["gen"] for ident in g.threads}
    assert len(drawn_on) == 1 and threading.get_ident() not in drawn_on
    assert got.tobytes() == want.tobytes()


def test_draw_ahead_marches_on_more_threads_than_cores_keep_the_serial_bits(
    monkeypatch, draw_ahead_helpers
):
    schemes = ["exponential_euler", "etd2"] * 2
    cases = (_noisy_march_case(scheme, 8, 50) for scheme in schemes)
    want = [_oracles.march_allocating(*args, **kwargs).tobytes() for args, kwargs in cases]
    got = [None] * len(schemes)

    def work(i):
        args, kwargs = _noisy_march_case(schemes[i], 8, 50)
        got[i] = march(*args, **kwargs).tobytes()

    for cores in (1, 2):
        _on_cores(monkeypatch, cores)
        got[:] = [None] * len(schemes)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(len(schemes))]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert got == want
    assert len(draw_ahead_helpers) == 2 * len(schemes)


def test_marches_without_noise_or_rows_start_no_helper(draw_ahead_helpers):
    u0 = generic_field()
    phi = ControlPath.constant(taylor_green(8, 0.5), 0.01, 20)
    solve_skeleton(u0, phi, IntegratorConfig(dt=0.01))
    duhamel_gamma(phi)
    solve_controlled(u0, phi, NoiseSpec(0.0, 0.1), IntegratorConfig(dt=0.01), RngStream(3))
    # an empty block of Ornstein-Uhlenbeck paths
    g = u0.grid
    _, std = ou_transition(g, NoiseSpec(0.05, 0.1), 0.0, 0.01)
    empty = march(g, np.zeros((0, g.n_modes)), 20, 0.01, noise_std=std, gen=[])
    assert empty.shape == (0, 21, g.n_modes)
    assert draw_ahead_helpers == []


@pytest.mark.parametrize("epsilon", [0.1, 0.0])
def test_an_empty_block_has_no_paths_and_starts_no_helper(draw_ahead_helpers, epsilon):
    phi = ControlPath.constant(taylor_green(8, 0.5), 0.01, 5)
    spec = NoiseSpec(epsilon, 0.1)
    threads = threading.active_count()
    assert solve_controlled_block(generic_field(), phi, spec, IntegratorConfig(dt=0.01), []) == []
    assert threading.active_count() == threads
    assert draw_ahead_helpers == []


@pytest.mark.parametrize("n_steps", [1, 7, 50])
@pytest.mark.parametrize("cores", [1, 2])
def test_a_march_draws_each_chunk_of_steps_in_one_call_per_row(monkeypatch, cores, n_steps):
    _on_cores(monkeypatch, cores)
    args, kwargs = _noisy_march_case("exponential_euler", 8, n_steps)
    kwargs["gen"] = [_PlantedGenerator(g) for g in kwargs["gen"]]
    march(*args, **kwargs)
    assert [g.calls for g in kwargs["gen"]] == [len(draw_chunks(n_steps))] * 8


def test_a_blowup_under_the_draw_ahead_is_the_serial_one_and_joins_the_helper(
    monkeypatch, draw_ahead_helpers
):
    (g, starts, n, dt, forcing, cfg), kwargs = _noisy_march_case("exponential_euler", 8, 50)

    def planted(u, step):
        F = forcing(u, step)
        if step == 20:  # rows 6 and 3 leave the ball at step 21
            F[[3, 6]] *= 1e9
        return F

    # the serial march draws each step's noise in the march itself
    with pytest.raises(IntegrationBlowupError) as err:
        _oracles.march_allocating(g, starts, n, dt, planted, cfg, **kwargs)
    want = (err.value.row, err.value.t, err.value.norm)
    assert want[:2] == (3, 21 * dt)
    for cores in (1, 2):
        _on_cores(monkeypatch, cores)
        threads = threading.active_count()
        _, kwargs = _noisy_march_case("exponential_euler", 8, 50)
        # a slow draw keeps the helper busy with a later chunk when the march raises
        kwargs["gen"][0] = _PlantedGenerator(kwargs["gen"][0], delay=0.02)
        with pytest.raises(IntegrationBlowupError) as err:
            march(g, starts, n, dt, planted, cfg, **kwargs)
        assert threading.active_count() == threads
        assert len(draw_ahead_helpers) == cores
        assert (err.value.row, err.value.t, err.value.norm) == want


class _PlantedGenerator:
    """A generator whose standard_normal draws as gen's, each call after a
    pause of delay seconds, and raises at its call number fail_at; calls
    counts them and threads lists the thread of each."""

    def __init__(self, gen, fail_at=None, delay=0.0):
        self.gen, self.fail_at, self.delay, self.calls = gen, fail_at, delay, 0
        self.threads = []

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        self.threads.append(threading.get_ident())
        if self.calls == self.fail_at:
            raise RuntimeError("planted draw failure")
        time.sleep(self.delay)
        return self.gen.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("cores", [1, 2])
def test_a_draw_failure_on_the_helper_is_raised_by_the_march(
    monkeypatch, draw_ahead_helpers, cores
):
    _on_cores(monkeypatch, cores)
    args, kwargs = _noisy_march_case("etd2", 8, 50)
    # row 5's first call draws its first chunk of 8 steps, on the helper
    kwargs["gen"][5] = _PlantedGenerator(kwargs["gen"][5], fail_at=1)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="planted draw failure"):
        march(*args, **kwargs)
    assert threading.active_count() == threads
    assert len(draw_ahead_helpers) == 1


def test_an_interrupt_in_the_march_joins_the_helper(draw_ahead_helpers):
    (g, starts, n, dt, forcing, cfg), kwargs = _noisy_march_case("exponential_euler", 8, 50)
    kwargs["gen"][0] = _PlantedGenerator(kwargs["gen"][0], delay=0.02)

    def interrupted(u, step):
        if step == 1:
            raise KeyboardInterrupt
        return forcing(u, step)

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        march(g, starts, n, dt, interrupted, cfg, **kwargs)
    assert threading.active_count() == threads
    assert len(draw_ahead_helpers) == 1


def _next_slot(node):
    """Whether node is a subscript at slot [i + 1], also as one index of a
    tuple: [..., i + 1, :]."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(
        isinstance(i, ast.BinOp)
        and isinstance(i.op, ast.Add)
        and isinstance(i.right, ast.Constant)
        and i.right.value == 1
        for i in index
    )


def _recurrence_loops(tree):
    """Functions holding a forward per-step recurrence: a loop that stores the
    next state into slot [i + 1], by assignment or in place (an ``out=`` into
    the slot, or a name bound to the slot and then written through), or
    rebinds a name to a one-step function (ou_step, step_skeleton) applied
    to itself."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            nodes = list(ast.walk(loop))
            slots = {
                node.targets[0].id
                for node in nodes
                if isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and _next_slot(node.value)
            }

            def is_slot(node):
                return _next_slot(node) or (isinstance(node, ast.Name) and node.id in slots)

            for node in nodes:
                if isinstance(node, ast.Assign):
                    tgt, val = node.targets[0], node.value
                    stored = _next_slot(tgt) or (
                        isinstance(tgt, ast.Subscript) and is_slot(tgt.value)
                    )
                    self_step = (
                        isinstance(tgt, ast.Name)
                        and isinstance(val, ast.Call)
                        and getattr(val.func, "id", getattr(val.func, "attr", None))
                        in ("ou_step", "step_skeleton")
                        and any(isinstance(a, ast.Name) and a.id == tgt.id for a in val.args)
                    )
                elif isinstance(node, ast.AugAssign):
                    stored, self_step = is_slot(node.target), False
                elif isinstance(node, ast.Call):
                    stored = any(k.arg == "out" and is_slot(k.value) for k in node.keywords)
                    self_step = False
                else:
                    continue
                if stored or self_step:
                    found.append(func.name)
                    break
            else:
                continue
            break
    return found


def test_march_is_the_only_time_march_in_the_package():
    src = pathlib.Path(sns2d.__file__).parent
    found = [
        f"{path.name}:{name}"
        for path in sorted(src.glob("*.py"))
        for name in _recurrence_loops(ast.parse(path.read_text()))
    ]
    assert found == ["dynamics.py:march"]
    # the step weights are computed by exp_weights, not again in the ldp layer
    # or its Monte Carlo; laplace_check's np.exp is the exponential
    # functional's weight
    exp_calls = [
        (func.name, node.func.attr)
        for name in ("ldp.py", "montecarlo.py")
        for func in ast.walk(ast.parse((src / name).read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("exp", "expm1")
    ]
    assert exp_calls == [("laplace_check", "exp")]


def test_recurrence_guard_sees_each_old_form_of_a_march():
    for text in (
        "def duhamel(out, n):\n"
        "    for step in range(n):\n"
        "        out[step + 1] = decay * out[step] + dt * psi1 * vals[step]\n",
        "def besov(z, n):\n"
        "    for _ in range(n):\n"
        "        z = ou_step(z, spec, alpha, dt, gen)\n",
        "def skel(u, n):\n"
        "    while n:\n"
        "        u = noise.step_skeleton(u, phi, cfg)\n",
        "def block(out, n):\n"
        "    for step in range(n):\n"
        "        out[:, step + 1] = decay * out[:, step]\n",
        "def rows(out, n):\n"
        "    for step in range(n):\n"
        "        out[..., step + 1, :] = decay * out[..., step, :]\n",
        "def in_slot(out, n):\n"
        "    for step in range(n):\n"
        "        unew = np.multiply(decay, out[..., step, :], out=out[..., step + 1, :])\n",
        "def bound_slot(out, n):\n"
        "    for step in range(n):\n"
        "        unew = out[..., step + 1, :]\n"
        "        np.multiply(decay, out[..., step, :], out=unew)\n",
        "def added_in_slot(out, n):\n"
        "    for step in range(n):\n"
        "        unew = out[step + 1]\n"
        "        unew += gain * vals[step]\n",
        "def filled_slot(out, n):\n"
        "    for step in range(n):\n"
        "        unew = out[step + 1]\n"
        "        unew[...] = decay * out[step]\n",
    ):
        assert _recurrence_loops(ast.parse(text)) != [], text
    adjoint = (
        "def adjoint(lam, n):\n"
        "    for step in range(n - 1, -1, -1):\n"
        "        grad[step] = phi[step] + psi1 * lam\n"
        "        lam = decay * lam\n"
    )
    assert _recurrence_loops(ast.parse(adjoint)) == []
    # reading the next slot, or an in-place update of the current one, is no march
    reads = (
        "def diff(c, n):\n"
        "    for i in range(n):\n"
        "        hi = c[i + 1]\n"
        "        np.multiply(psi1, lam, out=grad[i])\n"
        "        lam *= decay\n"
    )
    assert _recurrence_loops(ast.parse(reads)) == []


def test_sup_norms_keep_a_nan():
    cfg = IntegratorConfig(dt=0.05)
    traj = solve_skeleton(taylor_green(4, 0.5), ControlPath.zero(4, 0.05, 3), cfg)
    norm = lambda f: np.nan if np.array_equal(f.coeffs, traj.coeffs[1]) else 1.0
    # the distance to the zero path is the sup norm
    zero = Trajectory(traj.grid, traj.dt, np.zeros_like(traj.coeffs))
    assert np.isnan(traj.sup_distance(zero, norm))
    h = lambda f: sobolev_norm(f, 0.0)
    assert traj.sup_distance(zero, h) == pytest.approx(max(h_norms(traj)), rel=1e-14)


def test_sup_distance_is_the_sup_of_the_state_differences():
    cfg = IntegratorConfig(dt=0.05)
    a = solve_skeleton(taylor_green(4, 0.5), ControlPath.zero(4, 0.05, 3), cfg)
    b = solve_skeleton(taylor_green(4, 0.3), ControlPath.zero(4, 0.05, 3), cfg)
    h = lambda f: sobolev_norm(f, -0.5)
    assert a.sup_distance(b, h) == max(h(a.state(i) - b.state(i)) for i in range(4))


@pytest.mark.parametrize("t_final", [-5.0, 0.0, 0.001])
def test_a_horizon_without_a_step_raises(t_final):
    with pytest.raises(ValueError, match="spans no step"):
        step_count(t_final, 0.01)
    # the stochastic paths of the Laplace probe run over a horizon
    with pytest.raises(ValueError, match="spans no step"):
        laplace_check(ConstantFunctional(0.0), taylor_green(4, 0.5), PowerSchedule(0.5), [0.1],
                      2, IntegratorConfig(dt=0.01), t_final, RngStream(0))


def test_step_count_rounds_the_horizon():
    assert step_count(0.5, 0.01) == 50
    assert step_count(0.006, 0.01) == 1
    assert step_count(0.029, 0.01) == 3


@pytest.mark.parametrize("rng", [0, np.random.default_rng(0), None])
def test_stochastic_solvers_take_only_a_stream(rng):
    u0 = taylor_green(4, 0.5)
    spec = NoiseSpec(epsilon=0.1, delta=0.1, gamma=1.0)
    cfg = IntegratorConfig(dt=0.01)
    phi = ControlPath.zero(4, 0.01, 3)
    with pytest.raises(TypeError, match="expected an RngStream"):
        solve_controlled(u0, phi, spec, cfg, rng)
    with pytest.raises(TypeError, match="expected an RngStream"):
        solve_controlled(u0, phi, dataclasses.replace(spec, epsilon=0.0), cfg, rng)
