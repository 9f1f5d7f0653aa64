"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints one line
    ACCEPTANCE <nn> <name>: PASS (<measured quantities>) [<elapsed>s < <limit>s]
and fails if either the tolerance or the runtime budget is violated.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sns2d import (
    BesovParams,
    ControlPath,
    DealiasRule,
    IntegratorConfig,
    NoiseSpec,
    PowerSchedule,
    RngStream,
    SpectralField,
    action,
    besov_convergence_experiment,
    h_convergence_experiment,
    renorm_constant,
    sobolev_norm,
    taylor_green,
    tensor_sobolev_norm,
    wick_square,
)
from sns2d.dynamics import solve_skeleton
from sns2d.experiments import ExperimentConfig, run
from sns2d.grid import grid_for
from sns2d.ldp import action_objective_and_gradient
from sns2d.montecarlo import fit_loglog
from sns2d.noise import (
    l2_moment_exact,
    mode_variances,
    stationary_batch,
    unit_complex_normals,
)
from sns2d.nonlinear import b_bilinear_core, b_core

from _oracles import b_direct, h_inner, ou_step_batch_whole, stokes_apply


def _finish(num, name, t0, limit, detail):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail}) [{elapsed:.1f}s < {limit}s]")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_01_exact_orthogonality_identities():
    """|<b(u),u>| <= 1e-12 |u|_V^2 |u|_H and |<b(u),Au>| <= 1e-11 |u|_V^3
    for 100 random dealiased fields at N = 32."""
    t0 = time.time()
    rule = DealiasRule.two_thirds(32)
    rng = np.random.default_rng(321)
    worst_energy = worst_enstrophy = 0.0
    for _ in range(100):
        u = SpectralField.random(32, rng, amplitude=1.0, decay=0.4)
        u = u.with_coeffs(
            np.where(
                (np.abs(u.grid.k1) <= rule.effective_cutoff)
                & (np.abs(u.grid.k2) <= rule.effective_cutoff),
                u.coeffs,
                0.0,
            )
        )
        bu = u.with_coeffs(b_core(u.coeffs, u.grid, rule))
        h = sobolev_norm(u, 0.0)
        v = sobolev_norm(u, 1.0)
        worst_energy = max(worst_energy, abs(h_inner(bu, u)) / (v * v * h))
        worst_enstrophy = max(worst_enstrophy, abs(h_inner(bu, stokes_apply(u))) / v**3)
    assert worst_energy <= 1e-12
    assert worst_enstrophy <= 1e-11
    _finish(
        1,
        "orthogonality identities",
        t0,
        10,
        f"energy {worst_energy:.2e} <= 1e-12, enstrophy {worst_enstrophy:.2e} <= 1e-11",
    )


def test_02_pseudo_spectral_matches_direct_convolution():
    """Pseudo-spectral b(u, v) vs the O(N^4) convolution oracle at N = 8."""
    t0 = time.time()
    rule = DealiasRule.two_thirds(8)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        u = SpectralField.random(8, rng, amplitude=0.8, decay=0.3)
        v = SpectralField.random(8, rng, amplitude=0.8, decay=0.3)
        want = b_direct(u, v, rule.effective_cutoff)
        got = b_bilinear_core(u.coeffs, v.coeffs, u.grid, rule)
        worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert worst <= 1e-12
    _finish(2, "convolution oracle", t0, 10, f"20 pairs, rel err {worst:.2e} <= 1e-12")


def test_03_ou_stationary_law():
    """Stationary mode variances within 5% at 1e4 replicas (N = 16,
    alpha in {0, 1}); the exact one-step transition preserves the law at the
    1% significance level (two-sample KS on the energy statistic)."""
    from scipy.stats import ks_2samp

    t0 = time.time()
    g = grid_for(16)
    spec = NoiseSpec(epsilon=0.5, delta=0.1, gamma=1.0)
    replicas = 10_000
    detail = []
    for idx, alpha in enumerate((0.0, 1.0)):
        s = RngStream(160 + idx)
        Z = stationary_batch(g, spec, alpha, s.child(0).generator(), replicas)
        emp = np.mean(np.abs(Z) ** 2, axis=0)
        exact = mode_variances(g, spec, alpha)
        rel = float(np.max(np.abs(emp - exact) / exact))
        assert rel <= 0.05, f"alpha={alpha}: variance off by {rel:.3f}"
        stepped = ou_step_batch_whole(Z, g, spec, alpha, 0.01, s.child(1).generator())
        fresh = stationary_batch(g, spec, alpha, s.child(2).generator(), replicas)
        energy = lambda W: 2.0 * np.sum(np.abs(W) ** 2, axis=1)
        p = ks_2samp(energy(stepped), energy(fresh)).pvalue
        assert p > 0.01, f"alpha={alpha}: stationarity KS p-value {p:.4f}"
        detail.append(f"alpha={alpha:g}: max rel err {rel:.3f}, KS p {p:.2f}")
    _finish(3, "OU law", t0, 60, "; ".join(detail))


def test_04_renormalization_constant():
    """Tail-corrected constant agrees across cutoffs 128/256 within 1e-8 at
    delta in {0.1, 0.01}; axis symmetry exact (rational oracle); Monte Carlo
    mean of the renormalized-square zero-mode diagonal within 3 stderr of 0
    at 1e4 stationary samples."""
    t0 = time.time()
    worst_pair = 0.0
    for delta in (0.1, 0.01):
        vals = [renorm_constant(delta, 1.0, c, tail_tol=1e-8) for c in (128, 256)]
        worst_pair = max(worst_pair, abs(vals[0] - vals[1]))
    assert worst_pair <= 1e-8

    # exact axis symmetry of the defining sum (rational arithmetic)
    delta_q = Fraction(1, 10)
    C = 16
    s1 = s2 = Fraction(0)
    for a in range(-C, C + 1):
        for b in range(-C, C + 1):
            if (a, b) == (0, 0):
                continue
            ksq = Fraction(a * a + b * b)
            lam2 = 1 / (1 + delta_q * ksq)
            s1 += Fraction(a * a) / ksq**2 * lam2
            s2 += Fraction(b * b) / ksq**2 * lam2
    assert s1 == s2
    assert renorm_constant(0.1, 1.0, C) == pytest.approx(
        float(s1) / (8.0 * math.pi**2), rel=1e-13
    )

    spec = NoiseSpec(epsilon=0.5, delta=0.1, gamma=1.0)
    rule = DealiasRule.none(16)
    gen = RngStream(164).generator()
    g = grid_for(16)
    R = 10_000
    diag = np.empty((R, 2))
    for r in range(R):
        z = SpectralField(g, stationary_batch(g, spec, 0.0, gen, 1)[0])
        zm = wick_square(z, spec, rule).zero_mode()
        diag[r] = zm[0, 0], zm[1, 1]
    zmax = 0.0
    for col in range(2):
        se = diag[:, col].std(ddof=1) / math.sqrt(R)
        zmax = max(zmax, abs(diag[:, col].mean()) / se)
    assert zmax <= 3.0
    _finish(
        4,
        "renormalization constant",
        t0,
        120,
        f"cutoff pair gap {worst_pair:.1e} <= 1e-8, symmetry exact, wick z {zmax:.2f} <= 3",
    )


def test_05_log_moment_bound():
    """E|z|_{L^2}^2 within 5% of the closed-form mode sum and the ratio to
    eps log((1 + delta)/delta) varies by less than a factor 3 over
    delta in {1e-1, ..., 1e-4} at gamma = 1, N = 16."""
    t0 = time.time()
    g = grid_for(16)
    ratios = []
    worst_rel = 0.0
    for i, delta in enumerate((1e-1, 1e-2, 1e-3, 1e-4)):
        spec = NoiseSpec(epsilon=0.3, delta=delta, gamma=1.0)
        Z = stationary_batch(g, spec, 0.0, RngStream(165 + i).generator(), 10_000)
        est = float(np.mean(2.0 * np.sum(np.abs(Z) ** 2, axis=1)))
        closed = l2_moment_exact(g, spec)
        worst_rel = max(worst_rel, abs(est - closed) / closed)
        ratios.append(est / (spec.epsilon * math.log((1.0 + delta) / delta)))
    spread = max(ratios) / min(ratios)
    assert worst_rel <= 0.05
    assert spread < 3.0
    _finish(
        5,
        "logarithmic moment bound",
        t0,
        120,
        f"closed-form rel err {worst_rel:.4f} <= 0.05, ratio spread {spread:.2f} < 3",
    )


def _smooth_initial(cutoff):
    return taylor_green(cutoff, 1.0) + SpectralField.from_modes(
        cutoff, {(2, 1): 0.2 - 0.1j, (0, 3): 0.1j, (3, 2): 0.05}
    )


def _varying_control(cutoff, dt, n):
    f1 = SpectralField.from_modes(cutoff, {(1, 0): 0.5}).coeffs
    f2 = SpectralField.from_modes(cutoff, {(2, 1): 0.25 - 0.1j}).coeffs
    t = np.arange(n) * dt
    vals = np.cos(2 * np.pi * t)[:, None] * f1[None, :]
    vals += np.sin(4 * t)[:, None] * f2[None, :]
    return ControlPath(grid_for(cutoff), dt, vals)


def test_06_skeleton_action_duality():
    """action(solve(u0, phi)) -> (1/2)|phi|^2_{L2(0,T;H)} with observed order
    >= 1 over dt in {1e-2, 5e-3, 2.5e-3} at N = 16, T = 0.5; relative gap at
    the finest step <= 2%."""
    t0 = time.time()
    u0 = _smooth_initial(16)
    dts = (1e-2, 5e-3, 2.5e-3)
    gaps = []
    for dt in dts:
        phi = _varying_control(16, dt, round(0.5 / dt))
        traj = solve_skeleton(u0, phi, IntegratorConfig(dt=dt, scheme="etd2"))
        tgt = 0.5 * phi.l2h_norm_sq()
        gaps.append(abs(action(traj).value - tgt) / tgt)
    slope, _ = fit_loglog(dts, gaps)
    assert slope >= 1.0
    assert gaps[-1] <= 0.02
    _finish(
        6,
        "skeleton/action duality",
        t0,
        60,
        f"order {slope:.2f} >= 1, finest gap {gaps[-1]:.2e} <= 2e-2",
    )


def test_07_adjoint_gradient():
    """Adjoint gradient of the penalized action vs central finite differences
    on 10 random directions at N = 8, T = 0.25: relative error <= 1e-5."""
    t0 = time.time()
    cfg = IntegratorConfig(dt=0.0125)
    u0 = _smooth_initial(8)
    rng = np.random.default_rng(77)
    target = SpectralField.random(8, rng, amplitude=0.2, decay=1.0)
    n = round(0.25 / cfg.dt)
    phi = 0.2 * unit_complex_normals(rng, (n, u0.grid.n_modes))
    J, grad, _ = action_objective_and_gradient(phi, u0, target, 5.0, cfg)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        d = unit_complex_normals(rng, phi.shape)
        Jp, _, _ = action_objective_and_gradient(
            phi + h * d, u0, target, 5.0, cfg, want_gradient=False
        )
        Jm, _, _ = action_objective_and_gradient(
            phi - h * d, u0, target, 5.0, cfg, want_gradient=False
        )
        fd = (Jp - Jm) / (2.0 * h)
        pairing = cfg.dt * 2.0 * float(np.real(np.sum(grad * np.conj(d))))
        worst = max(worst, abs(fd - pairing) / abs(fd))
    assert worst <= 1e-5
    _finish(7, "adjoint gradient", t0, 60, f"10 directions, rel err {worst:.2e} <= 1e-5")


def test_08_h_convergence_trend():
    """Mean sup-t H distance between the controlled and skeleton solutions
    decays across eps in {1e-1..1e-4} with delta = sqrt(eps), eta = 1
    (N = 16, T = 0.5, 32 replicas); fitted log-log slope > 0 at 2 sigma."""
    t0 = time.time()
    u0 = taylor_green(16, 0.5)
    cfg = IntegratorConfig(dt=0.01)
    phi = ControlPath.constant(SpectralField.from_modes(16, {(1, 0): 0.5}), 0.01, 50)
    report = h_convergence_experiment(
        u0, phi, PowerSchedule(0.5), 1.0, [1e-1, 1e-2, 1e-3, 1e-4],
        replicas=32, cfg=cfg, rng=RngStream(88),
    )
    assert all(b < a for a, b in zip(report.means, report.means[1:]))
    assert report.slope - 2.0 * report.slope_stderr > 0.0
    _finish(
        8,
        "strong-space convergence trend",
        t0,
        900,
        f"slope {report.slope:.3f} +- {report.slope_stderr:.3f} (>0 at 2 sigma)",
    )


def test_09_besov_convergence_trend():
    """Same sweep measured in sup-t Besov norm (sigma = -0.25, p = 4,
    exponent window validated) with the aggressive schedule delta = eps."""
    t0 = time.time()
    u0 = taylor_green(16, 0.5)
    cfg = IntegratorConfig(dt=0.01)
    phi = ControlPath.constant(SpectralField.from_modes(16, {(1, 0): 0.5}), 0.01, 50)
    besov = BesovParams(sigma=-0.25, p=4.0, alpha=0.3, beta=3.0).validate()
    report = besov_convergence_experiment(
        u0, phi, besov, PowerSchedule(1.0), [1e-1, 1e-2, 1e-3, 1e-4],
        replicas=32, cfg=cfg, rng=RngStream(99),
    )
    assert all(b < a for a, b in zip(report.means, report.means[1:]))
    assert report.slope - 2.0 * report.slope_stderr > 0.0
    _finish(
        9,
        "Besov convergence trend",
        t0,
        900,
        f"slope {report.slope:.3f} +- {report.slope_stderr:.3f} (>0 at 2 sigma)",
    )


def test_10_renormalized_square_decay():
    """E|z x z - eps theta I|_{H^sigma, 4 components} at sigma = -0.5 with
    delta = eps decays across eps in {1e-1, 1e-2, 1e-3} (1e3 replicas,
    N = 16); fitted slope > 0 at 2 sigma."""
    t0 = time.time()
    g = grid_for(16)
    rule = DealiasRule.none(16)
    sched = PowerSchedule(1.0)
    eps_list = [1e-1, 1e-2, 1e-3]
    means, R = [], 1000
    for i, eps in enumerate(eps_list):
        spec = NoiseSpec.at_epsilon(eps, sched)
        gen = RngStream(200 + i).generator()
        vals = np.empty(R)
        for r in range(R):
            z = SpectralField(g, stationary_batch(g, spec, 0.0, gen, 1)[0])
            vals[r] = tensor_sobolev_norm(wick_square(z, spec, rule), -0.5)
        means.append(float(np.mean(vals)))
    slope, se = fit_loglog(eps_list, means)
    assert all(b < a for a, b in zip(means, means[1:]))
    assert slope - 2.0 * se > 0.0
    _finish(
        10,
        "renormalized-square decay",
        t0,
        600,
        f"slope {slope:.3f} +- {se:.3f} (>0 at 2 sigma)",
    )


def test_11_determinism(tmp_path):
    """Any config run twice produces byte-identical numeric outputs."""
    t0 = time.time()
    raw = {
        "schema_version": 1,
        "kind": "ou_checks",
        "numerics": {"cutoff": 8, "dt": 0.02},
        "noise": {"epsilon": 0.4, "delta": 0.1, "gamma": 1.0},
        "statistics": {"replicas": 2000, "seed": 7},
        "params": {"alphas": [0.0, 1.0]},
        "thresholds": {"max_variance_rel_err": 0.2, "min_ks_pvalue": 0.005},
    }
    cfg = ExperimentConfig.from_dict(raw)
    rec_a = run(cfg, str(tmp_path / "a"))
    rec_b = run(cfg, str(tmp_path / "b"))
    bytes_a = open(rec_a.results_csv, "rb").read()
    bytes_b = open(rec_b.results_csv, "rb").read()
    assert bytes_a == bytes_b
    sum_a = open(rec_a.summary_json, "rb").read()
    sum_b = open(rec_b.summary_json, "rb").read()
    assert sum_a == sum_b
    assert rec_a.config_hash == rec_b.config_hash
    _finish(
        11,
        "deterministic outputs",
        t0,
        60,
        f"{len(bytes_a)} CSV bytes identical across runs",
    )
