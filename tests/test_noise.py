import ast
import math
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import sns2d
from sns2d import (
    DealiasRule,
    NoiseSpec,
    PowerSchedule,
    RngStream,
    SpectralField,
    lambda_beta_bound,
    lp_norm,
    ou_step,
    renorm_constant,
    wick_square,
)
from sns2d.grid import grid_for
from sns2d.montecarlo import besov_moment_check, ks_pvalue, lp_log_moment_check
from sns2d.noise import (
    RenormTailError,
    covariance_weights,
    drawn_l2_powers,
    l2_moment_exact,
    lattice_power_sum,
    lattice_sum,
    mode_square_sums,
    mode_variances,
    ou_transition,
    schedule_from_dict,
    stationary_batch,
    stationary_std,
    unit_complex_normals,
    validate_scaling_condition,
    validate_vanishing_schedule,
)
from sns2d.grid import SAMPLES_PER_CALL, stack_depth

from _oracles import (
    besov_moment_check_per_replica,
    l2_powers_whole,
    lp_log_moment_check_whole,
    ou_step_batch_whole,
    unit_complex_normals_assembled,
)


def test_noise_spec_validation():
    NoiseSpec(epsilon=0.1, delta=0.01)
    with pytest.raises(ValueError):
        NoiseSpec(epsilon=-1.0, delta=0.1)
    with pytest.raises(ValueError):
        NoiseSpec(epsilon=0.1, delta=0.1, gamma=0.0)


@pytest.mark.parametrize("field, value", [
    ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", -0.1),
    ("delta", math.nan), ("delta", math.inf), ("delta", -0.1),
    ("gamma", math.nan), ("gamma", math.inf), ("gamma", 0.0), ("gamma", -1.0),
])
def test_noise_spec_refuses_non_finite_and_out_of_range_values(field, value):
    # a NaN epsilon used to pass and then march the noiseless skeleton
    kwargs = {"epsilon": 0.1, "delta": 0.1, "gamma": 1.0, field: value}
    with pytest.raises(ValueError, match=field):
        NoiseSpec(**kwargs)


def test_schedules():
    sched = PowerSchedule(0.5)
    assert sched(0.04) == pytest.approx(0.2)
    assert schedule_from_dict({"kind": "power", "exponent": 1.0})(0.3) == 0.3
    with pytest.raises(ValueError):
        schedule_from_dict({"kind": "mystery"})
    validate_vanishing_schedule(sched, [0.1, 0.01, 0.001])
    with pytest.raises(ValueError, match="delta"):
        validate_vanishing_schedule(PowerSchedule(-0.5), [0.1, 0.01])
    # vanishing delta but eps * delta^(-eta) growing
    grower = PowerSchedule(2.0)
    validate_vanishing_schedule(grower, [0.1, 0.01])
    with pytest.raises(ValueError, match="scaling condition"):
        validate_scaling_condition(grower, [0.1, 0.01], eta=1.0)
    validate_scaling_condition(grower, [0.1, 0.01], eta=1.0, force=True)
    validate_scaling_condition(PowerSchedule(0.5), [0.1, 0.01], eta=1.0)


def test_covariance_weight_values():
    g = grid_for(5)
    weight = lambda k, spec: covariance_weights(g, spec)[g.mode_index[k]]
    spec0 = NoiseSpec(epsilon=1.0, delta=0.0, gamma=1.0)
    for k in ((1, 0), (3, 4)):
        assert weight(k, spec0) == 1.0
    spec = NoiseSpec(epsilon=1.0, delta=1.0, gamma=1.0)
    assert weight((1, 0), spec) == pytest.approx(1.0 / math.sqrt(2.0))
    vals = [weight((k, 0), spec) for k in range(1, 6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_rng_stream_reproducible():
    a = RngStream(123, (4, 5)).generator().standard_normal(8)
    b = RngStream(123, (4, 5)).generator().standard_normal(8)
    assert np.array_equal(a, b)
    c = RngStream(123, (4, 6)).generator().standard_normal(8)
    assert not np.array_equal(a, c)
    assert RngStream(1).child(2).stream_id == (2,)


def test_ou_step_increment_statistics():
    # one exact OU step from rest injects the colored noise increment over dt
    spec = NoiseSpec(epsilon=1.0, delta=0.2, gamma=1.0)
    g = grid_for(6)
    dt = 0.05
    R = 40_000
    rest = np.zeros((R, g.n_modes), dtype=np.complex128)
    samples = ou_step_batch_whole(rest, g, spec, 0.0, dt, RngStream(7).generator())
    var_exact = ou_transition(g, spec, 0.0, dt)[1] ** 2
    mean = samples.mean(axis=0)
    # centered: 4 sigma of the mean of either part is 4 sqrt(var/2/R)
    bound = 4.0 * np.sqrt(var_exact / 2.0 / R)
    assert np.all(np.abs(mean.real) < bound)
    assert np.all(np.abs(mean.imag) < bound)
    var = np.mean(np.abs(samples) ** 2, axis=0)
    assert np.max(np.abs(var - var_exact) / var_exact) < 0.05
    # independent streams decorrelate
    other = ou_step_batch_whole(rest, g, spec, 0.0, dt, RngStream(8).generator())[:, 0]
    corr = np.mean(samples[:, 0] * np.conj(other))
    assert abs(corr) < 4.0 * var_exact[0] / math.sqrt(R)
    with pytest.raises(ValueError):
        ou_step_batch_whole(rest, g, spec, 0.0, 0.0, RngStream(7).generator())


def test_ou_stationary_variances():
    spec = NoiseSpec(epsilon=0.4, delta=0.1, gamma=1.0)
    g = grid_for(6)
    # mode (1,0) at alpha=0: eps lambda^2 / 2
    lam_sq = 1.0 / 1.1
    gen = RngStream(3).generator()
    Z = stationary_batch(g, spec, 0.0, gen, 30_000)
    i = g.mode_index[(1, 0)]
    assert np.mean(np.abs(Z[:, i]) ** 2) == pytest.approx(
        spec.epsilon * lam_sq / 2.0, rel=0.05
    )
    exact = mode_variances(g, spec, 0.0)
    emp = np.mean(np.abs(Z) ** 2, axis=0)
    assert np.max(np.abs(emp - exact) / exact) < 0.12
    # damping kills the variance
    big = mode_variances(g, spec, 1e9)
    assert np.max(big) < 1e-9


def test_ou_step_limits(random_field):
    spec = NoiseSpec(epsilon=0.0, delta=0.1, gamma=1.0)
    z = random_field(6)
    stepped = ou_step(z, spec, 0.5, 0.25, RngStream(0))
    expected = z.coeffs * np.exp(-(z.grid.ksq + 0.5) * 0.25)
    assert np.allclose(stepped.coeffs, expected, rtol=1e-14)
    with pytest.raises(ValueError):
        ou_step(z, spec, 0.0, -0.1, RngStream(0))


def test_ou_step_preserves_stationary_law():
    from scipy.stats import ks_2samp

    spec = NoiseSpec(epsilon=0.7, delta=0.05, gamma=1.0)
    g = grid_for(6)
    s = RngStream(77)
    R = 8000
    Z = stationary_batch(g, spec, 0.0, s.child(0).generator(), R)
    Zs = ou_step_batch_whole(Z, g, spec, 0.0, 0.04, s.child(1).generator())
    fresh = stationary_batch(g, spec, 0.0, s.child(2).generator(), R)
    energy = lambda W: 2.0 * np.sum(np.abs(W) ** 2, axis=1)
    assert ks_2samp(energy(Zs), energy(fresh)).pvalue > 0.01
    emp = np.mean(np.abs(Zs) ** 2, axis=0)
    exact = mode_variances(g, spec, 0.0)
    assert np.max(np.abs(emp - exact) / exact) < 0.2


def _ks_cases():
    """(name, a, b): equal-size samples, with the p-value scipy gives them."""
    rng = np.random.default_rng(31)
    same = rng.standard_normal(50)
    cases = [("identical", same, same.copy()), ("two", np.array([0.0, 1.0]), np.array([2.0, 3.0]))]
    for n in (2, 3, 7, 100, 1000, 2500, 10_000):
        cases.append((f"n={n}", rng.standard_normal(n), rng.standard_normal(n) + 0.05))
    # ties within and across the samples
    cases.append(("ties", rng.integers(0, 6, 500).astype(float), rng.integers(0, 7, 500).astype(float)))
    cases.append(("far apart", rng.standard_normal(400), rng.standard_normal(400) + 1.0))
    cases.append(("disjoint", np.arange(300.0), np.arange(300.0) + 1000.0))
    return cases


@pytest.mark.parametrize("name, a, b", _ks_cases(), ids=[c[0] for c in _ks_cases()])
def test_ks_pvalue_is_scipys_bit_for_bit(name, a, b):
    from scipy.stats import ks_2samp

    want = ks_2samp(a, b).pvalue
    assert ks_pvalue(a, b) == want and type(ks_pvalue(a, b)) is float
    if name == "identical":
        assert want == 1.0
    if name in ("far apart", "disjoint"):
        assert want < 1e-10


def test_ks_pvalue_is_the_exact_formula_above_scipys_switch():
    # scipy's default turns asymptotic above 10000 per sample; here it stays exact
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(32)
    a, b = rng.standard_normal(20_000), rng.standard_normal(20_000) + 0.02
    assert ks_pvalue(a, b) == ks_2samp(a, b, method="exact").pvalue
    assert ks_pvalue(a, b) != ks_2samp(a, b).pvalue


def test_ks_pvalue_propagates_nan_and_needs_equal_sizes():
    from scipy.stats import ks_2samp

    a = np.array([0.3, np.nan, 1.0])
    assert math.isnan(ks_2samp(a, np.ones(3)).pvalue)
    assert math.isnan(ks_pvalue(a, np.ones(3))) and math.isnan(ks_pvalue(np.ones(3), a))
    with pytest.raises(ValueError, match="one size, got 3 and 4"):
        ks_pvalue(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="one size, got 0 and 0"):
        ks_pvalue([], [])


def test_renorm_constant_axis_symmetry_exact_rational():
    # k1^2- and k2^2-weighted sums agree exactly on the symmetric truncation
    delta = Fraction(1, 10)
    C = 12
    s1 = Fraction(0)
    s2 = Fraction(0)
    for a in range(-C, C + 1):
        for b in range(-C, C + 1):
            if a == 0 and b == 0:
                continue
            ksq = Fraction(a * a + b * b)
            lam2 = 1 / (1 + delta * ksq)
            s1 += Fraction(a * a) / ksq**2 * lam2
            s2 += Fraction(b * b) / ksq**2 * lam2
    assert s1 == s2
    implementation = renorm_constant(0.1, 1.0, C)
    reference = float(s1) / (8.0 * math.pi**2)
    assert implementation == pytest.approx(reference, rel=1e-13)


def test_renorm_constant_monotone_and_vanishing():
    thetas = [renorm_constant(d, 1.0, 64) for d in (0.01, 0.1, 1.0, 10.0)]
    assert all(b < a for a, b in zip(thetas, thetas[1:]))
    assert renorm_constant(1e8, 1.0, 64) < 1e-8


def test_renorm_tail_corrected_is_cutoff_independent():
    a = renorm_constant(0.1, 1.0, 64, tail_tol=1e-8)
    b = renorm_constant(0.1, 1.0, 256, tail_tol=1e-8)
    assert abs(a - b) < 1e-12
    # generic-gamma quadrature path agrees with the analytic gamma = 1 path
    g1 = renorm_constant(0.25, 1.0, 48, tail_tol=1e-6)
    from sns2d.noise import _bare_renorm_sum, _tail_generic

    generic = (_bare_renorm_sum(0.25, 1.0, 48) + _tail_generic(0.25, 1.0, 48)[0]) / (
        16.0 * math.pi**2
    )
    assert generic == pytest.approx(g1, abs=1e-9)
    c1 = renorm_constant(0.5, 1.5, 24, tail_tol=1e-6)
    c2 = renorm_constant(0.5, 1.5, 96, tail_tol=1e-6)
    assert abs(c1 - c2) < 1e-9


def test_renorm_tail_tol_unreachable_reports_cutoff():
    with pytest.raises(RenormTailError) as err:
        renorm_constant(0.1, 1.0, 4, tail_tol=1e-16)
    assert err.value.required_cutoff > 4


def test_wick_square_deterministic_input():
    spec = NoiseSpec(epsilon=2.0, delta=0.1, gamma=1.0)
    rule = DealiasRule.none(8)
    z = SpectralField.from_modes(8, {(1, 0): 1.0})
    from sns2d import tensor_product

    plain = tensor_product(z, z, rule)
    wick = wick_square(z, spec, rule)
    theta = renorm_constant(spec.delta, spec.gamma, 8)
    diff = plain.comps - wick.comps
    n = 8
    assert diff[0, 0, n, n] == pytest.approx(spec.epsilon * theta, rel=1e-14)
    assert diff[1, 1, n, n] == pytest.approx(spec.epsilon * theta, rel=1e-14)
    diff[0, 0, n, n] = diff[1, 1, n, n] = 0.0
    assert np.max(np.abs(diff)) == 0.0


def test_wick_square_zero_mode_centered():
    # theta at the field's truncation is the exact stationary mean per eps
    spec = NoiseSpec(epsilon=0.6, delta=0.2, gamma=1.0)
    g = grid_for(6)
    rule = DealiasRule.none(6)
    gen = RngStream(5).generator()
    R = 4000
    diag = np.empty((R, 2))
    off = np.empty(R)
    for r in range(R):
        z = SpectralField(g, stationary_batch(g, spec, 0.0, gen, 1)[0])
        zm = wick_square(z, spec, rule).zero_mode()
        diag[r] = zm[0, 0], zm[1, 1]
        off[r] = zm[0, 1]
    for col in range(2):
        se = diag[:, col].std(ddof=1) / math.sqrt(R)
        assert abs(diag[:, col].mean()) < 4.0 * se
    assert abs(off.mean()) < 4.0 * off.std(ddof=1) / math.sqrt(R)


def test_lambda_beta_bound_properties():
    spec = NoiseSpec(epsilon=0.3, delta=0.05, gamma=1.0)
    val, tail = lambda_beta_bound(spec, 0.125, cutoff=128)
    half, _ = lambda_beta_bound(
        NoiseSpec(epsilon=0.15, delta=0.05, gamma=1.0), 0.125, cutoff=128
    )
    assert half == pytest.approx(0.5 * val, rel=1e-14)
    # decreasing delta increases every weight
    looser, _ = lambda_beta_bound(
        NoiseSpec(epsilon=0.3, delta=0.01, gamma=1.0), 0.125, cutoff=128
    )
    assert looser > val
    with pytest.raises(ValueError):
        lambda_beta_bound(spec, 0.3)
    # eta = 1/4, gamma = 1, delta = eps: ratio to eps * delta^(-eta) bounded
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        s = NoiseSpec(epsilon=eps, delta=eps, gamma=1.0)
        v, _ = lambda_beta_bound(s, beta=1.0 / 8.0, cutoff=256)
        ratios.append(v / (eps * eps ** (-0.25)))
    assert max(ratios) / min(ratios) < 5.0


def test_lattice_power_sum_tail():
    val, tail = lattice_power_sum(-3.0, cutoff=128)
    val2, tail2 = lattice_power_sum(-3.0, cutoff=256)
    assert val < val2 < val + tail * 1.5
    assert tail2 < tail


def test_lp_log_moment_p2_closed_form():
    spec = NoiseSpec(epsilon=0.5, delta=0.1, gamma=1.0)
    rep = lp_log_moment_check(spec, 2.0, 4000, RngStream(11), cutoff=8)
    assert rep.closed_form == pytest.approx(
        l2_moment_exact(grid_for(8), spec), rel=1e-14
    )
    assert rep.estimate == pytest.approx(rep.closed_form, rel=0.05)
    assert rep.ratio == rep.estimate / rep.bound


def test_lp_log_moment_p2_sums_row_blocks_bit_for_bit(monkeypatch):
    # the samples the check averages, recorded at its np.mean call
    means = []
    mean = np.mean

    def recording_mean(a, *args, **kwargs):
        means.append(np.array(a, copy=True))
        return mean(a, *args, **kwargs)

    spec = NoiseSpec(epsilon=0.5, delta=0.1, gamma=1.0)
    # 4000 rows of 144 modes span 36 row blocks, the last one partial
    replicas, cutoff = 4000, 8
    monkeypatch.setattr(np, "mean", recording_mean)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lp_log_moment_check(spec, 2.0, replicas, RngStream(11), cutoff=cutoff)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    Z = stationary_batch(grid_for(cutoff), spec, 0.0, RngStream(11).generator(), replicas)
    samples = [m for m in means if m.shape == (replicas,)]
    assert len(samples) == 1
    # 2 (sum Re^2 + sum Im^2) per row; 2 sum |z|^2 through np.abs rounds |z|
    assert np.array_equal(samples[0], l2_powers_whole(Z))
    # one piece of the draw; a full-batch |Z|^2 adds Z.nbytes
    assert peak <= Z.nbytes + 2**20


def test_lp_log_moment_stacks_replicas_each_as_its_own_lp_norm(monkeypatch):
    means = []
    mean = np.mean

    def recording_mean(a, *args, **kwargs):
        means.append(np.array(a, copy=True))
        return mean(a, *args, **kwargs)

    spec = NoiseSpec(epsilon=0.5, delta=0.1, gamma=1.0)
    # stacks of stack_depth(18) = 25 replicas at cutoff 8, the last one partial
    replicas, cutoff, p = 60, 8, 3.0
    monkeypatch.setattr(np, "mean", recording_mean)
    lp_log_moment_check(spec, p, replicas, RngStream(11), cutoff=cutoff)
    monkeypatch.undo()
    g = grid_for(cutoff)
    Z = stationary_batch(g, spec, 0.0, RngStream(11).generator(), replicas)
    (samples,) = [m for m in means if m.shape == (replicas,)]
    norms = [lp_norm(SpectralField(g, z), p) for z in Z]
    assert np.array_equal(norms, [float(s) ** (1.0 / p) for s in samples])


def test_lp_log_moment_epsilon_scaling():
    # Gaussian scaling: the p-th moment scales like eps^(p/2)
    vals = []
    for i, eps in enumerate((0.4, 0.1)):
        spec = NoiseSpec(epsilon=eps, delta=0.1, gamma=1.0)
        rep = lp_log_moment_check(spec, 4.0, 400, RngStream(21).child(i), cutoff=6)
        vals.append(rep.estimate)
    assert vals[0] / vals[1] == pytest.approx((0.4 / 0.1) ** 2, rel=0.2)


def test_besov_moment_check_scaling_and_validation():
    sched = PowerSchedule(1.0)
    reps = []
    for i, eps in enumerate((0.2, 0.05)):
        spec = NoiseSpec.at_epsilon(eps, sched)
        reps.append(
            besov_moment_check(
                spec, -0.75, -0.5, 4.0, 2.0, horizon=0.1, dt=0.02,
                replicas=150, rng=RngStream(31).child(i), cutoff=6,
            )
        )
    # kappa = 2: estimate scales like eps within Monte Carlo error
    assert reps[0].estimate / reps[1].estimate == pytest.approx(4.0, rel=0.35)
    assert reps[0].ratio < 10.0
    with pytest.raises(ValueError):
        besov_moment_check(
            NoiseSpec(0.1, 0.1), -0.5, -0.75, 4.0, 2.0, 0.1, 0.02, 10,
            RngStream(0), 6,
        )


def test_sampling_reproducibility():
    spec = NoiseSpec(epsilon=0.3, delta=0.1, gamma=1.0)
    g = grid_for(8)
    a = stationary_batch(g, spec, 0.0, RngStream(9, (1,)).generator(), 1)
    b = stationary_batch(g, spec, 0.0, RngStream(9, (1,)).generator(), 1)
    assert np.array_equal(a, b)


def test_ou_transition_small_step_limits():
    from sns2d.noise import ou_transition

    spec = NoiseSpec(epsilon=0.4, delta=0.1, gamma=1.0)
    g = grid_for(6)
    decay, std = ou_transition(g, spec, 0.0, 1e-9)
    assert np.max(np.abs(decay - 1.0)) < 1e-6
    assert np.max(std) < 1e-4
    # the injected variance follows eps lam^2 dt in the small-step limit
    lam2 = 1.0 / (1.0 + spec.delta * g.ksq)
    assert np.allclose(std**2, spec.epsilon * lam2 * 1e-9, rtol=1e-6)


def test_lattice_power_sum_matches_direct_enumeration():
    val, tail = lattice_power_sum(-3.0, cutoff=20)
    direct = 0.0
    for a in range(-20, 21):
        for b in range(-20, 21):
            if (a, b) != (0, 0):
                direct += (a * a + b * b) ** -1.5
    assert val == pytest.approx(direct, rel=1e-13)
    assert tail > 0.0


def test_lattice_power_sum_with_weight_matches_direct():
    val, _ = lattice_power_sum(-1.5, delta=0.3, gamma=1.2, weight_power=2.0, cutoff=12)
    direct = 0.0
    for a in range(-12, 13):
        for b in range(-12, 13):
            if (a, b) != (0, 0):
                ksq = float(a * a + b * b)
                direct += ksq**-0.75 / (1.0 + 0.3 * ksq**1.2) ** 2
    assert val == pytest.approx(direct, rel=1e-13)


def test_besov_moment_check_refuses_a_bare_seed():
    # a bare seed used to re-seed one generator per replica: 20 equal replicas
    args = (NoiseSpec(0.1, 0.1), -0.75, -0.5, 4.0, 2.0, 0.1, 0.02, 20)
    with pytest.raises(TypeError, match="expected an RngStream"):
        besov_moment_check(*args, 5, 6)
    rep = besov_moment_check(*args, RngStream(5), 6)
    assert rep.stderr > 1e-3


def test_besov_moment_blocks_are_each_replica_marched_alone():
    spec = NoiseSpec(epsilon=0.1, delta=0.1, gamma=1.0)
    # 45 replicas at cutoff 6: a block of 41 and one of 4
    assert stack_depth(grid_for(6).physical_size(2)) == 41
    args = (spec, -0.3, -0.1, 4.0, 2.0, 0.06, 0.02, 45, RngStream(6).child(1), 6)
    assert besov_moment_check(*args) == besov_moment_check_per_replica(*args)


def test_a_besov_moment_check_loads_no_scipy_beyond_the_binding():
    # its bound is the truncated lattice sum: the tail's quadrature, which
    # it does not use, loaded about 350 scipy modules
    src = pathlib.Path(sns2d.__file__).parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from sns2d.montecarlo import besov_moment_check\n"
        "from sns2d.noise import NoiseSpec, RngStream\n"
        "rep = besov_moment_check(NoiseSpec(0.1, 0.1), -0.75, -0.5, 4.0, 2.0, 0.06, 0.02,\n"
        "                         4, RngStream(0), 6)\n"
        "assert rep.bound > 0.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert ast.literal_eval(out.stdout) == ["scipy.fft._pocketfft.pypocketfft"]


def test_the_lattice_sum_is_the_truncated_part_of_lattice_power_sum():
    for args in ((-3.0,), (-1.5, 0.3, 1.2, 2.0)):
        assert lattice_sum(*args, cutoff=40) == lattice_power_sum(*args, cutoff=40)[0]


def test_a_besov_moment_sweep_builds_its_bound_lattice_once(tmp_path, monkeypatch):
    from sns2d import noise
    from sns2d.experiments import ExperimentConfig, run

    builds = []

    class CountingNumpy:
        """numpy, counting the aranges that span the bound's 1025 x 1025 lattice."""

        def __getattr__(self, name):
            return getattr(np, name)

        def arange(self, *args, **kwargs):
            if args[:2] == (-512, 513):
                builds.append(args)
            return np.arange(*args, **kwargs)

    getattr(noise.lattice_sum, "cache_clear", lambda: None)()
    monkeypatch.setattr(noise, "np", CountingNumpy())
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1,
        "kind": "besov_moment",
        "numerics": {"cutoff": 4, "dt": 0.02, "t_final": 0.04},
        "noise": {"schedule": {"kind": "power", "exponent": 1.0}},
        "statistics": {"replicas": 2, "seed": 0},
        "params": {"epsilons": [0.1, 0.01, 0.001]},
    })
    run(cfg, str(tmp_path))
    assert len(builds) == 1


def _bits(z):
    return z.view(np.float64)


# an int shape, one row, rows of a block, a stack of blocks; 31 rows of 1000
# fill the 16-row pieces of the buffer once and then 15 rows; a row of 20000
# is longer than the buffer
DRAW_SHAPES = [7, (7,), (5, 544), (2, 3, 61), (31, 1000), (3, 20000)]


@pytest.mark.parametrize("shape", DRAW_SHAPES)
@pytest.mark.parametrize("std", ["none", "per_mode", "scalar"])
def test_unit_complex_normals_are_the_assembled_draw_bit_for_bit(shape, std):
    n = shape if isinstance(shape, int) else shape[-1]
    std = {"none": None, "per_mode": np.linspace(0.1, 3.0, n), "scalar": 0.37}[std]
    for seed in range(3):
        fused = unit_complex_normals(np.random.default_rng(seed), shape, std)
        assembled = unit_complex_normals_assembled(np.random.default_rng(seed), shape, std)
        assert fused.shape == assembled.shape
        assert np.array_equal(_bits(fused), _bits(assembled))
        into = np.full(assembled.shape, np.nan, dtype=np.complex128)
        assert unit_complex_normals(np.random.default_rng(seed), shape, std, out=into) is into
        assert np.array_equal(_bits(into), _bits(assembled))


def test_a_draw_into_out_needs_its_shape_in_c_order():
    gen = np.random.default_rng(0)
    for out in (np.empty((3, 5)), np.empty((3, 4), dtype=np.complex128),
                np.empty((3, 10), dtype=np.complex128)[:, ::2]):
        with pytest.raises(ValueError, match=r"C-ordered complex128 array of shape \(3, 5\)"):
            unit_complex_normals(gen, (3, 5), out=out)


def test_ou_steps_in_row_blocks_are_the_whole_step_bit_for_bit():
    spec = NoiseSpec(epsilon=0.3, delta=0.05, gamma=1.0)
    g = grid_for(16)
    # 37 rows: a piece of 30 rows and a short one of 7
    Z = stationary_batch(g, spec, 0.5, np.random.default_rng(1), 37)
    before = Z.copy()
    whole = ou_step_batch_whole(Z, g, spec, 0.5, 0.02, np.random.default_rng(2))
    # the L^2 powers of the steps, reduced as the step noise is drawn
    decay, std = ou_transition(g, spec, 0.5, 0.02)
    powers = drawn_l2_powers(np.random.default_rng(2), 37, std, decay, Z)
    assert np.array_equal(powers, l2_powers_whole(whole))
    assert np.array_equal(_bits(Z), _bits(before))
    # and of the stationary samples themselves
    powers = drawn_l2_powers(np.random.default_rng(1), 37, stationary_std(g, spec, 0.5))
    assert np.array_equal(powers, l2_powers_whole(Z))


# whole rows in one piece, in several pieces of rows, and rows longer than
# SAMPLES_PER_CALL in pieces of columns; an int shape is one row, and a
# stack of rows is flattened to its rows; 37 rows of 544 end in 7 rows
@pytest.mark.parametrize("shape", DRAW_SHAPES + [(37, 544)])
@pytest.mark.parametrize("std", ["none", "per_mode", "scalar"])
def test_the_parts_of_a_draw_are_its_halves_as_drawn(shape, std):
    dims = (shape,) if isinstance(shape, int) else shape
    rows, n = math.prod(dims[:-1]), dims[-1]
    std = {"none": None, "per_mode": np.linspace(0.1, 3.0, n), "scalar": 0.37}[std]
    whole = unit_complex_normals_assembled(np.random.default_rng(5), shape, std).reshape(rows, n)
    gen = np.random.default_rng(5)
    halves = np.zeros((2, rows, n))
    seen = np.zeros((2, rows, n), dtype=int)
    order = []
    for part, lo, c, piece in unit_complex_normals(gen, shape, std, parts=True):
        d, w = piece.shape
        assert piece.size <= SAMPLES_PER_CALL
        halves[part, lo : lo + d, c : c + w] = piece
        seen[part, lo : lo + d, c : c + w] += 1
        order.append((part, lo, c))
    assert np.all(seen == 1) and order == sorted(order)
    assert np.array_equal(_bits(halves[0]), _bits(whole.real))
    assert np.array_equal(_bits(halves[1]), _bits(whole.imag))
    after = np.random.default_rng(5)
    after.standard_normal((2, *dims))
    assert gen.bit_generator.state == after.bit_generator.state
    if std is None or np.ndim(std) == 0:
        return  # drawn_l2_powers takes one std per mode
    # a row in several pieces sums piece by piece, so only to roundoff
    powers = drawn_l2_powers(np.random.default_rng(5), rows, std)
    if n <= SAMPLES_PER_CALL:
        assert np.array_equal(powers, l2_powers_whole(whole))
    else:
        assert np.allclose(powers, l2_powers_whole(whole), rtol=1e-14, atol=0.0)


def test_a_draw_in_parts_takes_one_generator():
    with pytest.raises(TypeError, match="one generator"):
        unit_complex_normals([np.random.default_rng(0)], (1, 5), parts=True)
    assert list(unit_complex_normals(np.random.default_rng(0), (0, 5), parts=True)) == []


# one row block, 67 blocks of 30 rows, a row per block
@pytest.mark.parametrize("shape", [(7, 544), (2000, 544), (5, 20000)])
def test_mode_square_sums_are_the_whole_sum_bit_for_bit(shape):
    Z = unit_complex_normals(np.random.default_rng(3), shape, np.linspace(0.1, 3.0, shape[1]))
    assert np.array_equal(mode_square_sums(Z), np.sum(np.abs(Z) ** 2, axis=0))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_lp_moment_check_in_row_blocks_is_the_whole_check(p):
    spec = NoiseSpec(epsilon=0.3, delta=0.01, gamma=1.0)
    # 37 replicas at cutoff 16: row blocks of 30 and 7
    report = lp_log_moment_check(spec, p, 37, RngStream(3), 16)
    assert report == lp_log_moment_check_whole(spec, p, 37, RngStream(3), 16)


def _lp_moment_member_peak(p, replicas):
    """Bytes an lp_moment member of the given replicas at cutoff 16
    allocates at its peak, above what it started with."""
    spec = NoiseSpec(epsilon=0.3, delta=0.01, gamma=1.0)
    lp_log_moment_check(spec, p, 40, RngStream(0), 16)  # plans and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lp_log_moment_check(spec, p, replicas, RngStream(0), 16)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# p = 2 reduces its samples as they are drawn, below
@pytest.mark.parametrize("p", [3.0])
def test_an_lp_moment_member_holds_one_row_batch(p):
    replicas = 2000
    peak = _lp_moment_member_peak(p, replicas)
    # a row batch of SAMPLES_PER_CALL complex entries is 16 * SAMPLES_PER_CALL
    # bytes; the syntheses of lp_powers and their |u|^p take a few more such
    # batches, and the samples 8 bytes per replica.  A draw in row blocks
    # that held the real half of the samples, 8 * replicas * 544 bytes
    # (8.7 MB), peaked at 9.6 MB
    batch = 16 * SAMPLES_PER_CALL
    assert peak <= 4 * batch + 16 * replicas


def test_an_lp_moment_member_at_p2_holds_no_half_of_its_draw():
    replicas = 2000
    peak = _lp_moment_member_peak(2.0, replicas)
    # the draw's piece of SAMPLES_PER_CALL reals and at most 8 arrays of
    # the samples' size: the samples, their row sums and the temporaries of
    # their mean and deviation.  Holding the real half alone would take
    # 8 * replicas * 544 bytes, 8.7 MB
    assert peak <= 8 * SAMPLES_PER_CALL + 8 * 8 * replicas


def test_unit_complex_normals_leave_the_generator_where_the_full_draw_does():
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    unit_complex_normals(a, (31, 1000))
    b.standard_normal((2, 31, 1000))
    assert a.bit_generator.state == b.bit_generator.state


# 4 whole streams in one buffer fill; 40 in fills of 15, 15 and 10; streams
# too long for the buffer, drawn in pieces
@pytest.mark.parametrize("shape", [(4, 3, 61), (40, 1, 544), (3, 20, 544)])
def test_one_generator_per_row_draws_each_row_alone(shape):
    rows, n = shape[0], shape[-1]
    std = np.linspace(0.5, 2.0, n)
    gens = [RngStream(9).child(r).generator() for r in range(rows)]
    block = unit_complex_normals(gens, shape, std)
    alone = np.stack([
        unit_complex_normals_assembled(RngStream(9).child(r).generator(), shape[1:], std)
        for r in range(rows)
    ])
    assert np.array_equal(_bits(block), _bits(alone))
    with pytest.raises(ValueError, match=f"{rows - 1} generators for {rows} rows"):
        unit_complex_normals(gens[1:], shape)


def test_draw_wrappers_are_the_assembled_draw_bit_for_bit():
    spec = NoiseSpec(epsilon=0.3, delta=0.05, gamma=1.0)
    g = grid_for(16)
    alpha, dt = 0.5, 0.02
    std = stationary_std(g, spec, alpha)
    Z = stationary_batch(g, spec, alpha, np.random.default_rng(1), 37)
    ref = std[None, :] * unit_complex_normals_assembled(np.random.default_rng(1), (37, g.n_modes))
    assert np.array_equal(_bits(Z), _bits(ref))

    decay, step_std = ou_transition(g, spec, alpha, dt)
    Zs = ou_step_batch_whole(Z, g, spec, alpha, dt, np.random.default_rng(2))
    noise = step_std[None, :] * unit_complex_normals_assembled(np.random.default_rng(2), Z.shape)
    assert np.array_equal(_bits(Zs), _bits(decay[None, :] * Z + noise))

    u = SpectralField.random(16, np.random.default_rng(3), amplitude=0.8, decay=0.6)
    c = unit_complex_normals_assembled(np.random.default_rng(3), g.n_modes)
    c *= 0.8 * g.ksq ** (-0.6 / 2.0)
    assert np.array_equal(_bits(u.coeffs), _bits(c))


def test_a_draw_peaks_at_its_output_and_one_buffer():
    gen = np.random.default_rng(0)
    std = np.ones(544)
    unit_complex_normals(gen, (10, 544), std)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z = unit_complex_normals(gen, (10000, 544), std)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the kernel's buffer, numpy's iteration buffer for the per-mode product
    # and 16 KiB of Python objects; the complex assembly peaked at 2x output
    assert peak <= z.nbytes + 8 * SAMPLES_PER_CALL + 8 * np.getbufsize() + 2**14


KERNEL = "unit_complex_normals"
_LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_kernel_call(node):
    return isinstance(node, ast.Call) and KERNEL in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _draw_offenses(tree):
    """Draws made outside the one kernel: a ``standard_normal`` call outside
    ``unit_complex_normals``, a kernel result scaled afterwards (std belongs
    in the call) and a kernel call per generator of a loop (the kernel takes
    one generator per row)."""
    kernel_nodes = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == KERNEL
        for node in ast.walk(func)
    }
    offenses = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "standard_normal"
            and id(node) not in kernel_nodes
        ):
            offenses.append((node.lineno, "standard_normal"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and (
            _is_kernel_call(node.left) or _is_kernel_call(node.right)
        ):
            offenses.append((node.lineno, "scaled after the draw"))
        elif isinstance(node, _LOOPS):
            targets = [node.target] if isinstance(node, ast.For) else [
                c.target for c in node.generators
            ]
            bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            offenses += [
                (call.lineno, "a call per generator")
                for call in ast.walk(node)
                if _is_kernel_call(call) and call.args
                and getattr(call.args[0], "id", None) in bound
            ]
    return offenses


def test_normals_are_drawn_only_by_the_kernel():
    src = pathlib.Path(sns2d.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        offenders += [
            f"{path.name}:{line} {what}"
            for line, what in _draw_offenses(ast.parse(path.read_text()))
        ]
    assert offenders == []
    kernels = [
        path.name
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == KERNEL
    ]
    assert kernels == ["noise.py"]


def test_draw_guard_sees_each_old_draw_site():
    old = (
        "def unit_complex_normals(gen, shape):\n"
        "    xi = gen.standard_normal((2,) + tuple(shape))\n"
        "    return (xi[0] + 1j * xi[1]) / np.sqrt(2.0)\n"
        "def random(cls, cutoff, rng, amplitude=1.0, decay=0.0):\n"
        "    xi = rng.standard_normal((2, g.n_modes))\n"
        "    c = (xi[0] + 1j * xi[1]) / np.sqrt(2.0)\n"
        "def stationary_batch(grid, spec, alpha, gen, replicas):\n"
        "    return std[None, :] * unit_complex_normals(gen, (replicas, grid.n_modes))\n"
        "def march(grid, u0, n_steps, dt, noise_std, gen):\n"
        "    for step in range(n_steps):\n"
        "        for r, g in enumerate(gens):\n"
        "            xi[r] = unit_complex_normals(g, n_modes)\n"
        "def starts(gens):\n"
        "    return [noise.unit_complex_normals(gen, n) for gen in gens]\n"
    )
    assert [what for _, what in _draw_offenses(ast.parse(old))] == [
        "standard_normal", "scaled after the draw", "a call per generator",
        "a call per generator",
    ]
