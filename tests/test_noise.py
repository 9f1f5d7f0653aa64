import ast
import math
import pathlib
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
    covariance_weight,
    lambda_beta_bound,
    lp_norm,
    ou_step,
    renorm_constant,
    wick_square,
)
from sns2d.grid import grid_for
from sns2d.noise import (
    RenormTailError,
    besov_moment_check,
    l2_moment_exact,
    lattice_power_sum,
    lp_log_moment_check,
    mode_variances,
    l2_powers,
    ou_step_batch,
    ou_step_blocks,
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
    spec0 = NoiseSpec(epsilon=1.0, delta=0.0, gamma=1.0)
    for k in ((1, 0), (3, 4)):
        assert covariance_weight(k, spec0) == 1.0
    spec = NoiseSpec(epsilon=1.0, delta=1.0, gamma=1.0)
    assert covariance_weight((1, 0), spec) == pytest.approx(1.0 / math.sqrt(2.0))
    vals = [covariance_weight((k, 0), spec) for k in range(1, 6)]
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
    samples = ou_step_batch(rest, g, spec, 0.0, dt, RngStream(7).generator())
    var_exact = ou_transition(g, spec, 0.0, dt)[1] ** 2
    mean = samples.mean(axis=0)
    # centered: 4 sigma of the mean of either part is 4 sqrt(var/2/R)
    bound = 4.0 * np.sqrt(var_exact / 2.0 / R)
    assert np.all(np.abs(mean.real) < bound)
    assert np.all(np.abs(mean.imag) < bound)
    var = np.mean(np.abs(samples) ** 2, axis=0)
    assert np.max(np.abs(var - var_exact) / var_exact) < 0.05
    # independent streams decorrelate
    other = ou_step_batch(rest, g, spec, 0.0, dt, RngStream(8).generator())[:, 0]
    corr = np.mean(samples[:, 0] * np.conj(other))
    assert abs(corr) < 4.0 * var_exact[0] / math.sqrt(R)
    with pytest.raises(ValueError):
        ou_step_batch(rest, g, spec, 0.0, 0.0, RngStream(7).generator())


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
    Zs = ou_step_batch(Z, g, spec, 0.0, 0.04, s.child(1).generator())
    fresh = stationary_batch(g, spec, 0.0, s.child(2).generator(), R)
    energy = lambda W: 2.0 * np.sum(np.abs(W) ** 2, axis=1)
    assert ks_2samp(energy(Zs), energy(fresh)).pvalue > 0.01
    emp = np.mean(np.abs(Zs) ** 2, axis=0)
    exact = mode_variances(g, spec, 0.0)
    assert np.max(np.abs(emp - exact) / exact) < 0.2


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
    assert np.array_equal(samples[0], 2.0 * np.sum(np.abs(Z) ** 2, axis=1))
    # Z, the draw's buffers and the row blocks; a full-batch |Z|^2 adds Z.nbytes
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


def _blocked(gen, shape, std=None):
    """The blocks of a blocked draw, copied, and their first rows."""
    pairs = [(lo, block.copy()) for lo, block in unit_complex_normals(gen, shape, std, blocks=True)]
    return [lo for lo, _ in pairs], np.concatenate([block for _, block in pairs])


@pytest.mark.parametrize("shape", DRAW_SHAPES + [(37, 544)])
@pytest.mark.parametrize("std", ["none", "per_mode"])
def test_blocked_draws_are_the_assembled_draw_in_row_blocks(shape, std):
    n = shape if isinstance(shape, int) else shape[-1]
    std = {"none": None, "per_mode": np.linspace(0.1, 3.0, n)}[std]
    gen = np.random.default_rng(5)
    starts, blocks = _blocked(gen, shape, std)
    whole = unit_complex_normals_assembled(np.random.default_rng(5), shape, std)
    assert np.array_equal(_bits(blocks), _bits(whole.reshape(-1, n)))
    # blocks of whole rows, of SAMPLES_PER_CALL complex entries at most; a
    # row longer than that is a block alone; 37 rows of 544 end in 7 rows
    rows = max(1, min(len(blocks), SAMPLES_PER_CALL // n))
    assert starts == list(range(0, len(blocks), rows))
    after = np.random.default_rng(5)
    after.standard_normal((2, *np.shape(whole)))
    assert gen.bit_generator.state == after.bit_generator.state


def test_a_blocked_draw_takes_one_generator():
    with pytest.raises(TypeError, match="one generator"):
        unit_complex_normals([np.random.default_rng(0)], (1, 5), blocks=True)
    assert list(unit_complex_normals(np.random.default_rng(0), (0, 5), blocks=True)) == []


def test_ou_steps_in_row_blocks_are_the_whole_step_bit_for_bit():
    spec = NoiseSpec(epsilon=0.3, delta=0.05, gamma=1.0)
    g = grid_for(16)
    # 37 rows: one block of 30 and a short one of 7
    Z = stationary_batch(g, spec, 0.5, np.random.default_rng(1), 37)
    before = Z.copy()
    whole = ou_step_batch_whole(Z, g, spec, 0.5, 0.02, np.random.default_rng(2))
    batch = ou_step_batch(Z, g, spec, 0.5, 0.02, np.random.default_rng(2))
    blocks = np.concatenate([
        block.copy() for _, block in ou_step_blocks(Z, g, spec, 0.5, 0.02, np.random.default_rng(2))
    ])
    assert np.array_equal(_bits(batch), _bits(whole))
    assert np.array_equal(_bits(blocks), _bits(whole))
    assert np.array_equal(_bits(Z), _bits(before))
    assert np.array_equal(l2_powers(Z), 2.0 * np.sum(np.abs(Z) ** 2, axis=1))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_lp_moment_check_in_row_blocks_is_the_whole_check(p):
    spec = NoiseSpec(epsilon=0.3, delta=0.01, gamma=1.0)
    # 37 replicas at cutoff 16: row blocks of 30 and 7
    report = lp_log_moment_check(spec, p, 37, RngStream(3), 16)
    assert report == lp_log_moment_check_whole(spec, p, 37, RngStream(3), 16)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_an_lp_moment_member_holds_the_real_half_and_one_block(p):
    spec = NoiseSpec(epsilon=0.3, delta=0.01, gamma=1.0)
    replicas, n = 2000, grid_for(16).n_modes
    lp_log_moment_check(spec, p, 40, RngStream(0), 16)  # plans and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lp_log_moment_check(spec, p, replicas, RngStream(0), 16)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    real_half = 8 * replicas * n
    # one complex block of SAMPLES_PER_CALL entries is 16 * SAMPLES_PER_CALL
    # bytes; the draw buffer, the block's reductions and the samples take a
    # few more such blocks.  All of the samples at once held 2 * real_half
    block = 16 * SAMPLES_PER_CALL
    assert peak <= real_half + 4 * block + 16 * replicas


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
    Zs = ou_step_batch(Z, g, spec, alpha, dt, np.random.default_rng(2))
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
