import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sns2d import (
    BesovParams,
    SpectralField,
    besov_norm,
    leray_project,
    lp_norm,
    sobolev_norm,
)
from sns2d.grid import SAMPLES_PER_CALL, TransformPlan, grid_for, transform_plan
from sns2d.spectral import (
    _block_groups,
    block_count,
    block_grid_size,
    block_of,
    block_powers,
    lp_powers,
)

from _oracles import (
    besov_norm_per_block,
    block_powers_masked_stacks,
    block_powers_real_grids,
    dyadic_block,
    fractional_power,
    h_inner,
    heat_semigroup,
    lp_norm_quadrature,
    power_integrals_real_grids,
    stokes_apply,
    velocity_coeffs_direct,
)

TWO_PI = 2.0 * np.pi


def _field(seed, cutoff=8, decay=0.5):
    return SpectralField.random(cutoff, np.random.default_rng(seed), decay=decay)


# ---------------------------------------------------------------- projection


def test_projection_fixes_divergence_free_input(random_field):
    u = random_field(cutoff=6)
    again = leray_project(velocity_coeffs_direct(u), 6)
    assert np.allclose(again.coeffs, u.coeffs, rtol=1e-13, atol=1e-15)


def test_projection_annihilates_gradients(rng):
    n = 6
    S = 2 * n + 1
    ghat = np.zeros((S, S), dtype=np.complex128)
    half = rng.standard_normal((S, S)) + 1j * rng.standard_normal((S, S))
    ghat += half + np.conj(half[::-1, ::-1])
    freqs = np.arange(-n, n + 1)
    vhat = np.stack([1j * freqs[:, None] * ghat, 1j * freqs[None, :] * ghat])
    out = leray_project(vhat, n)
    assert np.max(np.abs(out.coeffs)) < 1e-13 * np.max(np.abs(ghat))


def test_projection_output_orthogonal_per_mode(rng):
    n = 5
    S = 2 * n + 1
    vhat = rng.standard_normal((2, S, S)) + 1j * rng.standard_normal((2, S, S))
    vhat = vhat + np.conj(vhat[:, ::-1, ::-1])
    out = leray_project(vhat, n)
    recon = velocity_coeffs_direct(out)
    freqs = np.arange(-n, n + 1)
    dot = freqs[:, None] * recon[0] + freqs[None, :] * recon[1]
    assert np.max(np.abs(dot)) < 1e-12 * np.max(np.abs(recon))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_projection_idempotent(seed):
    n = 5
    rng = np.random.default_rng(seed)
    vhat = rng.standard_normal((2, 2 * n + 1, 2 * n + 1)) + 1j * rng.standard_normal(
        (2, 2 * n + 1, 2 * n + 1)
    )
    vhat = vhat + np.conj(vhat[:, ::-1, ::-1])
    once = leray_project(vhat, n)
    twice = leray_project(velocity_coeffs_direct(once), n)
    scale = max(np.max(np.abs(once.coeffs)), 1e-30)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-13 * scale


def test_projection_shape_mismatch():
    with pytest.raises(ValueError):
        leray_project(np.zeros((2, 5, 5), dtype=complex), 3)


# ------------------------------------------------------------- Stokes, heat


def test_stokes_eigenvalues():
    u = SpectralField.from_modes(4, {(1, 0): 1.0})
    assert np.allclose(stokes_apply(u).coeffs, -1.0 * u.coeffs)
    v = SpectralField.from_modes(4, {(1, 1): 1.0 - 2.0j})
    assert np.allclose(stokes_apply(v).coeffs, -2.0 * v.coeffs)


def test_stokes_linearity(random_field):
    u, v = random_field(), random_field()
    lhs = stokes_apply(2.0 * u - 3.0 * v)
    rhs = 2.0 * stokes_apply(u) - 3.0 * stokes_apply(v)
    assert np.allclose(lhs.coeffs, rhs.coeffs)


def test_heat_semigroup_values(random_field):
    u = SpectralField.from_modes(4, {(1, 0): 1.0})
    assert np.allclose(heat_semigroup(u, 1.0).coeffs, np.exp(-1.0) * u.coeffs)
    v = random_field()
    assert np.array_equal(heat_semigroup(v, 0.0).coeffs, v.coeffs)
    with pytest.raises(ValueError):
        heat_semigroup(v, -0.1)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.integers(0, 1000))
def test_heat_semigroup_additivity(t, s, seed):
    # relative error of exp(a)exp(b) vs exp(a+b) grows like eps * |a+b|
    u = _field(seed, cutoff=5)
    once = heat_semigroup(heat_semigroup(u, t), s)
    joint = heat_semigroup(u, t + s)
    assert np.allclose(once.coeffs, joint.coeffs, rtol=1e-12, atol=0.0)


def test_heat_semigroup_contraction(random_field):
    u = random_field()
    t = 0.37
    for s in (-1.0, 0.0, 1.5):
        assert sobolev_norm(heat_semigroup(u, t), s) <= np.exp(-t) * sobolev_norm(u, s)


def test_fractional_power_examples(random_field):
    u = SpectralField.from_modes(4, {(2, 0): 1.0})
    assert np.allclose(fractional_power(u, 0.5).coeffs, 2.0 * u.coeffs)
    v = random_field()
    assert np.array_equal(fractional_power(v, 0.0).coeffs, v.coeffs)
    roundtrip = fractional_power(fractional_power(v, 0.7), -0.7)
    assert np.allclose(roundtrip.coeffs, v.coeffs, rtol=1e-13)


# -------------------------------------------------------------------- norms


def test_sobolev_norm_closed_forms():
    pair = SpectralField.from_modes(8, {(1, 0): 1.0})
    for s in (-1.0, 0.0, 0.5, 2.0):
        assert sobolev_norm(pair, s) == pytest.approx(np.sqrt(2.0), rel=1e-14)
    m21 = SpectralField.from_modes(8, {(2, 1): 1.0})
    ratio = sobolev_norm(m21, 1.0) / sobolev_norm(m21, 0.0)
    assert ratio == pytest.approx(np.sqrt(5.0), rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-1.5, 1.5), st.floats(0.0, 1.5))
def test_sobolev_norm_monotone_in_exponent(seed, s1, gap):
    u = _field(seed, cutoff=5)
    assert sobolev_norm(u, s1) <= sobolev_norm(u, s1 + gap) * (1 + 1e-12)


def test_parseval_l2_equals_h0(random_field):
    u = random_field(cutoff=8, decay=0.0)
    assert lp_norm(u, 2, grid_factor=2) == pytest.approx(
        sobolev_norm(u, 0.0), rel=1e-12
    )


def test_basis_function_has_constant_speed():
    # |e_k(x)| = 1/(2 pi) pointwise, so its L^p norm is (2 pi)^(2/p - 1)
    n = 6
    for k in ((1, 0), (2, 1)):
        size = 24
        x = TWO_PI * np.arange(size) / size
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        kperp = np.array([k[1], -k[0]]) / np.hypot(*k)
        phase = np.exp(1j * (k[0] * X1 + k[1] * X2))
        vec = (1j / TWO_PI) * kperp[:, None, None] * phase
        speed = np.sqrt(np.abs(vec[0]) ** 2 + np.abs(vec[1]) ** 2)
        assert np.max(np.abs(speed - 1.0 / TWO_PI)) < 1e-14
        for p in (1.0, 2.0, 4.0):
            quad = (np.sum(speed**p) * (TWO_PI / size) ** 2) ** (1.0 / p)
            assert quad == pytest.approx(TWO_PI ** (2.0 / p - 1.0), rel=1e-12)


def test_lp_norm_single_pair_mode_closed_form():
    # the real field from c=1 at k is |sin(k.x)|/pi; L4 norm (3/(2 pi^2))^(1/4)
    u = SpectralField.from_modes(8, {(1, 0): 1.0})
    assert lp_norm(u, 4) == pytest.approx((3.0 / (2.0 * np.pi**2)) ** 0.25, rel=1e-12)
    assert lp_norm(u, 2) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_lp_norm_against_dense_quadrature(random_field):
    # p = 4 makes |u|^4 a trig polynomial: exact once the grid exceeds 4N
    u = random_field(cutoff=6, decay=1.0)
    assert lp_norm(u, 4, grid_factor=5) == pytest.approx(
        lp_norm_quadrature(u, 4), rel=1e-12
    )
    assert lp_norm(u, 3, grid_factor=6) == pytest.approx(
        lp_norm_quadrature(u, 3), rel=1e-4
    )


def test_lp_norm_scaling_and_validation(random_field):
    u = random_field()
    assert lp_norm(3.0 * u, 4) == pytest.approx(3.0 * lp_norm(u, 4), rel=1e-13)
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


# ------------------------------------------------------------ dyadic blocks


def test_block_assignment_convention():
    assert block_of(1.0) == 0  # |k| = 1 extends the dyadic ladder downward
    assert block_of(2.0) == 1
    assert block_of(4.0) == 1
    assert block_of(9.0) == 2  # 2 < 3 <= 4
    assert block_of(16.0) == 2
    assert block_of(17.0) == 3


def test_single_mode_blocks():
    e10 = SpectralField.from_modes(8, {(1, 0): 1.0})
    assert np.array_equal(dyadic_block(e10, 0).coeffs, e10.coeffs)
    assert np.max(np.abs(dyadic_block(e10, 1).coeffs)) == 0.0
    e30 = SpectralField.from_modes(8, {(3, 0): 1.0})
    assert np.array_equal(dyadic_block(e30, 2).coeffs, e30.coeffs)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_blocks_partition_the_field(seed):
    u = _field(seed, cutoff=8, decay=0.0)
    total = np.zeros_like(u.coeffs)
    for q in range(block_count(8)):
        total = total + dyadic_block(u, q).coeffs
    assert np.array_equal(total, u.coeffs)


def test_blocks_are_disjoint(random_field):
    u = random_field(cutoff=8)
    for q in range(block_count(8)):
        bq = dyadic_block(u, q)
        for r in range(q + 1, block_count(8)):
            overlap = dyadic_block(bq, r)
            assert np.max(np.abs(overlap.coeffs)) == 0.0


# -------------------------------------------------------------- Besov norms


def test_besov_single_block_reduction():
    u = SpectralField.from_modes(8, {(3, 0): 1.0})
    sigma, p = -0.4, 4.0
    assert besov_norm(u, sigma, p) == pytest.approx(
        2.0 ** (2 * sigma) * lp_norm(u, p), rel=1e-13
    )


def test_besov_sigma0_p2_matches_h_norm(random_field):
    u = random_field(cutoff=8, decay=0.0)
    assert besov_norm(u, 0.0, 2.0) == pytest.approx(sobolev_norm(u, 0.0), rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_besov_triangle_inequality(seed_a, seed_b):
    u, v = _field(seed_a, 6), _field(seed_b, 6)
    sigma, p = -0.3, 4.0
    lhs = besov_norm(u + v, sigma, p)
    assert lhs <= besov_norm(u, sigma, p) + besov_norm(v, sigma, p) + 1e-12


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
def test_besov_matches_the_per_block_sum(cutoff):
    # even p moves the exact blocks to smaller grids; the reference
    # integrates every block on the shared grid
    u = _field(cutoff, cutoff, decay=1.0)
    for p in (2.0, 2.5, 3.0, 4.0, 6.0):
        for sigma in (-0.25, 0.5):
            ref = besov_norm_per_block(u, sigma, p)
            assert abs(besov_norm(u, sigma, p) - ref) <= 1e-13 * ref


def test_besov_of_zero_and_of_nan():
    assert besov_norm(SpectralField.zero(16), -0.25, 4.0) == 0.0
    c = _field(3, 16).coeffs.copy()
    c[5] = np.nan
    assert np.isnan(besov_norm(SpectralField.zero(16).with_coeffs(c), -0.25, 4.0))


def _recorded_besov_calls(monkeypatch, cutoff, p, n_states):
    """(grid size, grids, blocks) of each synthesis call that block_powers
    makes for a path of n_states states."""
    calls = []
    synthesize_packed = TransformPlan.synthesize_packed

    def counted(plan, coeffs, layout, out=None):
        states = coeffs.size // coeffs.shape[-1]
        calls.append((plan.size, states * layout.axes[0], layout.axes[0]))
        return synthesize_packed(plan, coeffs, layout, out)

    monkeypatch.setattr(TransformPlan, "synthesize_packed", counted)
    path = np.stack([_field(s, cutoff).coeffs for s in range(n_states)])
    block_powers(grid_for(cutoff), path, p)
    monkeypatch.undo()
    return calls


def test_besov_synthesis_calls_are_bounded(monkeypatch):
    for cutoff, p in itertools.product((8, 16, 32, 64), (3.0, 4.0)):
        calls = _recorded_besov_calls(monkeypatch, cutoff, p, 51)
        for size, grids, _ in calls:
            # one block of one state may outgrow the budget; a stack never does
            assert grids == 1 or 2 * size * size * grids <= SAMPLES_PER_CALL
        # every block of every state is synthesized once, on its own grid
        sizes = [block_grid_size(cutoff, q, p) for q in range(block_count(cutoff))]
        per_size = {}
        for size, grids, _ in calls:
            per_size[size] = per_size.get(size, 0) + grids
        assert per_size == {s: 51 * sizes.count(s) for s in set(sizes)}


def test_even_p_exact_blocks_land_on_their_small_grids(monkeypatch):
    # K_q = min(2^q, N); a block with 4 K_q below the shared size moves to
    # next_fast_len(4 K_q + 1)
    assert [block_grid_size(16, q, 4.0) for q in range(6)] == [5, 9, 18, 33, 33, 33]
    assert [block_grid_size(32, q, 4.0) for q in range(7)] == [5, 9, 18, 33, 66, 66, 66]
    assert [block_grid_size(16, q, 6.0) for q in range(6)] == [7, 14, 25, 33, 33, 33]
    assert [block_grid_size(16, q, 2.0) for q in range(6)] == [3, 5, 9, 18, 33, 33]
    # N = 16, p = 4: the three exact low blocks stack many states per call,
    # the three blocks on the shared 33 x 33 grid two states per call
    calls = _recorded_besov_calls(monkeypatch, 16, 4.0, 51)
    assert sorted({(size, blocks) for size, _, blocks in calls}) == [
        (5, 1), (9, 1), (18, 1), (33, 3)
    ]
    assert max(grids for size, grids, _ in calls if size == 18) == 25
    assert max(grids for size, grids, _ in calls if size == 33) == 6


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 5.0])
def test_odd_or_fractional_p_keeps_every_block_on_the_shared_grid(p):
    for cutoff in (4, 8, 16, 32, 64):
        shared = grid_for(cutoff).physical_size(2)
        (group,) = _block_groups(cutoff, 2, p)
        assert group.plan.size == shared and group.plan.kmax == cutoff
        assert group.stacks[0][0].start == 0
        assert group.stacks[-1][0].stop == block_count(cutoff)


@pytest.mark.parametrize("cutoff", [16, 32])
def test_even_p_blocks_on_small_grids_are_exact(cutoff):
    # the small-grid quadrature of an exact block equals a dense one
    u = _field(1, cutoff, decay=1.0)
    for p in (4.0, 6.0):
        powers = block_powers(u.grid, u.coeffs, p)
        for q in range(block_count(cutoff)):
            if block_grid_size(cutoff, q, p) < u.grid.physical_size(2):
                dense = lp_norm(dyadic_block(u, q), p, grid_factor=8) ** p
                assert abs(powers[q] - dense) <= 1e-13 * dense


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
def test_stacked_block_powers_rows_are_each_state_alone(cutoff):
    # 11 states: stacks of 2, 7, 25 ... states leave a short last call
    path = np.stack([_field(s, cutoff).coeffs for s in range(11)])
    for p in (2.5, 3.0, 4.0):
        stacked = block_powers(grid_for(cutoff), path, p)
        assert stacked.shape == (11, block_count(cutoff))
        for i, row in enumerate(path):
            assert np.array_equal(stacked[i], block_powers(grid_for(cutoff), row, p))
        cube = block_powers(grid_for(cutoff), path[:10].reshape(2, 5, -1), p)
        assert np.array_equal(cube.reshape(10, -1), stacked[:10])


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
def test_block_powers_are_the_masked_stacks_bit_for_bit(cutoff):
    # each block's own modes in reused grids give the bits of the symbol
    # stacks masked to each block; 13 states leave a short last call
    path = np.stack([_field(s, cutoff).coeffs for s in range(13)])
    path[4] = 0.0
    path[9] = np.nan
    for p in (2.5, 3.0, 4.0, 6.0):
        got = block_powers(grid_for(cutoff), path, p)
        want = block_powers_masked_stacks(grid_for(cutoff), path, p)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(got[4] == 0.0) and np.all(np.isnan(got[9]))
        assert np.all(np.isfinite(np.delete(got, 9, axis=0)))


def test_block_powers_of_a_path_hold_one_call_of_grids():
    # N = 16, p = 4: the largest call is 25 states of block 2 on its 18 x 18
    # grid, 8,100 cells of one complex and one real grid; one call's values
    # and temporaries take well under 128 KiB.  An array of every state's
    # values, (51, 544) complex, alone would take the path's 443,904 bytes
    path = np.stack([_field(s, 16).coeffs for s in range(51)])
    block_powers(grid_for(16), path, 4.0)  # the plans' cached grids
    tracemalloc.start()
    try:
        block_powers(grid_for(16), path, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 24 * 25 * 18 * 18 + 128 * 1024
    assert peak <= bound < path.nbytes


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
def test_packed_quadrature_matches_the_real_grid_pair(cutoff):
    grid = grid_for(cutoff)
    plan = transform_plan(cutoff, cutoff, grid.physical_size(2))
    u = _field(cutoff + 1, cutoff, decay=1.0)
    for p in (2.5, 3.0, 4.0, 6.0):
        got, want = block_powers(grid, u.coeffs, p), block_powers_real_grids(grid, u.coeffs, p)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        want = float(power_integrals_real_grids(plan, u.coeffs, p)) ** (1.0 / p)
        assert abs(lp_norm(u, p) - want) <= 1e-13 * want


def test_quadrature_synthesizes_no_real_grids(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("real-grid synthesis")

    monkeypatch.setattr(TransformPlan, "synthesize", refused)
    u = _field(4, 16)
    for p in (3.0, 4.0):
        assert block_powers(u.grid, u.coeffs, p).shape == (block_count(16),)
        assert besov_norm(u, -0.25, p) > 0
        assert lp_norm(u, p) > 0


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
def test_stacked_lp_powers_rows_are_each_lp_norm(cutoff):
    # 30 states: stacks of 25 and 7 states leave a short last call
    path = np.stack([_field(s, cutoff).coeffs for s in range(30)])
    for p in (2.5, 3.0, 4.0):
        stacked = lp_powers(grid_for(cutoff), path, p)
        assert stacked.shape == (30,)
        alone = [lp_powers(grid_for(cutoff), row, p) for row in path]
        assert np.array_equal(stacked, alone)
        norms = [lp_norm(SpectralField(grid_for(cutoff), row), p) for row in path]
        assert np.array_equal(norms, [float(s) ** (1.0 / p) for s in stacked])


def test_besov_params_validation():
    BesovParams(sigma=-0.25, p=4.0, alpha=0.3, beta=3.0).validate()
    with pytest.raises(ValueError, match="sigma > max"):
        BesovParams(sigma=-0.6, p=4.0, alpha=0.3, beta=3.0).validate()
    with pytest.raises(ValueError, match="2/p > alpha > -sigma"):
        BesovParams(sigma=-0.25, p=4.0, alpha=0.6, beta=3.0).validate()
    with pytest.raises(ValueError, match="alpha/2 - 1/beta"):
        BesovParams(sigma=-0.25, p=4.0, alpha=0.3, beta=16.0).validate()
    with pytest.raises(ValueError, match="p must be >= 2"):
        BesovParams(sigma=-0.25, p=1.5, alpha=0.3, beta=3.0).validate()
    assert BesovParams(-0.25, 4.0, 0.3, 3.0).min_initial_regularity() == pytest.approx(
        0.25
    )


def test_h_inner_is_real_symmetric(random_field):
    u, v = random_field(), random_field()
    assert h_inner(u, v) == pytest.approx(h_inner(v, u), rel=1e-14)
    assert h_inner(u, u) == pytest.approx(sobolev_norm(u, 0.0) ** 2, rel=1e-13)
