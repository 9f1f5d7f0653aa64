import re

import numpy as np
import pytest

from sns2d import (
    DealiasRule,
    SpectralField,
    sobolev_norm,
    tensor_product,
)
from sns2d.dynamics import IntegratorConfig
from sns2d.grid import grid_for, transform_plan
from sns2d.nonlinear import (
    b_bilinear_core,
    b_core,
    b_linearized_adjoint_core,
    padded_size,
    replicas_per_block,
)

from _oracles import (
    adjoint_four_gradients,
    adjoint_real_grids,
    b_bilinear_real_grids,
    b_core_real_grids,
    b_core_three_products,
    b_direct,
    divergence_residual,
    h_inner,
    stokes_apply,
    tensor_product_direct,
)

def test_dealias_rules():
    rule = DealiasRule.two_thirds(12)
    assert rule.effective_cutoff == 8
    assert DealiasRule.none(12).effective_cutoff == 12
    with pytest.raises(ValueError):
        DealiasRule.make("half", 12)


def test_a_rule_whose_band_holds_no_mode_is_refused_at_set_up():
    # the march failed at its first product with "band limit 0 invalid for cutoff 1"
    msg = "dealias 'two_thirds' keeps no mode at cutoff 1 (band limit 0)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        DealiasRule.make("two_thirds", 1)
    with pytest.raises(ValueError, match=re.escape(msg)):
        IntegratorConfig(dt=0.01).rule(1)
    assert DealiasRule.make("two_thirds", 2).effective_cutoff == 1
    assert DealiasRule.make("none", 1).effective_cutoff == 1


def test_tensor_product_zero_and_symmetry(random_field):
    zero = SpectralField.zero(6)
    t = tensor_product(zero, zero, DealiasRule.two_thirds(6))
    assert np.max(np.abs(t.comps)) == 0.0
    u, v = random_field(6), random_field(6)
    tuv = tensor_product(u, v, DealiasRule.two_thirds(6))
    tvu = tensor_product(v, u, DealiasRule.two_thirds(6))
    # (u x v)_{12} = u1 v2 = (v x u)_{21}
    assert np.allclose(tuv.comps[0, 1], tvu.comps[1, 0], atol=1e-15)
    assert np.max(np.abs(tuv.comps - np.conj(tuv.comps[:, :, ::-1, ::-1]))) < 1e-15


def test_tensor_product_single_cos_mode_spectrum():
    # u = v = (0, sin x1)/pi: the square has support {0, +-(2,0)} only
    u = SpectralField.from_modes(8, {(1, 0): 1.0})
    t = tensor_product(u, u, DealiasRule.none(8))
    n = 8
    support = np.argwhere(np.abs(t.comps).max(axis=(0, 1)) > 1e-14) - n
    assert {tuple(s) for s in support} == {(0, 0), (2, 0), (-2, 0)}
    # component (2,2) is sin^2(x1)/pi^2 = (1 - cos 2 x1)/(2 pi^2)
    assert t.comps[1, 1, n, n] == pytest.approx(1.0 / (2 * np.pi**2), rel=1e-13)
    assert t.comps[1, 1, n + 2, n] == pytest.approx(-1.0 / (4 * np.pi**2), rel=1e-13)
    assert np.max(np.abs(t.comps[0, 0])) < 1e-15
    assert np.max(np.abs(t.comps[0, 1])) < 1e-15


def test_tensor_product_matches_direct_convolution(random_field):
    u, v = random_field(6), random_field(6)
    rule = DealiasRule.two_thirds(6)
    got = tensor_product(u, v, rule)
    want = tensor_product_direct(u, v, rule.effective_cutoff)
    assert np.max(np.abs(got.comps - want)) < 1e-13 * np.max(np.abs(want))


def test_tensor_product_cutoff_mismatch(random_field):
    with pytest.raises(ValueError):
        tensor_product(random_field(6), random_field(8), DealiasRule.two_thirds(6))


def test_b_single_complex_mode_vanishes():
    # one wavevector self-interacts trivially: conv term parallel to k
    for k in ((1, 0), (2, 1), (1, -3)):
        u = SpectralField.from_modes(4, {k: 0.7 - 0.2j})
        out = b_core(u.coeffs, u.grid, DealiasRule.none(4))
        assert np.max(np.abs(out)) < 1e-14


def test_b_bilinearity(random_field):
    u, v, w = random_field(6), random_field(6), random_field(6)
    rule = DealiasRule.two_thirds(6)
    g = u.grid
    lhs = b_bilinear_core((2.5 * u + v).coeffs, w.coeffs, g, rule)
    rhs = 2.5 * b_bilinear_core(u.coeffs, w.coeffs, g, rule) + b_bilinear_core(
        v.coeffs, w.coeffs, g, rule
    )
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_b_matches_direct_convolution(rng):
    rule = DealiasRule.two_thirds(8)
    for seed in range(3):
        r = np.random.default_rng(seed)
        u = SpectralField.random(8, r, amplitude=0.8, decay=0.3)
        v = SpectralField.random(8, r, amplitude=0.8, decay=0.3)
        want = b_direct(u, v, rule.effective_cutoff)
        got = b_bilinear_core(u.coeffs, v.coeffs, u.grid, rule)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_b_self_equals_bilinear_diagonal(random_field):
    u = random_field(8)
    rule = DealiasRule.two_thirds(8)
    assert np.array_equal(
        b_core(u.coeffs, u.grid, rule), b_bilinear_core(u.coeffs, u.coeffs, u.grid, rule)
    )


def test_b_output_band_limited(random_field):
    u = random_field(8, decay=0.0)
    rule = DealiasRule.two_thirds(8)
    g = u.grid
    out = b_core(u.coeffs, g, rule)
    beyond = (np.abs(g.k1) > rule.effective_cutoff) | (
        np.abs(g.k2) > rule.effective_cutoff
    )
    assert np.max(np.abs(out[beyond])) == 0.0


@pytest.mark.parametrize("kind", ["two_thirds", "none"])
def test_orthogonality_identities(kind, rng):
    rule = DealiasRule.make(kind, 8)
    for _ in range(10):
        u = SpectralField.random(8, rng, amplitude=1.5, decay=0.2)
        bu = u.with_coeffs(b_core(u.coeffs, u.grid, rule))
        h = sobolev_norm(u, 0.0)
        v = sobolev_norm(u, 1.0)
        assert abs(h_inner(bu, u)) <= 1e-12 * v * v * h
        assert abs(h_inner(bu, stokes_apply(u))) <= 1e-11 * v**3


def test_b_output_divergence_free(random_field):
    u = random_field(8)
    out = u.with_coeffs(b_core(u.coeffs, u.grid, DealiasRule.two_thirds(8)))
    assert divergence_residual(out) <= 1e-12


def test_linearized_adjoint_pairing(random_field):
    u, v, w = random_field(6), random_field(6), random_field(6)
    rule = DealiasRule.two_thirds(6)
    g = u.grid
    uv = b_bilinear_core(u.coeffs, v.coeffs, g, rule)
    vu = b_bilinear_core(v.coeffs, u.coeffs, g, rule)
    lhs = h_inner(u.with_coeffs(uv + vu), w)
    rhs = h_inner(v, u.with_coeffs(b_linearized_adjoint_core(u.coeffs, w.coeffs, g, rule)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["two_thirds", "none"])
def test_stacked_b_core_is_per_row_b_core_bit_for_bit(cutoff, kind, rng):
    g = grid_for(cutoff)
    rule = DealiasRule.make(kind, cutoff)
    stack = np.stack([SpectralField.random(cutoff, rng, amplitude=1.0).coeffs for _ in range(3)])
    per_row = np.stack([b_core(row, g, rule) for row in stack])
    assert np.array_equal(b_core(stack, g, rule), per_row)
    # rows of a block march are strided views into its (R, n_steps + 1) paths
    paths = np.zeros((3, 4, g.n_modes), dtype=np.complex128)
    paths[:, 2] = stack
    assert not paths[:, 2].flags.c_contiguous
    assert np.array_equal(b_core(paths[:, 2], g, rule), per_row)
    assert np.array_equal(b_core(stack.reshape(3, 1, -1), g, rule)[:, 0], per_row)


def test_replica_blocks_fill_one_synthesis_budget():
    rule = DealiasRule.two_thirds
    sizes = {n: replicas_per_block(grid_for(n), rule(n)) for n in (8, 16, 32, 64)}
    assert sizes == {8: 32, 16: 8, 32: 2, 64: 1}


def _max_relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["two_thirds", "none"])
def test_trace_free_b_core_matches_three_products(cutoff, kind, rng):
    g = grid_for(cutoff)
    rule = DealiasRule.make(kind, cutoff)
    stack = np.stack([SpectralField.random(cutoff, rng, amplitude=1.0).coeffs for _ in range(3)])
    want = b_core_three_products(stack, g, rule)
    assert _max_relative(b_core(stack[0], g, rule), want[0]) <= 1e-14
    assert _max_relative(b_core(stack, g, rule), want) <= 1e-14


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["two_thirds", "none"])
def test_trace_free_adjoint_matches_four_gradients(cutoff, kind, rng):
    g = grid_for(cutoff)
    rule = DealiasRule.make(kind, cutoff)
    u, w = (
        np.stack([SpectralField.random(cutoff, rng, amplitude=1.0).coeffs for _ in range(3)])
        for _ in range(2)
    )
    want = np.stack([adjoint_four_gradients(a, b, g, rule) for a, b in zip(u, w)])
    assert _max_relative(b_linearized_adjoint_core(u[0], w[0], g, rule), want[0]) <= 1e-14
    assert _max_relative(b_linearized_adjoint_core(u, w, g, rule), want) <= 1e-14


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["two_thirds", "none"])
def test_packed_kernels_match_the_real_grid_kernels(cutoff, kind, rng):
    g = grid_for(cutoff)
    rule = DealiasRule.make(kind, cutoff)
    u, v = (
        np.stack([SpectralField.random(cutoff, rng, amplitude=1.0).coeffs for _ in range(3)])
        for _ in range(2)
    )
    cases = (
        (b_core, b_core_real_grids, (u,)),
        (b_bilinear_core, b_bilinear_real_grids, (u, v)),
        (b_linearized_adjoint_core, adjoint_real_grids, (u, v)),
    )
    for packed, real_grids, fields in cases:
        want = real_grids(*fields, g, rule)
        assert _max_relative(packed(*fields, g, rule), want) <= 1e-14
        assert _max_relative(packed(*(f[0] for f in fields), g, rule), want[0]) <= 1e-14
    # the antisymmetric part Im(conj(w_u) w_v) is exactly 0 on the diagonal
    assert np.array_equal(b_bilinear_core(u, u, g, rule), b_core(u, g, rule))
    assert np.array_equal(b_bilinear_core(u[1], u[1], g, rule), b_core(u[1], g, rule))


@pytest.mark.parametrize("cutoff", [8, 32])
@pytest.mark.parametrize("kind", ["two_thirds", "none"])
def test_adjoint_reads_the_velocity_grids_b_core_writes(cutoff, kind, rng):
    g = grid_for(cutoff)
    rule = DealiasRule.make(kind, cutoff)
    u, w = (
        np.stack([SpectralField.random(cutoff, rng, amplitude=1.0).coeffs for _ in range(3)])
        for _ in range(2)
    )
    M = padded_size(g, rule)
    velocity = np.empty((3, M, M), dtype=np.complex128)
    assert np.array_equal(b_core(u, g, rule, velocity), b_core(u, g, rule))
    plan = transform_plan(cutoff, rule.effective_cutoff, M)
    assert np.array_equal(velocity, plan.synthesize_packed(u, plan.velocity_layout))
    # the complex grid u1 + i u2 carries the two real velocity grids
    real = plan.synthesize(u)
    assert _max_relative(velocity.real, real[:, 0]) <= 1e-14
    assert _max_relative(velocity.imag, real[:, 1]) <= 1e-14
    one = b_linearized_adjoint_core(u[0], w[0], g, rule, velocity[0])
    assert np.array_equal(one, b_linearized_adjoint_core(u[0], w[0], g, rule))
    stack = b_linearized_adjoint_core(u, w, g, rule, velocity)
    assert np.array_equal(stack, b_linearized_adjoint_core(u, w, g, rule))
