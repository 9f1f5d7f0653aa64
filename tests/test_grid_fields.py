import ast
import pathlib

import numpy as np
import pytest

import sns2d
from sns2d import SpectralField, grid_for, save_field, load_field, taylor_green
from sns2d.grid import transform_plan
from sns2d.nonlinear import DealiasRule, _plan_for

from _oracles import analyze_scaling_the_spectrum, divergence_residual, synthesize_scaling_a_copy


def test_half_lattice_covers_exactly_half():
    g = grid_for(5)
    assert g.n_modes == 2 * 5 * (5 + 1)
    stored = set(zip(g.k1.tolist(), g.k2.tolist()))
    assert (0, 0) not in stored
    for k in stored:
        assert (-k[0], -k[1]) not in stored
    # stored plus mirrored half covers the whole punctured square
    full = stored | {(-a, -b) for a, b in stored}
    assert len(full) == (2 * 5 + 1) ** 2 - 1


def test_mode_magnitudes():
    g = grid_for(4)
    assert np.all(g.ksq >= 1.0)
    i = g.mode_index[(3, 2)]
    assert g.ksq[i] == 13.0


def test_grid_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        grid_for(0)


def test_field_is_immutable(random_field):
    u = random_field()
    with pytest.raises((ValueError, AttributeError)):
        u.coeffs[0] = 1.0
    with pytest.raises(AttributeError):
        u.grid = None


def test_from_modes_folds_conjugate_half():
    u = SpectralField.from_modes(4, {(-1, 0): 2.0 + 1.0j})
    v = SpectralField.from_modes(4, {(1, 0): 2.0 - 1.0j})
    assert np.allclose(u.coeffs, v.coeffs)
    with pytest.raises(KeyError):
        SpectralField.from_modes(4, {(5, 0): 1.0})


def test_arithmetic_and_cutoff_mismatch(random_field):
    u = random_field()
    v = random_field()
    w = 2.0 * u - v
    assert np.allclose(w.coeffs, 2.0 * u.coeffs - v.coeffs)
    other = SpectralField.zero(6)
    with pytest.raises(ValueError):
        u + other


def test_reconstruction_is_real_and_divergence_free(random_field):
    u = random_field(cutoff=6)
    phys = u.to_grid()
    assert phys.shape[0] == 2
    assert np.isrealobj(phys)
    assert divergence_residual(u) <= 1e-12


def test_taylor_green_matches_closed_form():
    u = taylor_green(8, amplitude=1.3)
    size = 32
    phys = u.to_grid(size)
    x = 2.0 * np.pi * np.arange(size) / size
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    expected = np.stack(
        [1.3 * np.sin(X1) * np.cos(X2), -1.3 * np.cos(X1) * np.sin(X2)]
    )
    assert np.max(np.abs(phys - expected)) < 1e-12


@pytest.mark.parametrize("size", [15, 16])
def test_axis_and_oblique_modes_match_closed_form(size):
    # (3, 0) sits on the k2 = 0 axis, whose conjugate the synthesis fills in
    u = SpectralField.from_modes(4, {(3, 0): 0.7 - 0.4j, (1, 2): 0.5j})
    phys = u.to_grid(size)
    x = 2.0 * np.pi * np.arange(size) / size
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    axis = (0.4 * np.cos(3 * X1) - 0.7 * np.sin(3 * X1)) / np.pi
    oblique = -0.5 * np.cos(X1 + 2 * X2) / (np.pi * np.sqrt(5.0))
    expected = np.stack([2.0 * oblique, -axis - oblique])
    assert np.max(np.abs(phys - expected)) < 1e-14


def test_to_grid_rejects_a_grid_that_aliases():
    u = SpectralField.from_modes(4, {(3, 0): 1.0})
    assert u.to_grid(9).shape == (2, 9, 9)
    with pytest.raises(ValueError, match="too small"):
        u.to_grid(8)


def test_plan_analysis_inverts_synthesis_on_kept_modes(random_field):
    u = random_field(cutoff=6)
    plan = transform_plan(6, 4, 13)
    g = u.grid
    kept = (np.abs(g.k1) <= 4) & (np.abs(g.k2) <= 4)
    scalar = plan.synthesize(u.coeffs, np.ones((1, int(kept.sum()))))
    assert scalar.shape == (1, 13, 13)
    coeffs, mean = plan.analyze(scalar, with_mean=True)
    assert np.allclose(coeffs[0], u.coeffs[kept], rtol=0, atol=1e-14)
    assert abs(mean[0]) < 1e-14


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
def test_plan_scaling_in_place_is_the_scaled_copy_bit_for_bit(cutoff, rng):
    g = grid_for(cutoff)
    stack = np.stack([SpectralField.random(cutoff, rng).coeffs for _ in range(3)])
    plans = (transform_plan(cutoff, cutoff, g.physical_size()),
             _plan_for(g, DealiasRule.two_thirds(cutoff)))
    for plan in plans:
        for coeffs in (stack[0], stack):
            for symbols in (None, plan.strain):
                got = plan.synthesize(coeffs, symbols)
                assert np.array_equal(got, synthesize_scaling_a_copy(plan, coeffs, symbols))
            phys = plan.synthesize(coeffs)
            assert np.array_equal(plan.analyze(phys), analyze_scaling_the_spectrum(plan, phys))
            got, mean = plan.analyze(phys, with_mean=True)
            want, want_mean = analyze_scaling_the_spectrum(plan, phys, with_mean=True)
            assert np.array_equal(got, want) and np.array_equal(mean, want_mean)


@pytest.mark.parametrize("cutoff", [8, 16, 32, 64])
def test_packed_grids_carry_the_real_grid_pair(cutoff, rng):
    g = grid_for(cutoff)
    stack = np.stack([SpectralField.random(cutoff, rng).coeffs for _ in range(3)])
    plans = (transform_plan(cutoff, cutoff, g.physical_size()),
             _plan_for(g, DealiasRule.two_thirds(cutoff)))
    for plan in plans:
        ones = np.ones(plan.k.shape[1])
        for symbols, packed in ((plan.velocity, plan.velocity_packed),
                                (plan.strain, plan.strain_packed)):
            real = plan.synthesize(stack, symbols)
            z = plan.synthesize_packed(stack, packed)
            assert z.shape == real.shape[:1] + real.shape[2:]
            scale = np.max(np.abs(real))
            assert np.max(np.abs(z.real - real[:, 0])) <= 1e-14 * scale
            assert np.max(np.abs(z.imag - real[:, 1])) <= 1e-14 * scale
            # weights (1, 0) and (0, 1) split the pair back into its coefficients
            for j, (c1, c2) in enumerate(((ones, 0.0), (0.0, ones))):
                got = plan.analyze_packed(z.copy()[:, None], plan.packed_weights(c1, c2)[None])
                want = plan.analyze(real[:, j])
                assert np.max(np.abs(got[:, plan.keep] - want)) <= 1e-14 * np.max(np.abs(want))
                outside = np.ones(g.n_modes, dtype=bool)
                outside[plan.keep] = False
                assert not np.any(got[:, outside])


_FFT_MODULES = {"scipy.fft", "numpy.fft", "scipy.fftpack"}
_FFT_ALLOWED = {"next_fast_len"}


def _fft_uses(tree):
    """(line, name) of every FFT-module import or attribute other than next_fast_len."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in _FFT_MODULES:
            uses += [(node.lineno, a.name) for a in node.names if a.name not in _FFT_ALLOWED]
        elif isinstance(node, ast.ImportFrom) and node.module in ("scipy", "numpy"):
            uses += [(node.lineno, a.name) for a in node.names if a.name in ("fft", "fftpack")]
        elif isinstance(node, ast.Import):
            uses += [(node.lineno, a.name) for a in node.names if a.name in _FFT_MODULES]
        elif isinstance(node, ast.Attribute) and node.attr not in _FFT_ALLOWED:
            inner = node.value
            if isinstance(inner, ast.Attribute) and inner.attr in ("fft", "fftpack"):
                uses.append((node.lineno, node.attr))
    return uses


def test_fft_transforms_live_only_in_the_grid_module():
    src = pathlib.Path(sns2d.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name != "grid.py":
            uses = _fft_uses(ast.parse(path.read_text()))
            offenders += [f"{path.name}:{line} {name}" for line, name in uses]
    assert offenders == []
    # one call site each: the real and the packed synthesis and analysis
    grid_calls = [
        node.func.id
        for node in ast.walk(ast.parse((src / "grid.py").read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    transforms = ("fft2", "ifft2", "irfft2", "rfft2")
    assert sorted(name for name in grid_calls if name in transforms) == sorted(transforms)


def test_fft_guard_sees_each_way_of_reaching_a_transform():
    for text in (
        "from scipy.fft import fft2",
        "from numpy.fft import irfft",
        "import scipy.fft",
        "from scipy import fft",
        "y = np.fft.ifft2(x)",
        "y = scipy.fft.rfft2(x)",
    ):
        assert _fft_uses(ast.parse(text)), text
    assert _fft_uses(ast.parse("from scipy.fft import next_fast_len")) == []


def test_field_serialization_roundtrip(tmp_path, random_field):
    u = random_field(cutoff=5)
    path = tmp_path / "field.csv"
    save_field(u, path)
    v = load_field(path)
    assert v.cutoff == u.cutoff
    assert np.array_equal(v.coeffs, u.coeffs)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("k1,k2\n1,2\n")
    with pytest.raises(ValueError):
        load_field(path)
