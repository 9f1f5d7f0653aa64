import ast
import importlib.machinery
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.fft import fft2, ifft2, next_fast_len

import sns2d
import sns2d.grid as grid_module
from sns2d import SpectralField, grid_for, save_field, load_field, taylor_green
from sns2d.grid import transform_plan
from sns2d.nonlinear import (
    DealiasRule,
    _plan_for,
    b_bilinear_core,
    b_core,
    b_linearized_adjoint_core,
)
from sns2d.spectral import block_powers

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


_FFT_MODULES = ("scipy.fft", "numpy.fft", "scipy.fftpack")
_BINDING = "scipy.fft._pocketfft.pypocketfft"


def _fft_module(name):
    """Whether the dotted module name is an FFT module or one of its submodules."""
    return any(name == m or name.startswith(m + ".") for m in _FFT_MODULES)


def _names_fft(text):
    """Whether a string names an FFT module: by its dotted name, or as a
    path with an fft or fftpack directory or a pocketfft file in it.  Prose,
    such as a docstring, holds whitespace and names nothing."""
    if _fft_module(text):
        return True
    if any(c.isspace() for c in text):
        return False
    return any(p in ("fft", "fftpack") or "pocketfft" in p for p in re.split(r"[./\\]", text))


def _fft_uses(tree, strings=True):
    """(line, name) of every way the module reaches an FFT module.

    A submodule counts as its module: ``from scipy.fft._pocketfft.pypocketfft
    import c2c`` reaches a transform as surely as ``from scipy.fft import
    fft2``.  So does an attribute named fft, fftpack or after pocketfft, and
    (with ``strings``) any string constant that names an FFT module, which
    covers loading one by name or by path: ``importlib.import_module``,
    ``PathFinder.find_spec``, ``spec_from_file_location`` and
    ``sys.modules[...]``.
    """
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _fft_module(node.module or ""):
            uses += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, a.name) for a in node.names
                     if a.name in ("fft", "fftpack") or "pocketfft" in a.name]
        elif isinstance(node, ast.Import):
            uses += [(node.lineno, a.name) for a in node.names if _fft_module(a.name)]
        elif isinstance(node, ast.Attribute):
            if node.attr in ("fft", "fftpack") or "pocketfft" in node.attr:
                uses.append((node.lineno, node.attr))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _names_fft(node.value):
                uses.append((node.lineno, node.value))
    return uses


def _calls(func):
    """Names called in func's body, by plain name or as an attribute."""
    return [
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
    ]


def _lines(node):
    return set(range(node.lineno, node.end_lineno + 1))


def test_fft_transforms_live_only_in_the_grid_module():
    src = pathlib.Path(sns2d.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        uses = _fft_uses(ast.parse(path.read_text()), strings=path.name != "grid.py")
        offenders += [f"{path.name}:{line} {name}" for line, name in uses]
    # no module imports scipy.fft in any form, grid.py included
    assert offenders == []

    tree = ast.parse((src / "grid.py").read_text())
    top = {node.targets[0].id: node for node in tree.body
           if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    # one loader: the binding's name and directory appear only in it and in
    # the name's constant, and only it finds, makes and runs a module
    loader = funcs["_load_pocketfft"]
    named = _fft_uses(tree)
    assert {line for line, _ in named} <= _lines(loader) | _lines(top["_POCKETFFT"])
    assert {name for _, name in named} == {_BINDING, "fft", "_pocketfft"}
    loading = ("find_spec", "module_from_spec", "exec_module", "spec_from_file_location",
               "import_module", "__import__")
    loads = [sorted(c for c in _calls(node) if c in loading) for node in (tree, loader)]
    assert loads[0] == loads[1] == ["exec_module", "find_spec", "find_spec", "module_from_spec"]
    assert ast.unparse(top["_pocketfft"].value) == "_load_pocketfft()"
    assert _calls(tree).count("_load_pocketfft") == 1

    # one use each of the binding's functions, in the function (or, for
    # good_size, the cache) standing for scipy.fft's; every read of the
    # binding is one of these
    scopes = {**funcs, **top}

    def scope_of(line):
        return min((name for name, node in scopes.items() if line in _lines(node)),
                   key=lambda name: len(_lines(scopes[name])))

    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_pocketfft"
             and isinstance(node.ctx, ast.Load)]
    sites = sorted(
        (scope_of(node.lineno), node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_pocketfft"
    )
    assert sites == [
        ("_complex_transform", "c2c"),
        ("analyze", "r2c"),
        ("next_fast_len", "good_size"),
        ("synthesize", "c2r"),
    ]
    assert len(reads) == len(sites)
    # and the packed path reaches c2c through its helper only
    helper_sites = sorted(name for name, f in funcs.items() if "_complex_transform" in _calls(f))
    assert helper_sites == ["analyze_packed", "synthesize_packed"]


def test_fft_guard_sees_each_way_of_reaching_a_transform():
    for text in (
        "from scipy.fft import fft2",
        "from scipy.fft import next_fast_len",
        "from numpy.fft import irfft",
        "import scipy.fft",
        "from scipy import fft",
        "fft = scipy.fft",
        "fft = getattr(scipy, 'fft')",
        "y = np.fft.ifft2(x)",
        "y = scipy.fft.rfft2(x)",
        "from scipy.fft._pocketfft.pypocketfft import c2c",
        "from scipy.fft._pocketfft import pypocketfft",
        "from numpy.fft._pocketfft_umath import fft",
        "import scipy.fft._pocketfft.pypocketfft as pfft",
        "y = scipy.fft._pocketfft.pypocketfft.c2c(x)",
        "pfft = importlib.import_module('scipy.fft._pocketfft.pypocketfft')",
        # by path, and through the grid module's handle
        "spec = PathFinder.find_spec('scipy.fft._pocketfft.pypocketfft', [where])",
        "spec = spec_from_file_location('binding', os.path.join(d, 'fft', '_pocketfft', 'x.so'))",
        "spec = spec_from_file_location('binding', d + '/pypocketfft.cpython-311.so')",
        "spec = spec_from_file_location('binding', f'{d}/fft/_pocketfft/x.so')",
        "pfft = sys.modules['scipy.fft._pocketfft.pypocketfft']",
        "from .grid import _pocketfft",
        "y = grid._pocketfft.c2c(x)",
    ):
        assert _fft_uses(ast.parse(text)), text
    for text in (
        "import scipy.fftx",
        "x = 'scipy.fftx'",
        "'Transforms go through the pocketfft binding under scipy.fft.'",
        "from scipy.integrate import quad",
        # the grid module's own reads of the binding are no import of it
        "y = _pocketfft.c2c(x)",
    ):
        assert _fft_uses(ast.parse(text)) == [], text


def _fresh_python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this sns2d."""
    src = str(pathlib.Path(sns2d.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_fresh_import_loads_the_binding_and_no_scipy_package():
    out = _fresh_python(
        "import sys, sns2d, sns2d.experiments, sns2d.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert ast.literal_eval(out) == [_BINDING]


@pytest.mark.parametrize("scipy_first", [True, False])
def test_sns2d_and_scipy_fft_share_one_binding_in_either_import_order(scipy_first):
    first, second = ("scipy.fft", "sns2d.grid") if scipy_first else ("sns2d.grid", "scipy.fft")
    out = _fresh_python(f"""
import sys
import numpy as np
import {first}
import {second}
import scipy.fft
import sns2d.grid as grid

binding = sys.modules["{_BINDING}"]
same = []
transform = grid._complex_transform

def checked(grids, forward, out=None):
    want = scipy.fft.ifft2(grids, norm="forward")
    got = transform(grids, forward, out)
    same.append(not forward and np.array_equal(got, want))
    return got

grid._complex_transform = checked
plan = grid.transform_plan(8, 8, grid.grid_for(8).physical_size())
rng = np.random.default_rng(3)
coeffs = rng.standard_normal((2, plan.n_modes)) + 1j * rng.standard_normal((2, plan.n_modes))
plan.synthesize_packed(coeffs)
print(grid._pocketfft is binding, scipy.fft._pocketfft.basic.pfft is binding, same)
""")
    assert out.split() == ["True", "True", "[True]"]


def test_the_binding_loader_fails_naming_where_it_looked(monkeypatch, tmp_path):
    import scipy

    find_spec = importlib.util.find_spec
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, _BINDING)
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: fake if name == "scipy" else find_spec(name, *a))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "fft" / "_pocketfft"))) as info:
        grid_module._load_pocketfft()
    assert f"scipy {scipy.__version__} is installed" in str(info.value)
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: None if name == "scipy" else find_spec(name, *a))
    with pytest.raises(ImportError, match="no scipy package was found"):
        grid_module._load_pocketfft()
    assert _BINDING not in sys.modules


@pytest.mark.parametrize("cutoff", [8, 16, 32])
@pytest.mark.parametrize("size", ["factor 2", "factor 3", "odd"])
def test_real_transforms_give_the_bits_of_scipy_fft(cutoff, size, rng):
    # irfft2(..., s=(M, M)) * M^2 and rfft2, as the real path made them with
    # scipy.fft: renorm's recorded wick_crosscheck_err depends on these bits
    g = grid_for(cutoff)
    M = {"factor 2": g.physical_size(2), "factor 3": g.physical_size(3), "odd": 2 * cutoff + 1}[size]
    plan = transform_plan(cutoff, cutoff, M)
    stack = np.stack([SpectralField.random(cutoff, rng).coeffs for _ in range(3)])
    for coeffs in (stack[0], stack):
        for symbols in (None, plan.strain):
            got = plan.synthesize(coeffs, symbols)
            assert np.array_equal(got, synthesize_scaling_a_copy(plan, coeffs, symbols))
        phys = plan.synthesize(coeffs)
        got, mean = plan.analyze(phys, with_mean=True)
        want, want_mean = analyze_scaling_the_spectrum(plan, phys, with_mean=True)
        assert np.array_equal(got, want) and np.array_equal(mean, want_mean)
        assert np.array_equal(plan.analyze(phys), want)


def test_next_fast_len_is_scipy_fft_s():
    for real in (False, True):
        got = [grid_module.next_fast_len(n, real) for n in range(1, 1025)]
        assert got == [next_fast_len(n, real) for n in range(1, 1025)]


def _scipy_transform(grids, forward):
    return fft2(grids) if forward else ifft2(grids, norm="forward")


@pytest.mark.parametrize("shape", [(8, 32, 32), (64, 64), (2, 64, 64), (2, 3, 33, 33),
                                   (3, 1, 5, 5), (3, 1, 9, 9), (3, 1, 18, 18)])
def test_complex_transform_gives_the_bits_of_scipy_fft(shape, rng):
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for forward in (False, True):
        want = _scipy_transform(x, forward)
        assert np.array_equal(grid_module._complex_transform(x, forward), want)
        out = np.empty_like(x)
        assert grid_module._complex_transform(x, forward, out) is out
        assert np.array_equal(out, want)
        y = x.copy()
        assert grid_module._complex_transform(y, forward, y) is y
        assert np.array_equal(y, want)


def test_every_packed_transform_the_plans_make_gives_the_bits_of_scipy_fft(monkeypatch, rng):
    # the stacks of b_core's replica blocks (N=16), the descent's kernels
    # (N=32) and the Besov block groups (N=16)
    shapes = set()
    transform = grid_module._complex_transform

    def checked(grids, forward, out=None):
        want = _scipy_transform(grids, forward)
        got = transform(grids, forward, out)
        assert np.array_equal(got, want)
        assert out is None or got is out
        shapes.add(grids.shape)
        return got

    monkeypatch.setattr(grid_module, "_complex_transform", checked)
    g16, g32 = grid_for(16), grid_for(32)
    rule16, rule32 = DealiasRule.two_thirds(16), DealiasRule.two_thirds(32)
    block = np.stack([SpectralField.random(16, rng, decay=1.0).coeffs for _ in range(8)])
    u, w = (SpectralField.random(32, rng, decay=1.0).coeffs for _ in range(2))
    b_core(block, g16, rule16)
    velocity = np.empty((64, 64), dtype=np.complex128)
    b_core(u, g32, rule32, velocity)
    b_core(u, g32, rule32)
    b_bilinear_core(u, w, g32, rule32)
    b_linearized_adjoint_core(u, w, g32, rule32, velocity)
    b_linearized_adjoint_core(u, w, g32, rule32)
    block_powers(g16, block[:2], 4.0)
    assert {(8, 32, 32), (64, 64), (2, 64, 64), (2, 3, 33, 33)} <= shapes
    assert {5, 9, 18} <= {shape[-1] for shape in shapes}


def test_field_serialization_roundtrip(tmp_path, random_field):
    u = random_field(cutoff=5)
    path = tmp_path / "field.csv"
    save_field(u, path)
    v = load_field(path)
    assert v.cutoff == u.cutoff
    assert np.array_equal(v.coeffs, u.coeffs)


@pytest.mark.parametrize(
    "row", ["2,1,inf,0.0", "1,-2,0.0,nan", "6,0,1.0,0.0", "0,-1,1.0,0.0", "1,0,5.0,0.0"]
)
def test_load_rejects_a_non_finite_or_unstored_row(tmp_path, row):
    path = tmp_path / "field.csv"
    save_field(taylor_green(5, 0.4), path)
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ValueError, match=f"^{path}: row {row} is not a finite coefficient"):
        load_field(path)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("k1,k2\n1,2\n")
    with pytest.raises(ValueError):
        load_field(path)
