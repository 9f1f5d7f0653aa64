"""Every pinned config reproduces its recorded outputs.

``record_pinned.py`` ran each config of its ``PINNED`` table at seed 0, and
each of its ``RESEEDED`` list at seeds 1 and 2, and wrote the content of
``results.csv`` and ``summary.json`` to ``pinned_outputs.json``.  Each is rerun here and compared by the benchmark
gate's rule (``bench/gate.py``'s ``compare``): numbers within 1e-12
relative, strings and booleans equal, ``config_hash`` left out.  Then the
numbers must also be the recorded ones to the last bit: a change that moves
an output by roundoff records the outputs again and declares the move.
The exact pass's failure names numpy's version and dispatch targets, as
recorded and as now, where the two differ: numpy picks its kernels by CPU,
and another dispatch moves last bits without any change to the program.
A planted swap of two normals in one member's stream shows that the exact
pass sees a reordered draw.  A few seed-0 configs are also rerun in a
subprocess with numpy's AVX-512 kernels switched off, the dispatch of an
AVX2-only host, and again with its X86_V3 (AVX2) kernels off too, which
leaves no SIMD target, so that two more dispatches are exercised wherever
the CPU has the targets to switch off.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from record_pinned import (
    OTHER_SEEDS,
    PINNED,
    REFERENCE,
    RESEEDED,
    gate,
    numpy_dispatch,
    run_pinned,
)
from sns2d.noise import RngStream


@pytest.fixture(scope="module")
def recorded():
    return json.loads(REFERENCE.read_text())


def test_every_pinned_config_has_a_recorded_run(recorded):
    assert recorded["seed"] == 0
    assert sorted(recorded["numpy"]) == ["dispatch", "version"]
    assert sorted(recorded["runs"]) == sorted(PINNED)
    assert sorted(recorded["other_seeds"]) == [str(seed) for seed in OTHER_SEEDS]
    for runs in recorded["other_seeds"].values():
        assert sorted(runs) == sorted(RESEEDED)


def _dispatch_note(recorded):
    """How the numpy that recorded the outputs differs from this one."""
    now = numpy_dispatch()
    if now == recorded:
        return "recorded under this numpy and dispatch"
    return (
        f"recorded under numpy {recorded['version']} dispatching to {recorded['dispatch']}, "
        f"rerun under numpy {now['version']} dispatching to {now['dispatch']}"
    )


def _reproduces(outputs, reference, dispatch):
    assert gate.compare(outputs, reference) == []
    # within the gate's tolerance, but not the same bits
    assert gate.compare(outputs, reference, rel_tol=0.0) == [], _dispatch_note(dispatch)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_pinned_config_reproduces_its_recorded_outputs(recorded, name):
    _reproduces(run_pinned(name), recorded["runs"][name], recorded["numpy"])


@pytest.mark.parametrize("seed", OTHER_SEEDS)
@pytest.mark.parametrize("name", sorted(RESEEDED))
def test_a_pinned_config_reproduces_its_recorded_outputs_at_other_seeds(recorded, name, seed):
    outputs = run_pinned(name, seed=seed)
    _reproduces(outputs, recorded["other_seeds"][str(seed)][name], recorded["numpy"])
    assert outputs[2]["seed"] == seed


class _SwappedDraw(np.random.Generator):
    """A generator whose first standard_normal draw comes out with its first
    two normals swapped: the same numbers, in another order."""

    swaps = 0

    def standard_normal(self, *args, **kwargs):
        drawn = super().standard_normal(*args, **kwargs)
        if _SwappedDraw.swaps == 0:
            first, second = (np.unravel_index(k, drawn.shape) for k in (0, 1))
            drawn[first], drawn[second] = drawn[second], drawn[first]
        _SwappedDraw.swaps += 1
        return drawn


def test_a_reordered_draw_is_caught_by_the_exact_comparison(recorded, monkeypatch):
    name = "besov_moment"
    reference = recorded["runs"][name]
    assert gate.compare(run_pinned(name), reference, rel_tol=0.0) == []
    # planted: two normals of one member's stream swapped, the first two of
    # member 1's replica 0 (stream (1, 0) under the seed)
    generator = RngStream.generator

    def planted(stream):
        gen = generator(stream)
        return _SwappedDraw(gen.bit_generator) if stream.stream_id == (1, 0) else gen

    monkeypatch.setattr(_SwappedDraw, "swaps", 0)
    monkeypatch.setattr(RngStream, "generator", planted)
    outputs = run_pinned(name)
    assert _SwappedDraw.swaps > 0
    differences = gate.compare(outputs, reference, rel_tol=0.0)
    # member 1's row moves, and the summary with it; member 0's does not
    assert differences and not any("row 0" in d for d in differences)


def test_an_exact_failure_names_the_recorded_and_the_current_dispatch(recorded):
    reference = recorded["runs"]["besov_moment"]
    rows = [list(row) for row in reference["rows"]]
    col = reference["columns"].index("estimate")
    rows[0][col] = repr(float(np.nextafter(float(rows[0][col]), np.inf)))
    # one ulp off: within the gate's tolerance, not the same bits
    outputs = (reference["columns"], rows, reference["summary"])
    now = numpy_dispatch()
    other = {"version": "1.26.4", "dispatch": ["AVX2"]}
    with pytest.raises(AssertionError) as err:
        _reproduces(outputs, reference, other)
    assert "numpy 1.26.4 dispatching to ['AVX2']" in str(err.value)
    assert f"numpy {now['version']} dispatching to {now['dispatch']}" in str(err.value)
    with pytest.raises(AssertionError, match="recorded under this numpy and dispatch"):
        _reproduces(outputs, reference, now)


# numpy's AVX-512 targets; switched off, numpy dispatches as on an AVX2-only host
_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# the targets switched off for each reduced dispatch, and whether each
# seed-0 config rerun under it is expected to keep its bits there: the
# slope fits of the convergence sweeps go through numpy's log and reductions
# and move in the last bits under either; the OU laws, and the stderr of
# the L^p moment at p = 3, move only once the X86_V3 kernels are off too.
# The Besov moment keeps its bits under both; it and the L^p moment run the
# block quadrature
_REDUCED = {
    "avx2": (_AVX512, {
        "configs/converge_h.json": False,
        "configs/converge_besov.json": False,
        "configs/ou_checks.json": True,
        "lp_moment_p3": True,
        "besov_moment": True,
    }),
    "no_simd": (("X86_V3",) + _AVX512, {
        "configs/converge_h.json": False,
        "configs/converge_besov.json": False,
        "configs/ou_checks.json": False,
        "lp_moment_p3": False,
        "besov_moment": True,
    }),
}
_RERUN = """
import json, sys
from record_pinned import REFERENCE, gate, numpy_dispatch, run_pinned
runs = json.loads(REFERENCE.read_text())["runs"]
cases = {}
for name in sys.argv[1:]:
    outputs = run_pinned(name)
    cases[name] = [gate.compare(outputs, runs[name]),
                   gate.compare(outputs, runs[name], rel_tol=0.0)]
print(json.dumps({"numpy": numpy_dispatch(), "cases": cases}))
"""


@pytest.mark.parametrize("dispatch", sorted(_REDUCED))
def test_pinned_configs_hold_to_1e_12_under_a_reduced_dispatch(dispatch):
    off, keeps_bits = _REDUCED[dispatch]
    now = numpy_dispatch()
    if not set(off) <= set(now["dispatch"]):
        pytest.skip(f"this CPU has no {' '.join(off)} dispatch to switch off")
    here = pathlib.Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    # the setting acts on the subprocess only
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off),
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, "-c", _RERUN, *keeps_bits], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    rerun = json.loads(done.stdout.splitlines()[-1])
    reduced = [t for t in now["dispatch"] if t not in off]
    assert rerun["numpy"] == {"version": now["version"], "dispatch": reduced}
    assert sorted(rerun["cases"]) == sorted(keeps_bits)
    for name, (close, exact) in rerun["cases"].items():
        assert close == [], name
        assert (exact == []) == keeps_bits[name], (name, exact)
