"""Every pinned config reproduces its recorded outputs.

``record_pinned.py`` ran each config of its ``PINNED`` table at seed 0 and
wrote the content of ``results.csv`` and ``summary.json`` to
``pinned_outputs.json``.  Each is rerun here and compared by the benchmark
gate's rule (``bench/gate.py``'s ``compare``): numbers within 1e-12
relative, strings and booleans equal, ``config_hash`` left out.  Then the
numbers must also be the recorded ones to the last bit: a change that moves
an output by roundoff records the outputs again and declares the move.
"""

import json

import pytest

from record_pinned import PINNED, REFERENCE, gate, run_pinned


@pytest.fixture(scope="module")
def recorded():
    return json.loads(REFERENCE.read_text())


def test_every_pinned_config_has_a_recorded_run(recorded):
    assert recorded["seed"] == 0
    assert sorted(recorded["runs"]) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_pinned_config_reproduces_its_recorded_outputs(recorded, name):
    outputs, reference = run_pinned(name), recorded["runs"][name]
    assert gate.compare(outputs, reference) == []
    # within the gate's tolerance, but not the same bits
    assert gate.compare(outputs, reference, rel_tol=0.0) == []
