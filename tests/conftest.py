import numpy as np
import pytest

import sns2d.dynamics as dynamics
from sns2d import SpectralField


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def random_field(rng):
    def make(cutoff=8, amplitude=1.0, decay=0.5):
        return SpectralField.random(cutoff, rng, amplitude=amplitude, decay=decay)

    return make


@pytest.fixture
def draw_ahead_helpers(monkeypatch):
    """The list of draw-ahead helpers that marches start during the test: one
    per march with noise and at least one row, on any number of cores."""
    started = []

    class Counted(dynamics._DrawAhead):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(dynamics, "_DrawAhead", Counted)
    return started
