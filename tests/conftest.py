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
    """The list of draw-ahead helpers that marches start during the test.  A
    march that draws its chunks itself (one core, or one chunk) starts none."""
    started = []

    class Counted(dynamics._DrawAhead):
        def __init__(self, *args):
            super().__init__(*args)
            if self._thread is not None:
                started.append(self)

    monkeypatch.setattr(dynamics, "_DrawAhead", Counted)
    return started
