"""Host-speed calibration: fixed work timed next to every timed execution.

The machines this benchmark runs on are shared. On the 2-core Xeon where it
was defined, the same workload ran from 1.1 s to 2.2 s within minutes, and
CPU time moved with wall time, so the host ran fewer instructions per second
rather than making the process wait. The IQR over median of raw run medians
across ten runs was 0.13–0.23, too wide to gate a change.

``calibrate`` times a fixed piece of work that uses no sns2d code: small
FFT products, a pure-Python loop and normal draws, the three kinds of work
the workloads do. The benchmark calibrates before and after each execution
and reports the execution's time scaled by ``REFERENCE_S / calibration``.
That is its time at the speed the host had when the benchmark was defined.
Over a 10-minute series of ``paths_h16`` executions, this cut the IQR over
median of 25-second medians from 0.23 to 0.06–0.09.  Set-up samples are
scaled the same way by ``import_baseline`` instead.
"""

import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.fft

# Median of calibrate() on the 2-core Xeon where the benchmark was defined.
REFERENCE_S = 0.055
# Median of import_baseline() there.
REFERENCE_IMPORT_S = 0.26

# What sns2d imports at start-up, outside its own modules.
_IMPORTS = "import time; t0 = time.perf_counter(); import numpy, scipy.fft; print(time.perf_counter() - t0)"

_FIELD = np.random.default_rng(0).standard_normal((2, 64, 64)) + 0j


def calibrate(repeats=1):
    """Median seconds of ``repeats`` passes of the fixed calibration work."""
    return statistics.median(_one_pass() for _ in range(repeats))


def calibration_repeats(execution_s):
    """Passes that keep calibration near 4% of an execution of this length."""
    return max(1, min(8, round(0.04 * execution_s / REFERENCE_S)))


def _one_pass():
    t0 = time.perf_counter()
    for _ in range(60):
        g = scipy.fft.ifft2(_FIELD, axes=(1, 2)).real
        scipy.fft.fft2(g[0] * g[0]) + scipy.fft.fft2(g[0] * g[1]) + scipy.fft.fft2(g[1] * g[1])
    total = 0
    for i in range(200_000):
        total += i * i
    gen = np.random.default_rng(1)
    for _ in range(40):
        gen.standard_normal(50_000)
    return time.perf_counter() - t0


def import_baseline():
    """Seconds a fresh interpreter takes to import numpy and scipy.fft.

    Set-up time is mostly such imports (about 85% of it), which track the
    host's file cache and memory more than ``calibrate`` does.  Scaled by
    this baseline instead, set-up medians over 5 samples varied by 1.3%
    rather than 7.5%.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.split()[-1])
