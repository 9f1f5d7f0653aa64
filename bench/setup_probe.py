"""Cold set-up of one workload, timed in a fresh process.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds taken to import sns2d, read, parse and validate the
workload's configs, and build the grids, product plans and synthesis
embeddings its runs use.  Interpreter start-up is not included.  The
benchmark starts this several times per run and reports the median as
``setup_s``; ``bench/run.py`` also calls ``set_up`` to prime its own process.
"""

import sys
import time

import workloads


def set_up(workload, seed):
    """Parse the workload's configs and build what their runs need first."""
    workloads.use_program_source()
    import numpy as np
    from sns2d.fields import SpectralField
    from sns2d.grid import grid_for
    from sns2d.nonlinear import b_core

    configs = workloads.parse_configs(workloads.raw_configs(workload, seed))
    for cfg in configs:
        n = cfg.numerics["cutoff"]
        grid = grid_for(n)
        b_core(np.zeros(grid.n_modes, dtype=np.complex128), grid, cfg.integrator().rule(n))
        SpectralField.zero(n).to_grid(grid_factor=cfg.numerics["grid_factor"])
    return configs


if __name__ == "__main__":
    t0 = time.perf_counter()
    set_up(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(repr(time.perf_counter() - t0))
