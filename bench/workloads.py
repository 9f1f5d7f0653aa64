"""The benchmark's workloads and the inputs each one runs.

A workload is a list of experiment configs that the benchmark runs with
``experiments.run``, one after another in one process.  The shipped configs
under ``configs/`` are used unchanged except for ``statistics.seed``, which
comes from the benchmark's ``--seed``.  ``instanton32`` is defined in
``bench/configs``.  NOTES.md records why each workload was chosen.
"""

import copy
import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
# Everything the benchmark writes goes here (ignored by git).
OUT_DIR = ROOT / ".bench_out"

# Outputs at this seed are compared with bench/reference/<workload>.json.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    # True when the run verdict ("passed") rests on hypothesis tests with a
    # nominal false-alarm rate (a KS test at 1%, a 3-sigma z-score): a correct
    # program fails them at a few percent of seeds, so the verdict is gated
    # only at the reference seed, where the outputs are known.
    statistical_verdict: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paths_h16", ("configs/converge_h.json",)),
        Workload("paths_besov16", ("configs/converge_besov.json",)),
        Workload(
            "noise_draws",
            ("configs/ou_checks.json", "configs/lp_moment.json", "configs/renorm.json"),
            statistical_verdict=True,
        ),
        Workload("instanton32", ("bench/configs/instanton32.json",)),
    )
}


def program_present() -> bool:
    return (SRC / "sns2d" / "__init__.py").is_file()


def use_program_source():
    """Import sns2d from this checkout's src/ rather than any installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_raw(path, seed: int) -> dict:
    """One config as a raw dict, with statistics.seed set to ``seed``."""
    with open(ROOT / path) as fh:
        raw = json.load(fh)
    raw.setdefault("statistics", {})["seed"] = seed
    return raw


def raw_configs(workload: Workload, seed: int) -> list:
    return [load_raw(p, seed) for p in workload.configs]


def parse_configs(raws) -> list:
    """Parse and validate raw configs (the harness's own validation)."""
    from sns2d.experiments import ExperimentConfig

    return [ExperimentConfig.from_dict(copy.deepcopy(r)) for r in raws]
