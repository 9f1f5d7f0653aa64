"""Record the pinned outputs that ``test_pinned_outputs.py`` reruns.

    PYTHONPATH=src python tests/record_pinned.py

Runs every config of ``PINNED`` at seed 0, and each config of ``RESEEDED`` at
seeds 1 and 2, and writes its ``results.csv`` and ``summary.json`` content to
``tests/pinned_outputs.json``, one entry per config and seed in the shape of
``bench/gate.py``'s ``reference_entry``: seed 0 under ``runs``, the other
seeds under ``other_seeds``.  Beside them it records numpy's version and
the SIMD targets its kernels dispatch to (``sns2d.experiments.numpy_dispatch``,
which each run also writes into its ``record.json``): numpy picks its
``exp``, ``log`` and reduction kernels by CPU at import, and they differ in
the last bits.  Run it at the commit whose outputs later changes must
reproduce; a change that moves a pinned output records them again and says
so.
"""

import importlib.util
import json
import pathlib
import tempfile

from sns2d.experiments import numpy_dispatch
from test_harness import SMOKE_CONFIGS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "pinned_outputs.json"
SEED = 0
OTHER_SEEDS = (1, 2)


def _gate():
    spec = importlib.util.spec_from_file_location("gate", ROOT / "bench" / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _gate()

_FILES = (
    "configs/converge_besov.json",
    "configs/converge_h.json",
    "configs/lp_moment.json",
    "configs/ou_checks.json",
    "configs/renorm.json",
    "bench/configs/instanton32.json",
)
_SMOKE = ("besov_moment", "tube", "wick_decay", "laplace")
_EXTRA = {
    "laplace_clipped_endpoint": {
        "schema_version": 1,
        "kind": "laplace",
        "numerics": {"cutoff": 6, "dt": 0.02, "t_final": 0.1},
        "noise": {"schedule": {"kind": "power", "exponent": 0.5}},
        "statistics": {"replicas": 8},
        "params": {
            "functional": {
                "kind": "clipped_endpoint",
                "target": {"kind": "random", "amplitude": 0.5, "decay": 2.0},
                "scale": 2.0,
            },
            "epsilons": [0.3, 0.1, 0.03],
        },
    },
    "lp_moment_p3": {
        "schema_version": 1,
        "kind": "lp_moment",
        "numerics": {"cutoff": 8},
        "noise": {"epsilon": 0.3},
        "statistics": {"replicas": 200},
        "params": {"p": 3.0, "deltas": [0.1, 0.01]},
    },
}

# name: where the config comes from
PINNED = {
    **{path: path for path in _FILES},
    **{name: f"tests/test_harness.py SMOKE_CONFIGS[{name!r}]" for name in _SMOKE},
    **{name: "tests/record_pinned.py" for name in _EXTRA},
}
# the configs rerun at OTHER_SEEDS; the instanton draws nothing, so another
# seed gives the seed-0 numbers again
RESEEDED = [name for name in PINNED if name != "bench/configs/instanton32.json"]


def raw_config(name, seed=SEED):
    """The pinned config ``name`` as a raw dict, at ``seed``."""
    if name in _FILES:
        raw = json.loads((ROOT / name).read_text())
    else:
        raw = json.loads(json.dumps(SMOKE_CONFIGS[name] if name in _SMOKE else _EXTRA[name]))
    raw.setdefault("statistics", {})["seed"] = seed
    return raw


def run_pinned(name, read=gate.read_outputs, seed=SEED):
    """read(run_dir) of one run of the pinned config ``name`` at ``seed``."""
    from sns2d.experiments import ExperimentConfig, run

    with tempfile.TemporaryDirectory() as outdir:
        return read(run(ExperimentConfig.from_dict(raw_config(name, seed)), outdir).run_dir)


def _runs(names, seed):
    """The JSON object of the runs of ``names`` at ``seed``, one entry per config."""
    entries = []
    for name in names:
        source = PINNED[name]
        entry = run_pinned(name, lambda run_dir: gate.reference_entry(run_dir, source), seed)
        head = json.dumps({k: entry[k] for k in ("config", "summary", "columns")}, sort_keys=True)
        # one table row per line keeps the file readable and its diffs small
        body = ",\n      ".join(json.dumps(r) for r in entry["rows"])
        entries.append(f'{json.dumps(name)}: {head[:-1]}, "rows": [\n      {body}\n    ]}}')
    return "{\n    " + ",\n    ".join(entries) + "\n}"


def record():
    others = ", ".join(f'"{seed}": {_runs(RESEEDED, seed)}' for seed in OTHER_SEEDS)
    numpy = json.dumps(numpy_dispatch())
    runs = _runs(PINNED, SEED)
    text = f'{{"seed": {SEED}, "numpy": {numpy}, "runs": {runs}, "other_seeds": {{{others}}}}}\n'
    json.loads(text)
    REFERENCE.write_text(text)


if __name__ == "__main__":
    record()
    n_runs = len(PINNED) + len(OTHER_SEEDS) * len(RESEEDED)
    print(f"recorded {n_runs} runs to {REFERENCE.relative_to(ROOT)}")
