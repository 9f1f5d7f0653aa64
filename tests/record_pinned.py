"""Record the pinned outputs that ``test_pinned_outputs.py`` reruns.

    PYTHONPATH=src python tests/record_pinned.py

Runs every config of ``PINNED`` at seed 0 and writes its ``results.csv`` and
``summary.json`` content to ``tests/pinned_outputs.json``, one entry per
config in the shape of ``bench/gate.py``'s ``reference_entry``.  Run it at
the commit whose outputs later changes must reproduce; a change that moves a
pinned output records them again and says so.
"""

import importlib.util
import json
import pathlib
import tempfile

from test_harness import SMOKE_CONFIGS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "pinned_outputs.json"
SEED = 0


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


def raw_config(name):
    """The pinned config ``name`` as a raw dict, at seed 0."""
    if name in _FILES:
        raw = json.loads((ROOT / name).read_text())
    else:
        raw = json.loads(json.dumps(SMOKE_CONFIGS[name] if name in _SMOKE else _EXTRA[name]))
    raw.setdefault("statistics", {})["seed"] = SEED
    return raw


def run_pinned(name, read=gate.read_outputs):
    """read(run_dir) of one run of the pinned config ``name``."""
    from sns2d.experiments import ExperimentConfig, run

    with tempfile.TemporaryDirectory() as outdir:
        return read(run(ExperimentConfig.from_dict(raw_config(name)), outdir).run_dir)


def record():
    entries = []
    for name, source in PINNED.items():
        entry = run_pinned(name, lambda run_dir: gate.reference_entry(run_dir, source))
        head = json.dumps({k: entry[k] for k in ("config", "summary", "columns")}, sort_keys=True)
        # one table row per line keeps the file readable and its diffs small
        body = ",\n      ".join(json.dumps(r) for r in entry["rows"])
        entries.append(f'{json.dumps(name)}: {head[:-1]}, "rows": [\n      {body}\n    ]}}')
    text = f'{{"seed": {SEED}, "runs": {{\n    ' + ",\n    ".join(entries) + "\n}}\n"
    json.loads(text)
    REFERENCE.write_text(text)


if __name__ == "__main__":
    record()
    print(f"recorded {len(PINNED)} runs to {REFERENCE.relative_to(ROOT)}")
