"""Record the outputs later runs are compared with, at the reference seed.

    python3 bench/record_reference.py [workload ...]

Writes bench/reference/<workload>.json for the named workloads (default:
all).  Run it at the commit whose outputs later changes must reproduce.
"""

import json
import shutil
import sys
import tempfile

import gate
import workloads
from workloads import OUT_DIR, REFERENCE_DIR, REFERENCE_SEED, WORKLOADS


def record(workload):
    workloads.use_program_source()
    from sns2d.experiments import run

    configs = workloads.parse_configs(workloads.raw_configs(workload, REFERENCE_SEED))
    OUT_DIR.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR)
    try:
        entries = []
        for path, cfg in zip(workload.configs, configs):
            run_dir = run(cfg, outdir).run_dir
            outputs = gate.read_outputs(run_dir)
            problems = gate.nonfinite(*outputs)
            if outputs[2].get("passed") is not True or problems:
                raise SystemExit(f"{path} at seed {REFERENCE_SEED} is no reference: {problems or 'not passed'}")
            entries.append(gate.reference_entry(run_dir, path))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    # one table row per line keeps the file readable and its diffs small
    runs = []
    for e in entries:
        head = json.dumps({k: e[k] for k in ("config", "summary", "columns")}, sort_keys=True)
        rows = ",\n    ".join(json.dumps(r) for r in e["rows"])
        runs.append(f'{head[:-1]}, "rows": [\n    {rows}\n  ]}}')
    text = f'{{"seed": {REFERENCE_SEED}, "runs": [\n  ' + ",\n  ".join(runs) + "\n]}\n"
    json.loads(text)
    (REFERENCE_DIR / f"{workload.name}.json").write_text(text)


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(WORKLOADS[name])
        print(f"recorded {name}")
