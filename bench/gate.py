"""Correctness gate applied to the outputs of every timed run.

A run directory written by ``experiments.run`` holds ``results.csv`` and
``summary.json``.  ``check_run`` returns a list of problems; an empty list
means the outputs are correct:

* ``passed`` is true (where the workload's verdict is gated);
* every number in both files is finite.  The raw values are read, because
  Python's ``max()`` silently drops a NaN and ``json`` accepts ``NaN``;
* at the reference seed, every value is within ``REL_TOL`` relative of the
  output recorded at the parent commit (strings and booleans must be equal);
* an ``instanton`` run has converged and its action is within
  ``ACTION_RTOL`` of the reference.  The optimizer draws no random numbers,
  so this holds at every seed.

``ACTION_RTOL`` comes from the measured roundoff sensitivity of the
instanton32 optimizer (NOTES.md): changing the initial amplitude by 1e-12
(3e-12) relative moves the action by 6e-13 (1.8e-12) relative and leaves the
54 iterations unchanged.  The tightest stopping decision (relative drop
9.96e-9 against the 1e-8 rule) flips only when the objective moves by about
4e-11 relative.  1e-10 is about 100 times the roundoff response and below any
change of the optimizer's path.
"""

import csv
import json
import math
import os

REL_TOL = 1e-12
ACTION_RTOL = 1e-10

# A digest of the normalized config, not a result; a new config default
# changes it without changing any output.
_NOT_COMPARED = ("config_hash",)


def read_outputs(run_dir):
    """(columns, rows, summary) of one run directory, values as written."""
    with open(os.path.join(run_dir, "results.csv"), newline="") as fh:
        table = list(csv.reader(fh))
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    return table[0], table[1:], summary


def _number(value):
    """The value as a float if it is numeric, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _leaves(val, f"{path}[{i}]")
    else:
        yield path, obj


def nonfinite(columns, rows, summary):
    problems = []
    for path, val in _leaves(summary):
        x = _number(val) if not isinstance(val, str) else None
        if x is not None and not math.isfinite(x):
            problems.append(f"summary.json {path} = {val!r}")
    for r, row in enumerate(rows):
        for col, cell in zip(columns, row):
            x = _number(cell)
            if x is not None and not math.isfinite(x):
                problems.append(f"results.csv row {r} {col} = {cell!r}")
    return problems


def close(a, b, rel_tol):
    return a == b or abs(a - b) <= rel_tol * max(abs(a), abs(b))


def _same(val, ref, rel_tol):
    x, y = _number(val), _number(ref)
    if x is not None and y is not None:
        return close(x, y, rel_tol)
    return val == ref


def compare(outputs, reference, rel_tol=REL_TOL):
    """Differences between a run's outputs and the recorded reference.

    Every reference value must be present and match; outputs may carry
    extra keys or columns, which are only checked for finiteness.
    """
    columns, rows, summary = outputs
    problems = []
    ref_summary = {k: v for k, v in reference["summary"].items() if k not in _NOT_COMPARED}
    got = dict(_leaves(summary))
    for path, ref in _leaves(ref_summary):
        if path not in got:
            problems.append(f"summary.json {path} missing")
        elif not _same(got[path], ref, rel_tol):
            problems.append(f"summary.json {path} = {got[path]!r}, reference {ref!r}")
    index = {c: i for i, c in enumerate(columns)}
    missing = [c for c in reference["columns"] if c not in index]
    if missing:
        return problems + [f"results.csv columns {missing} missing"]
    if len(rows) != len(reference["rows"]):
        return problems + [
            f"results.csv has {len(rows)} rows, reference {len(reference['rows'])}"
        ]
    for r, (row, ref_row) in enumerate(zip(rows, reference["rows"])):
        for col, ref in zip(reference["columns"], ref_row):
            val = row[index[col]]
            if not _same(val, ref, rel_tol):
                problems.append(f"results.csv row {r} {col} = {val!r}, reference {ref!r}")
    return problems


def check_run(run_dir, reference, at_reference_seed, require_passed=True):
    """Problems with one run's outputs; ``reference`` is its recorded entry."""
    outputs = read_outputs(run_dir)
    summary = outputs[2]
    problems = nonfinite(*outputs)
    if require_passed and summary.get("passed") is not True:
        problems.append(f"passed = {summary.get('passed')!r}")
    if summary.get("kind") == "instanton":
        if summary.get("converged") is not True:
            problems.append("instanton did not converge")
        action, ref_action = _number(summary.get("action")), reference["summary"]["action"]
        if action is None or not close(action, ref_action, ACTION_RTOL):
            problems.append(f"action = {summary.get('action')!r}, reference {ref_action!r}")
    elif at_reference_seed:
        problems += compare(outputs, reference)
    return [f"{summary.get('kind')}: {p}" for p in problems]


def reference_entry(run_dir, config_path):
    """What ``compare`` needs from one run, for bench/reference/<workload>.json."""
    columns, rows, summary = read_outputs(run_dir)
    return {"config": config_path, "summary": summary, "columns": columns, "rows": rows}
