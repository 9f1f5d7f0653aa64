"""The names the benchmark reaches in sns2d must exist.

``bench/tracer.py`` spans the functions in its ``SPANNED`` table by name
and records a missing one without failing, which would leave that layer's
metrics at zero; the other bench scripts import from sns2d.  Both are read
here through ``ast``, without importing the bench modules.
"""

import ast
import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def spanned():
    """The (module, attr) pairs of bench/tracer.py's SPANNED table."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SPANNED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no SPANNED table")


def bench_imports():
    """(file, module, name) for each ``from sns2d... import name`` in bench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sns2d":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def unresolved(pairs):
    """The dotted names of pairs that the tracer could not wrap: each must be
    defined in its module, or for a method, on the class itself."""
    missing = []
    for module, attr in pairs:
        owner = importlib.import_module(module)
        *outer, last = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if last not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{attr}")
    return missing


def test_every_spanned_name_resolves():
    pairs = spanned()
    assert len(pairs) >= 15
    assert unresolved(pairs) == []


def test_the_resolver_flags_a_missing_name():
    assert unresolved([
        ("sns2d.dynamics", "solve_stochastic"),
        ("sns2d.dynamics", "Trajectory.sup_norm"),
        ("sns2d.fields", "Missing.to_grid"),
        ("sns2d.dynamics", "Trajectory.sup_distance"),
    ]) == [
        "sns2d.dynamics.solve_stochastic",
        "sns2d.dynamics.Trajectory.sup_norm",
        "sns2d.fields.Missing.to_grid",
    ]


def test_every_bench_import_from_sns2d_resolves():
    found = bench_imports()
    assert {f for f, _, _ in found} >= {"layers.py", "setup_probe.py", "workloads.py"}
    missing = [
        f"{f}: from {module} import {name}"
        for f, module, name in found
        if unresolved([(module, name)])
    ]
    assert missing == []
