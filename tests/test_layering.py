"""The package's import graph is acyclic and layered.

Each module of ``src/sns2d`` imports its siblings at the top of the module
only, and only from below it in ``LAYERS``.  The package root re-exports
the library (``montecarlo`` and below) and ``experiments`` reads its
``__version__``, so it sits between the two.  Inside a function only the
deliberate lazy imports of ``LAZY`` may appear.
"""

import ast
import pathlib

import sns2d

LAYERS = (
    ("grid",), ("noise",), ("fields",), ("spectral", "nonlinear"), ("dynamics",), ("ldp",),
    ("montecarlo",), ("__init__",), ("experiments",), ("cli",),
)
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
# scipy.integrate for the renorm and lattice-sum tails, ctypes for
# malloc_trim, the pools of the harness, the march's draw-ahead queue, and
# the binding's version probe
LAZY = ("scipy.integrate", "ctypes", "concurrent.futures", "queue", "importlib.metadata")


def _siblings(node):
    """The sibling modules an import node reads, by name; the package root
    is ``__init__``."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] != "sns2d":
                return []
            return [parts[1] if len(parts) > 1 else "__init__"]
        if node.module:
            return [node.module.split(".")[0]]
        return [alias.name if alias.name in RANK else "__init__" for alias in node.names]
    names = [alias.name.split(".") for alias in node.names]
    return [parts[1] if len(parts) > 1 else "__init__" for parts in names if parts[0] == "sns2d"]


def _lazy_allowed(node):
    """Whether an import inside a function reads only modules of LAZY."""
    if isinstance(node, ast.ImportFrom):
        modules = [node.module or ""] if node.level == 0 else [""]
    else:
        modules = [alias.name for alias in node.names]
    return all(any(m == lazy or m.startswith(lazy + ".") for lazy in LAZY) for m in modules)


def layering_offences(sources):
    """For {module name: source}: each import inside a function that is not
    one of LAZY, and each top-level sibling import that does not point down
    LAYERS."""
    offences = []
    imports = (ast.Import, ast.ImportFrom)
    for name, text in sources.items():
        tree = ast.parse(text)
        funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        # a set: a nested function's imports are walked from each enclosing one
        lazy = {
            node for func in ast.walk(tree) if isinstance(func, funcs)
            for node in ast.walk(func) if isinstance(node, imports)
        }
        for node in sorted(lazy, key=lambda node: node.lineno):
            if not _lazy_allowed(node):
                offences.append(f"{name}:{node.lineno} lazy {ast.unparse(node)}")
        for node in tree.body:
            if isinstance(node, imports):
                for target in _siblings(node):
                    if RANK.get(target, len(LAYERS)) >= RANK[name]:
                        offences.append(f"{name}:{node.lineno} upward {ast.unparse(node)}")
    return offences


def test_the_package_imports_only_downward_and_at_the_top():
    src = pathlib.Path(sns2d.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(src.glob("*.py"))}
    assert set(sources) == set(RANK)
    assert layering_offences(sources) == []


def test_noise_imports_only_the_grid_of_the_package():
    src = pathlib.Path(sns2d.__file__).parent
    tree = ast.parse((src / "noise.py").read_text())
    found = [
        target for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for target in _siblings(node)
    ]
    assert found == ["grid"]


def test_layering_guard_flags_a_lazy_and_an_upward_import():
    planted = {
        "fields": (
            "from .grid import grid_for\n"
            "def taylor_green(cutoff):\n"
            "    from .spectral import leray_project\n"
            "    def inner():\n"
            "        from .noise import RngStream\n"
            "    return leray_project(None, cutoff)\n"
        ),
        "noise": (
            "from .fields import SpectralField\n"
            "import math\n"
            "def lattice_power_sum():\n"
            "    from scipy.integrate import quad\n"
            "    import ctypes\n"
            "    from concurrent.futures import ThreadPoolExecutor\n"
            "    from importlib.metadata import version\n"
            "    import scipy.stats\n"
        ),
        "experiments": "from . import __version__\nfrom .montecarlo import fit_loglog\n",
        "__init__": "from .experiments import run\n",
    }
    assert layering_offences(planted) == [
        "fields:3 lazy from .spectral import leray_project",
        "fields:5 lazy from .noise import RngStream",
        "noise:8 lazy import scipy.stats",
        "noise:1 upward from .fields import SpectralField",
        "__init__:1 upward from .experiments import run",
    ]
