"""Module boundaries: no ``surplus_lab`` module imports another module's private names, no
reference definition of the tests is also defined in the package, and the command line loads
no more of numpy than its commands use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surplus_lab

SRC = Path(surplus_lab.__file__).parent
TESTS = Path(__file__).parent


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every underscore name that ``path`` imports from another module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_no_private_names_cross_modules():
    offenders = {p.name: private_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detector_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .maps import _runs, admissible_pairs\n"
                     "from .local_time import __doc__\n"
                     "def f():\n    from .samplers import _weighted_index\n")
    assert private_imports(probe) == ["maps._runs", "samplers._weighted_index"]


def defined_names(path: Path) -> set[str]:
    """The public names that ``path`` defines at module level."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("reference", ["tree_reference.py", "path_reference.py",
                                       "csv_reference.py", "glue_reference.py"])
def test_reference_definitions_live_only_in_tests(reference):
    # one copy of each concept: what the tests keep as a reference, the package does not define
    package = {p.name: defined_names(p) for p in sorted(SRC.glob("*.py"))}
    ours = defined_names(TESTS / reference)
    assert ours
    assert {name: sorted(ours & found) for name, found in package.items() if ours & found} == {}


def test_detector_sees_definitions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .maps import insert_edges\n"
                     "CAP = 3\nLIMIT: int = 4\n_hidden = 5\n"
                     "class Tree:\n    def height(self):\n        pass\n"
                     "def draw():\n    inner = 1\n"
                     "def _helper():\n    pass\n")
    assert defined_names(probe) == {"CAP", "LIMIT", "Tree", "draw"}


def test_cli_and_selftest_leave_numpy_random_unloaded(tmp_path):
    # loading numpy.random adds several MiB to the resident set; the exact suites draw
    # nothing, so the stream seeding must not load it when the package is imported
    code = ("import sys, surplus_lab.cli as cli; "
            "assert cli.main(['selftest', '--out', sys.argv[1]]) == 0; "
            "assert 'numpy.random' not in sys.modules, 'numpy.random is loaded'")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_range_rows_leaves_numpy_random_unloaded():
    # the exact suites run their cells through the range runner, on two CPUs here; neither
    # the parent nor a worker may load numpy.random for it
    code = ("import os, sys, surplus_lab.samplers as s; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            "items, pids, loaded = s.range_rows(8, lambda a, b: [list(range(a, b)), "
            "[os.getpid()] * (b - a), ['numpy.random' in sys.modules] * (b - a)], 4); "
            "assert items.tolist() == list(range(8)) and len(set(pids.tolist())) == 2; "
            "assert not loaded.any() and 'numpy.random' not in sys.modules, loaded")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
