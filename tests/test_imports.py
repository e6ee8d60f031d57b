"""Module boundaries: no ``surplus_lab`` module imports another module's private names, and
the command line loads no more of numpy than its commands use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import surplus_lab

SRC = Path(surplus_lab.__file__).parent


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
