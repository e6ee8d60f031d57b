"""Every per-layer function name of the benchmark names a public function of the package.

``perfbench/run.py`` raises when a per-layer name no longer matches a traced function, so a
renamed or removed function would otherwise show only in a traced benchmark round.  The
names are read from ``BENCHMARK.json`` and from ``FUNCTIONALS`` in ``perfbench/run.py``,
whose functions run.py sums under ``local_time.functionals``.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

import surplus_lab

SRC = Path(surplus_lab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
AGGREGATE = "local_time.functionals"


def module_constant(path: Path, name: str):
    """The literal value that ``path`` assigns to ``name`` at module level."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path} assigns no {name}")


def function_labels() -> list[str]:
    """Each ``module.function`` or ``module.Class.method`` that a per-layer name times."""
    labels = set()
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        label, _, key = metric["name"].rpartition(".")
        if key not in ("self_s", "calls") or label in MODULES:
            continue  # a counter, an ESS ratio, a setup time or a module's total
        if label == AGGREGATE:
            labels.update(module_constant(ROOT / "perfbench" / "run.py", "FUNCTIONALS"))
        else:
            labels.add(label)
    return sorted(labels)


def public_function(label: str):
    """The public function or method that ``label`` names, defined in its module, or None."""
    short, *path = label.split(".")
    if short not in MODULES or not path or any(part.startswith("_") for part in path):
        return None
    module = importlib.import_module(f"surplus_lab.{short}")
    owner, *rest = path
    obj = vars(module).get(owner)
    if rest:  # a method: its class must be defined in the module
        if not (inspect.isclass(obj) and obj.__module__ == module.__name__) or len(rest) > 1:
            return None
        obj = vars(obj).get(rest[0])
        obj = obj.__func__ if isinstance(obj, classmethod) else obj
    elif getattr(obj, "__module__", None) != module.__name__:
        return None
    return obj if inspect.isfunction(obj) else None


def test_some_labels_are_read():
    labels = function_labels()
    assert "estimators.radius_laws" in labels and "samplers.TiltSample.weight" in labels
    assert "local_time.inverse_height_functional" in labels


def test_every_per_layer_name_resolves():
    assert [label for label in function_labels() if public_function(label) is None] == []


@pytest.mark.parametrize("label", ["estimators._route_scale", "estimators.RngStream",
                                   "samplers.TiltSample._cache", "estimators.nothing",
                                   "samplers.WeightedEnsemble", "cli"])
def test_a_private_imported_missing_or_non_function_name_does_not_resolve(label):
    assert public_function(label) is None
