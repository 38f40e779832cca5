"""What the benchmark reads of the package: its traced function names and
the package's re-exports.  bench/run.py --trace 1 wraps every public
function of the modules bench/tracing.py lists, and BENCHMARK.json names
per-layer metrics after them, so a deleted or renamed function must fail
here first.  bench/ is read, never imported or changed."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import laakso

ROOT = Path(__file__).resolve().parents[1]
_STATS = ("s", "calls", "self_s")


def _library_modules():
    """LIBRARY_MODULES of bench/tracing.py, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LIBRARY_MODULES"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LIBRARY_MODULES")


def test_traced_metrics_name_public_functions():
    """<module>.<function>.<s|calls|self_s> names a public function defined
    in laakso.<module> for every module the benchmark traces."""
    modules = _library_modules()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    checked = []
    for metric in declared:
        module, _, rest = metric["name"].partition(".")
        function, _, stat = rest.rpartition(".")
        if module not in modules or not function or stat not in _STATS:
            continue
        obj = getattr(importlib.import_module(f"laakso.{module}"), function, None)
        assert not function.startswith("_"), metric["name"]
        assert inspect.isfunction(obj), metric["name"]
        assert obj.__module__ == f"laakso.{module}", metric["name"]
        checked.append(metric["name"])
    assert "spectrum.full_spectrum.s" in checked


def test_all_lists_the_public_re_exports():
    exported = {
        name
        for name, obj in vars(laakso).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert len(set(laakso.__all__)) == len(laakso.__all__)
    assert set(laakso.__all__) == exported
