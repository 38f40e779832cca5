"""What the benchmark reads of the package: its traced function names, the
attributes it counts off their results, and the package's re-exports.
bench/run.py --trace 1 wraps every public function of the modules
bench/tracing.py lists, and BENCHMARK.json names per-layer metrics after
them, so a deleted or renamed function or result attribute must fail here
first.  bench/ is read, never imported or changed."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import laakso
from conftest import superlu_factor

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


def _result_reads():
    """{span: {(attribute,) or (field, attribute)}}: what each of
    bench/tracing.py's RESULT_COUNTERS reads off a traced result, read from
    its source.  (field, attribute) is read off each element of the result's
    field, as in a comprehension over `report.rows`."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    counters = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "RESULT_COUNTERS" for t in node.targets)
    )
    reads = {}
    for key, value in zip(counters.keys, counters.values):
        function = functions[value.id]
        _, result = (arg.arg for arg in function.args.args)
        owners = {result: ()}
        for node in ast.walk(function):
            if (
                isinstance(node, ast.comprehension)
                and isinstance(node.iter, ast.Attribute)
                and isinstance(node.iter.value, ast.Name)
                and node.iter.value.id == result
            ):
                owners[node.target.id] = (node.iter.attr,)
        found = reads.setdefault(ast.literal_eval(key), set())
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert node.value.id in owners, f"{value.id} reads {node.value.id}.{node.attr}"
                found.add(owners[node.value.id] + (node.attr,))
    return reads


def test_tracer_reads_exist_on_results():
    """Every attribute bench/tracing.py counts off a result exists on the
    real result of a small call, so renaming one fails here, not only in the
    benchmark's traced run."""
    seq = laakso.parse_sequence("2,3")
    matrix = laakso.discretize(laakso.build_graph(seq, 2), 4)
    results = {
        "graphs.discretize": matrix,
        "solver.lowest_eigenvalues": laakso.lowest_eigenvalues(
            matrix, 4, seed=1, factor=superlu_factor(matrix)
        ),
        "compare.compare_spectra": laakso.compare_spectra(seq, 2, 4, 10, seed=1),
        "spectrum.full_spectrum": laakso.full_spectrum(seq, 100.0),
        "spectrum.level_spectrum": laakso.level_spectrum(seq, 2, 100.0),
    }
    reads = _result_reads()
    assert reads.keys() == results.keys()
    for span, paths in reads.items():
        assert paths, span
        for path in paths:
            owners = [results[span]]
            if len(path) == 2:
                owners = list(getattr(owners[0], path[0]))
                assert owners, f"{span}: {path[0]} is empty"
            for owner in owners:
                assert hasattr(owner, path[-1]), f"{span}: {type(owner).__name__}.{path[-1]}"
