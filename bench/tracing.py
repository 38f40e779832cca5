"""Spans around the calls into laakso's public functions, recorded from outside.

A Tracer wraps every public function of the library modules (plus
``cli.main``) and rebinds the wrapper in every ``laakso`` namespace that
binds the original, so calls made between modules are caught too: wrapping
``heatzeta.heat_trace`` catches the calls made by ``heat_trace_grid``, and
wrapping ``compare.lowest_eigenvalues`` catches the solver call inside
``compare_spectra``.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter

LIBRARY_MODULES = (
    "sequences",
    "spectrum",
    "graphs",
    "solver",
    "compare",
    "heatzeta",
    "special",
    "refdata",
)

# called once per spectrum mode: a span each would cost more than the work
UNTRACED = {"spectrum.eigenvalue_of_key"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    nested: bool  # an enclosing span has the same name (recursion)


def _count_discretize(counts, matrix):
    counts["graphs.dimension"] += matrix.dimension
    counts["graphs.nnz"] += len(matrix.data)


def _count_eigen(counts, result):
    counts["solver.k_converged"] += result.k_converged
    counts["solver.k_requested"] += result.k_requested


def _count_compare(counts, report):
    counts["compare.rows_matched"] += sum(r.multiplicity_match for r in report.rows)
    counts["compare.rows"] += len(report.rows)


def _count_table(counts, table):
    counts["spectrum.entries"] += len(table.entries)


# counts read off results at the layer boundary, keyed by span name
RESULT_COUNTERS = {
    "graphs.discretize": _count_discretize,
    "solver.lowest_eigenvalues": _count_eigen,
    "compare.compare_spectra": _count_compare,
    "spectrum.full_spectrum": _count_table,
    "spectrum.level_spectrum": _count_table,
}


def _public_functions(package):
    """(span name, function) for each traced function."""
    for short in LIBRARY_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for name, obj in vars(module).items():
            span = f"{short}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and span not in UNTRACED
            ):
                yield span, obj
    yield "cli.main", sys.modules[f"{package.__name__}.cli"].main


class Tracer:
    """Records spans and result counts for the calls made while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.run_id = ""
        self._stack: list[Span] = []
        self._wrappers = {
            id(fn): (fn, self._wrap(name, fn))
            for name, fn in _public_functions(package)
        }
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=stack[-1].id if stack else None,
                run_id=self.run_id,
                nested=any(s.name == name for s in stack),
            )
            self.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts.setdefault(self.run_id, Counter()), result)
            return result

        return traced

    def _namespaces(self):
        prefix = self.package.__name__
        return [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]

    def install(self, run_id: str) -> None:
        self.run_id = run_id
        for module in self._namespaces():
            for name, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    self._rebound.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in self._rebound:
            setattr(module, name, obj)
        self._rebound.clear()

    def run(self, run_id: str, fn, *args):
        """Call fn(*args) with every wrapper bound, as one traced run."""
        self.install(run_id)
        try:
            return fn(*args)
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def wrapper_cost(package) -> float:
    """Seconds a span adds to one call: a no-op called through a Tracer
    wrapper against the same no-op called bare, median of 5 timings of
    20,000 calls each, with no enclosing span."""
    calls, repeats = 20000, 5

    def noop():
        return None

    tracer = Tracer(package)
    traced = tracer._wrap("trace.noop", noop)
    costs = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - start - bare) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one run: <span>.{s,self_s,calls} plus counts.

    ``.s`` sums only the outermost span of each name, so recursion is not
    counted twice; ``.self_s`` sums every span's own time.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        for key, value in (
            ("s", 0.0 if span.nested else span.end - span.start),
            ("self_s", own[span.id]),
            ("calls", 1),
        ):
            name = f"{span.name}.{key}"
            out[name] = out.get(name, 0) + value
    out.update(counts)
    if counts.get("solver.k_requested"):
        out["solver.converged_ratio"] = counts["solver.k_converged"] / counts["solver.k_requested"]
    if counts.get("compare.rows"):
        out["compare.match_ratio"] = counts["compare.rows_matched"] / counts["compare.rows"]
    return out


def median_metrics(tracer: Tracer, run_ids: list[str]) -> dict[str, float]:
    """Median over runs of each layer metric that some run recorded."""
    per_run = []
    for run_id in run_ids:
        spans = [s for s in tracer.spans if s.run_id == run_id]
        per_run.append(layer_metrics(spans, dict(tracer.counts.get(run_id, {}))))
    names = set().union(*per_run) if per_run else set()
    return {
        name: statistics.median(m.get(name, 0) for m in per_run) for name in names
    }
