"""The benchmark's workloads: seeded inputs, fixed task lists, output checks.

All load comes from one closed-loop Client: each task starts only after the
previous one has returned.  A task's latency covers the library call alone;
its output check runs after the clock stops, so checks never count as work.

Why these workloads:

* mesh -- ``compare_spectra`` on a large coarse graph and two small, finely
  meshed ones: ``graphs`` and ``solver`` do almost all the work, ``heatzeta``
  none.  Level 6 is left out: one pass would outlast a run.
* analytic -- exact tables, heat traces, residue asymptotes and both zeta
  routes: ``spectrum``, ``heatzeta`` and ``special`` do the work, scipy is
  never called.
* cli -- the nine README commands, each in a fresh ``python -m laakso``
  process: the same code on small, cold, one-shot inputs, where the package
  import dominates, so work moved into import or precomputation shows here.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import math
import os
import random
import shlex
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CheckFailed(Exception):
    """A task returned, but its output is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Client:
    """One caller that waits for each result before sending the next task."""

    def __init__(self):
        self.latencies: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0

    def call(self, name, fn, *args, check=None):
        """Time fn(*args), then check its result; a failure is counted, not raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as err:  # a failing task is counted and the run goes on
            result, failure = None, err
        else:
            failure = None
        self.latencies.append((name, perf_counter() - start))
        if failure is None and check is not None:
            try:
                check(result)
            except Exception as err:
                failure = err
        if failure is not None:
            self.failed += 1
            print(f"task {name} failed: {type(failure).__name__}: {failure}", file=sys.stderr)
            return None
        return result


class Mesh:
    """Numeric-vs-analytic comparisons; the seed is the solver's seed."""

    # (sequence, level n, interior points per edge m, eigenvalue count k);
    # dimensions 19,632 / 3,516 / 3,612, the last with loop shapes
    CASES = (("2,3", 5, 8, 60), ("2,3", 3, 36, 60), ("3,4", 3, 12, 60))
    SMOKE_CASES = (("2,3", 2, 8, 20), ("3,4", 2, 4, 20))  # dense path
    # dimension 2,178: above the dense limit, so it warms the sparse LU path
    WARM_UP = ("2,3", 2, 90, 20)

    def __init__(self, laakso, seed: int, smoke: bool, spawner):
        self.laakso = laakso
        self.seed = seed
        parse = laakso.parse_sequence
        self.cases = [(parse(s), n, m, k) for s, n, m, k in (self.SMOKE_CASES if smoke else self.CASES)]
        s, n, m, k = self.SMOKE_CASES[0] if smoke else self.WARM_UP
        self.warm_up_case = (parse(s), n, m, k)
        # command_p50_s follows the first, largest case: pooling cases of
        # different sizes would always report the middle one
        self.latency_task = self._task_name(*self.cases[0])

    @staticmethod
    def _task_name(seq, n, m, k):
        return f"compare {seq.spec_string()} n={n} m={m}"

    def _compare(self, seq, n, m, k):
        return self.laakso.compare_spectra(seq, n, m, k, seed=self.seed)

    @staticmethod
    def _check(report):
        check(report.all_multiplicities_match, "a cluster multiplicity differs from the exact table")
        check(report.compared_converged, "a compared eigenvalue missed its residual bound")

    def warm_up(self):
        self._check(self._compare(*self.warm_up_case))

    def run_pass(self, client: Client):
        for seq, n, m, k in self.cases:
            client.call(self._task_name(seq, n, m, k), self._compare, seq, n, m, k, check=self._check)

    in_process_pass = run_pass


class Analytic:
    """Exact tables, heat traces, residue asymptotes and both zeta routes.

    The seed shifts the log-t grid by a fraction of one step and picks the
    counting-function points.
    """

    latency_task = None  # command_p50_s pools every call
    TOL = 1e-10  # heat-trace certified tail bound
    ZETA_RTOL = 1e-9  # closed vs direct zeta
    # asymptote vs trace; five residue terms leave ~1e-5 for 3,4 at t ~ 1e-5
    ASYMPTOTE_RTOL = {"2": 1e-6, "2,3": 1e-6, "3,4": 1e-4}

    def __init__(self, laakso, seed: int, smoke: bool, spawner):
        self.laakso = laakso
        rng = random.Random(seed)
        parse = laakso.parse_sequence
        self.seqs = {spec: parse(spec) for spec in ("2", "2,3", "3,4")}
        self.lambda_max = 1e5 if smoke else 1e10
        self.first_count = 50 if smoke else 2000
        self.lambdas = sorted(10.0 ** rng.uniform(1.0, math.log10(self.lambda_max)) for _ in range(3 if smoke else 20))
        points = 5 if smoke else 81
        lo, hi = math.log(1e-9), math.log(1e-5)
        step = (hi - lo) / (points - 1)
        shift = rng.random()
        self.ts = [math.exp(lo + (i + shift) * step) for i in range(points)]
        self.deep_t = 1e-9 if smoke else 1e-13
        self.zeta_points = []
        for spec in ("2", "2,3"):
            half = laakso.dimensions(self.seqs[spec]).spectral / 2.0
            near = () if smoke else (half + 1e-2, half + 3e-3)
            for s in (2.0, 1.5 + 2j, 3.0, *near):
                self.zeta_points.append((spec, s))

    def warm_up(self):
        lk = self.laakso
        seq = self.seqs["2,3"]
        lk.counting_function(lk.full_spectrum(seq, 1e3), 1e2)
        lk.first_distinct(seq, 5)
        lk.heat_trace_grid(seq, self.ts[-2:], self.TOL)
        lk.heat_trace_asymptote(seq, self.ts[-1])
        lk.spectral_zeta_closed(seq, 3.0)
        lk.spectral_zeta_direct(seq, 3.0)

    def run_pass(self, client: Client):
        lk = self.laakso
        seq23 = self.seqs["2,3"]
        table = client.call("full_spectrum", lk.full_spectrum, seq23, self.lambda_max, check=_check_table)
        client.call(
            "counting_function",
            lambda: [lk.counting_function(table, lam) for lam in self.lambdas],
            check=lambda counts: _check_counts(table, self.lambdas, counts),
        )
        client.call(
            f"first_distinct {self.first_count}",
            lk.first_distinct, seq23, self.first_count,
            check=lambda first: check(
                _keys(first.entries) == _keys(table.entries[: self.first_count]),
                "first_distinct disagrees with the full table",
            ),
        )
        client.call("first_distinct 20", lk.first_distinct, seq23, 20, check=self._check_table1)
        traces = {}
        for spec, seq in self.seqs.items():
            traces[spec] = client.call(
                f"heat_trace_grid {spec}", lk.heat_trace_grid, seq, self.ts, self.TOL,
                check=self._check_trace,
            )
        client.call(
            f"heat_trace 2 t={self.deep_t:g}", lk.heat_trace, self.seqs["2"], self.deep_t, self.TOL,
            check=lambda sample: self._check_trace([sample]),
        )
        for spec, seq in self.seqs.items():
            client.call(
                f"heat_trace_asymptote {spec}",
                lambda seq=seq: [lk.heat_trace_asymptote(seq, t) for t in self.ts],
                check=lambda values, spec=spec: _check_close(
                    values, [s.z for s in traces[spec]], self.ASYMPTOTE_RTOL[spec],
                    f"asymptote vs trace for {spec}",
                ),
            )
        for spec, s in self.zeta_points:
            seq = self.seqs[spec]
            client.call(
                f"zeta {spec} s={s:g}",
                lambda seq=seq, s=s: (lk.spectral_zeta_closed(seq, s), lk.spectral_zeta_direct(seq, s)),
                check=lambda pair, spec=spec, s=s: _check_close(
                    [pair[1]], [pair[0]], self.ZETA_RTOL, f"direct vs closed zeta for {spec} at s={s}"
                ),
            )

    in_process_pass = run_pass

    def _check_table1(self, table):
        reference = self.laakso.refdata.TABLE1
        check(len(table.entries) == len(reference), "wrong row count against TABLE1")
        for e, (lam, mult) in zip(table.entries, reference):
            check(abs(e.value - lam) <= 0.005 and e.multiplicity == mult, f"TABLE1 row {lam} differs")

    def _check_trace(self, samples):
        check(all(s.tail_bound <= self.TOL for s in samples), "a heat sample exceeds its tail tolerance")
        zs = [s.z for s in samples]
        check(all(a > b > 0 for a, b in zip(zs, zs[1:])), "the heat trace is not decreasing in t")


def _keys(entries):
    return [(e.m, e.multiplicity) for e in entries]


def _check_table(table):
    check(len(table.entries) > 0, "empty spectrum table")
    check(all(e.multiplicity > 0 for e in table.entries), "a non-positive multiplicity")
    check(all(a.m < b.m for a, b in zip(table.entries, table.entries[1:])), "keys not strictly increasing")


def _check_counts(table, lambdas, counts):
    values = [e.value for e in table.entries]
    totals = list(itertools.accumulate(e.multiplicity for e in table.entries))
    for lam, got in zip(lambdas, counts):
        i = bisect.bisect_right(values, lam)
        check(got == (totals[i - 1] if i else 0), f"N({lam:g}) = {got} disagrees with the summed multiplicities")


def _check_close(values, reference, rtol, what):
    check(len(values) == len(reference), f"{what}: length differs")
    for a, b in zip(values, reference):
        check(abs(a - b) <= rtol * abs(b), f"{what}: relative gap {abs(a - b) / abs(b):.3e} > {rtol:g}")


# README commands, named for the metrics; --seed is appended to each
README_COMMANDS = (
    ("spectrum_table1", "spectrum -j 2,3 --count 20 --expect table1"),
    ("spectrum_lambda", "spectrum -j 2 --lambda-max 500"),
    ("spectrum_level", "spectrum -j 2,3 --level-max 3 --lambda-max 2000 --format csv"),
    ("compare", "compare -j 2,3 -n 3 -m 36 -k 40"),
    ("dims", "dims -j 2,3"),
    ("heat_fit", "heat -j 2 --t 1e-9:1e-5:40log --fit-ds"),
    ("heat_asymptotic", "heat -j 2,3 --t 1e-9:1e-7:20log --asymptotic"),
    ("zeta", "zeta -j 2 --s 2 --s 1.5 --s 3 --mode both"),
    ("poles", "poles -j 2 -m -3:3"),
)
SMOKE_OVERRIDES = {"compare": "compare -j 2,3 -n 2 -m 8 -k 20"}


class Cli:
    """The README commands, one fresh ``python -m laakso`` process each.

    A command passes when it exits 0 and its stdout is byte-identical to the
    same command's stdout in the run's first pass.
    """

    latency_task = None  # command_p50_s pools every command

    def __init__(self, laakso, seed: int, smoke: bool, spawner):
        self.laakso = laakso
        self.spawner = spawner
        self.commands = [
            (name, shlex.split(SMOKE_OVERRIDES.get(name, text) if smoke else text) + ["--seed", str(seed)])
            for name, text in README_COMMANDS
        ]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.reference: dict[str, bytes] = {}
        self.rss_mb: dict[str, list[float]] = {name: [] for name, _ in self.commands}

    def _spawn(self, argv):
        return self.spawner.run([sys.executable, "-m", "laakso", *argv], env=self.env, cwd=ROOT)

    def _check_output(self, name, code, stdout, stderr):
        check(code == 0, f"{name} exited {code}: {stderr.strip()[-300:]}")
        expected = self.reference.setdefault(name, stdout)
        check(stdout == expected, f"{name} stdout differs from the first pass")

    def warm_up(self):
        code, _, stderr, _ = self._spawn(["dims", "-j", "2"])
        check(code == 0, f"warm-up dims exited {code}: {stderr.strip()[-300:]}")

    def _subprocess_check(self, name):
        def check_result(result):
            code, stdout, stderr, rss = result
            self.rss_mb[name].append(rss)
            self._check_output(name, code, stdout, stderr)
        return check_result

    def run_pass(self, client: Client):
        for name, argv in self.commands:
            client.call(name, self._spawn, argv, check=self._subprocess_check(name))

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.laakso.cli.main(argv)
        return code, out.getvalue().encode(), err.getvalue()

    def in_process_pass(self, client: Client):
        """The same commands through ``laakso.cli.main`` in this process."""
        for name, argv in self.commands:
            client.call(
                f"{name} in-process", self._main, argv,
                check=lambda result, name=name: self._check_output(name, *result),
            )


WORKLOADS = {"mesh": Mesh, "analytic": Analytic, "cli": Cli}
