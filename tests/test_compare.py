"""End-to-end sweeps: per-key mesh spectra against the exact tables."""

import math

import numpy as np
import pytest

import laakso.compare
from laakso import (
    build_graph,
    compare_spectra,
    counting_function,
    discretize,
    level_info,
    level_spectrum,
    mesh_spacing,
    parse_sequence,
    trust_cutoff,
)
from laakso.errors import FactorizationError
from conftest import superlu_factor


@pytest.mark.parametrize("spec", ["2", "3", "2,3", "3,2"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_every_trusted_cluster_matches(spec, level):
    """All clusters below the trust cutoff reproduce the exact table."""
    seq = parse_sequence(spec)
    mesh = 12
    graph = build_graph(seq, level)
    cutoff = (0.1 / mesh_spacing(graph, mesh)) ** 2  # fixes k and the row count
    table = level_spectrum(seq, level, cutoff)
    k = counting_function(table, cutoff) + 6
    k = min(k, discretize(graph, mesh).dimension - 1)
    report = compare_spectra(seq, level, mesh, k)
    assert len(report.rows) >= len(table.entries) - 1
    for row in report.rows:
        assert row.multiplicity_match, (spec, level, row)
        if row.analytic_value > 0:
            assert row.relative_error <= 0.005


@pytest.mark.parametrize("spec", ["4", "2,4"])
def test_loop_heavy_constructions(spec, monkeypatch):
    """j = 4 steps put two loops on every parent cell; the pipeline must
    still reproduce the merged table exactly, and SuperLU on the assembled
    matrix in place of the chain factor gives the same keys and copies."""
    seq = parse_sequence(spec)
    mesh = 20  # cutoff must clear the level-2 onset pi^2 I_2^2 / 4
    graph = build_graph(seq, 2)
    cutoff = (0.1 / mesh_spacing(graph, mesh)) ** 2  # fixes k
    table = level_spectrum(seq, 2, cutoff)
    k = counting_function(table, cutoff) + 6
    k = min(k, discretize(graph, mesh).dimension - 1)
    report = compare_spectra(seq, 2, mesh, k)
    assert report.all_multiplicities_match
    assert report.max_relative_error <= 0.005
    assert len(report.rows) >= 6
    monkeypatch.setattr(
        laakso.compare, "chain_factor", lambda graph, m: superlu_factor(discretize(graph, m))
    )
    superlu = compare_spectra(seq, 2, mesh, k)

    def keys(report):
        return [(r.analytic_value, r.numeric_multiplicity) for r in report.rows]

    assert keys(superlu) == keys(report)
    assert [n for _, n in superlu.clusters] == [n for _, n in report.clusters]


def test_one_solver_call_on_the_discretized_matrix(monkeypatch):
    """compare_spectra reaches the solver once, by its module-level name and
    with the discretize matrix, so a wrapper bound to that name (as a
    profiler's span would be) sees every mesh solve.  On the level-5
    benchmark mesh that matrix is the sector's, F_3 at m = 53."""
    calls = []
    solve = laakso.compare.lowest_eigenvalues

    def spy(matrix, *args, **kwargs):
        calls.append(matrix)
        return solve(matrix, *args, **kwargs)

    monkeypatch.setattr(laakso.compare, "lowest_eigenvalues", spy)
    seq = parse_sequence("2,3")
    for (level, m, k, seed), (solved, solved_m) in [
        ((2, 4, 20, 0), (2, 4)),
        ((5, 8, 60, 31), (3, 53)),
    ]:
        calls.clear()
        report = compare_spectra(seq, level, m, k, seed=seed)
        assert len(calls) == 1
        expected = discretize(build_graph(seq, solved), solved_m)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(calls[0], field), getattr(expected, field))
        assert report.solved_level == solved
    assert report.certificate == 59  # the copies below key 24, the top returned one
    assert report.matrix_dimension == 19_632


def _solved_dimensions(monkeypatch):
    """The dimension of each matrix compare hands the solver, in order."""
    dims, solve = [], laakso.compare.lowest_eigenvalues

    def spy(matrix, *args, **kwargs):
        dims.append(matrix.dimension)
        return solve(matrix, *args, **kwargs)

    monkeypatch.setattr(laakso.compare, "lowest_eigenvalues", spy)
    return dims


def _unreduced(monkeypatch, seq, level, m, k, seed):
    """compare_spectra's report when it solves F_level itself: its table with
    every contribution relabelled to level `level`, so the walk finds no
    coarser sector.  The rows read only keys and multiplicities."""

    def at_level(seq, n, lambda_max):
        table = level_spectrum(seq, n, lambda_max)
        entries = tuple(
            e._replace(contributions=tuple(c._replace(level=n) for c in e.contributions))
            for e in table.entries
        )
        return table._replace(entries=entries)

    with monkeypatch.context() as patch:
        patch.setattr(laakso.compare, "level_spectrum", at_level)
        return compare_spectra(seq, level, m, k, seed=seed)


def _one_too_high(count):
    return lambda *args: count(*args) + 1


def _not_formed(count):
    def refuse(*args):
        raise FactorizationError("a pivot is too small to sign")

    return refuse


@pytest.mark.parametrize(
    "stub, spec, level, m, k, seed, dims",
    [
        pytest.param(_one_too_high, "2,3", 5, 8, 60, 31, [5_148, 19_632], id="one-too-high"),
        pytest.param(_not_formed, "2", 3, 2, 6, 1, [94, 172], id="not-formed"),
    ],
)
def test_uncertified_sector_solve_falls_back_to_the_full_mesh(
    monkeypatch, stub, spec, level, m, k, seed, dims
):
    """A count that differs from the sector's values below the top key, or
    that cannot be formed, certifies nothing: compare solves F_level after
    all, and reports as an unreduced solve."""
    seq = parse_sequence(spec)
    monkeypatch.setattr(laakso.compare, "key_count", stub(laakso.compare.key_count))
    solved = _solved_dimensions(monkeypatch)
    report = compare_spectra(seq, level, m, k, seed=seed)
    assert solved == dims
    assert report == _unreduced(monkeypatch, seq, level, m, k, seed)
    assert (report.solved_level, report.certificate) == (level, None)
    assert report.matrix_dimension == dims[-1]
    assert report.all_multiplicities_match and report.k_converged == k


class _Sized(Exception):
    """Raised by the solver spy once it has the matrix dimension."""


@pytest.mark.parametrize("spec", ["2", "3", "7", "2,3", "3,4", "2,5", "2,3,4", "seq:3,2,2,5"])
def test_sector_is_the_coarsest_level_below_the_kth_key(monkeypatch, spec):
    """compare solves F_r at m_r = (m + 1) I_n / I_r - 1, r the largest level
    with I_r at most the key of the k-th copy, or n when the trust cutoff
    stops the table first."""
    dims = []

    def spy(matrix, *args, **kwargs):
        dims.append(matrix.dimension)
        raise _Sized

    monkeypatch.setattr(laakso.compare, "lowest_eigenvalues", spy)
    seq = parse_sequence(spec)
    for n in range(5):
        info = level_info(seq, n)
        for m in (1, 3, 8):
            points = info.nodes + info.cells * m
            if points > 2**17:
                continue
            table = level_spectrum(seq, n, trust_cutoff(build_graph(seq, n), m)).entries
            running = np.cumsum([e.multiplicity for e in table])
            for k in (2, 6, 20, 60):
                reached = np.flatnonzero(running >= min(k, points - 1))
                r = n
                if len(reached):
                    kth_key = table[reached[0]].m
                    r = max(s for s in range(n + 1) if seq.scale(s) <= kth_key)
                sector = level_info(seq, r)
                m_r = (m + 1) * info.scale // sector.scale - 1
                dims.clear()
                with pytest.raises(_Sized):
                    compare_spectra(seq, n, m, k)
                assert dims == [sector.nodes + sector.cells * m_r], (n, m, k)


def test_deeper_level_at_scale():
    """A level-4 comparison exercises the block solver well above the
    dense limit with multiplicities in the tens."""
    seq = parse_sequence("2,3")
    report = compare_spectra(seq, 4, 10, 46)
    assert report.matrix_dimension > 2000
    assert len(report.rows) >= 7
    assert report.all_multiplicities_match
    top = [r.analytic_multiplicity for r in report.rows[:7]]
    assert top == [1, 3, 1, 8, 1, 3, 26]
    assert report.max_relative_error <= 0.005


@pytest.mark.parametrize("spec", ["2", "3", "2,3", "3,4", "2,5"])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_mapped_values_are_exact(spec, level):
    """Mapped back through the inverse dispersion relation, coarse-mesh
    eigenvalues land on the continuum keys to solver accuracy, and the
    rows are exactly the keys below the top returned one."""
    report = compare_spectra(parse_sequence(spec), level, 3, 40)
    assert report.compared_converged
    assert report.all_multiplicities_match
    assert report.max_relative_error <= 1e-8
    below = [v for v, _ in report.clusters[:-1] if v <= report.trust_cutoff]
    assert [r.numeric_value for r in report.rows] == below


def test_block_covers_the_copies_the_k_lowest_need():
    """Key 20 of 2,5 at level 3 has 42 copies, of which the 60 lowest take
    only some; the block must still hold every copy of each lower key."""
    report = compare_spectra(parse_sequence("2,5"), 3, 6, 60)
    keys = [round(2.0 * math.sqrt(r.analytic_value) / math.pi) for r in report.rows]
    assert keys == list(range(0, 20, 2))
    assert report.all_multiplicities_match
    assert report.k_converged == 60


def _reported_as_the_cutoff_table(monkeypatch, seq, level, m, k, seed, solve):
    """compare_spectra's report, checked against the one a table out to the
    trust cutoff gives, and the number of tables it built.  Both reports read
    one call of `solve` per block width."""
    solves, built = {}, []

    def solve_once(matrix, k, **kwargs):
        width = kwargs["block_size"]
        if width not in solves:
            solves[width] = solve(matrix, k, **kwargs)
        return solves[width]

    def spy(seq, n, lambda_max):
        built.append(lambda_max)
        return level_spectrum(seq, n, lambda_max)

    monkeypatch.setattr(laakso.compare, "lowest_eigenvalues", solve_once)
    monkeypatch.setattr(laakso.compare, "level_spectrum", spy)
    report = compare_spectra(seq, level, m, k, seed=seed)
    cutoff = trust_cutoff(build_graph(seq, level), m)
    monkeypatch.setattr(
        laakso.compare, "level_spectrum", lambda seq, n, lambda_max: level_spectrum(seq, n, cutoff)
    )
    assert compare_spectra(seq, level, m, k, seed=seed) == report
    return report, len(built)


@pytest.mark.parametrize(
    "spec, level, m, k, seed, tables",
    [
        ("2,3", 5, 8, 60, 31, 1),  # the mesh benchmark's three cases
        ("2,3", 3, 36, 60, 31, 1),
        ("3,4", 3, 12, 60, 31, 1),
        # the README compare, run without --seed: seed 0, None in the id
        pytest.param("2,3", 3, 36, 40, 0, 1, id="2,3-3-36-40-None-1"),
    ],
)
def test_first_k_table_reports_as_the_cutoff_table(monkeypatch, spec, level, m, k, seed, tables):
    """The analytic table stops at the key bound of the first k copies, and
    the report is the one a table out to the trust cutoff gives."""
    seq, solve = parse_sequence(spec), laakso.compare.lowest_eigenvalues
    _, built = _reported_as_the_cutoff_table(monkeypatch, seq, level, m, k, seed, solve)
    assert built == tables


def test_missed_copies_extend_the_table_to_the_top_returned_key(monkeypatch):
    """A solve that misses the copy of pi^2 on the interval returns keys 0,
    4, 6 and 8 for k = 4, past the first-k key bound 6: compare builds a
    second table out to key 8, reports key 2 as a mismatched row, and the
    report is still the one a table out to the trust cutoff gives."""
    solve = laakso.compare.lowest_eigenvalues

    def drop_second(matrix, k, **kwargs):
        result = solve(matrix, k + 1, **kwargs)
        kept = np.arange(k + 1) != 1
        return result._replace(
            values=result.values[kept],
            residual_norms=result.residual_norms[kept],
            k_requested=k,
            k_converged=k,
        )

    report, built = _reported_as_the_cutoff_table(
        monkeypatch, parse_sequence("2"), 0, 100, 4, 1, drop_second
    )
    assert built == 2
    assert [(row.analytic_multiplicity, row.numeric_multiplicity) for row in report.rows] == [
        (1, 1),
        (1, 0),
        (1, 1),
        (1, 1),
    ]


def test_fine_level_zero_mesh_builds_at_most_k_entries(monkeypatch):
    """At m = 20,000 the trust cutoff admits thousands of level-0 keys, but
    the table holds only the k that the block walk and the rows read."""
    built = []

    def spy(seq, n, lambda_max):
        table = level_spectrum(seq, n, lambda_max)
        built.append(len(table.entries))
        return table

    monkeypatch.setattr(laakso.compare, "level_spectrum", spy)
    seq = parse_sequence("2")
    report = compare_spectra(seq, 0, 20_000, 4)
    assert built == [4]
    assert report.all_multiplicities_match
    assert len(level_spectrum(seq, 0, report.trust_cutoff).entries) > 1000


def test_mesh_error_ratio_second_order():
    """Errors contract by ((2m+1)/(m+1))^2, within 20% of the nominal 4."""
    seq = parse_sequence("2,3")
    graph = build_graph(seq, 2)
    exact = [e.value for e in level_spectrum(seq, 2, 400.0).entries if e.value > 0][:8]
    errors = {}
    for m in (12, 24, 48):
        values = np.linalg.eigvalsh(discretize(graph, m).to_csr().toarray())
        errors[m] = np.array(
            [np.abs(values - lam).min() for lam in exact]
        )
    for m_coarse, m_fine in ((12, 24), (24, 48)):
        ratios = errors[m_coarse] / errors[m_fine]
        assert np.all(ratios >= 0.8 * 4.0)
        assert np.all(ratios <= 1.2 * 4.0)
