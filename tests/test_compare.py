"""End-to-end sweeps: per-key mesh spectra against the exact tables."""

import math

import numpy as np
import pytest

from laakso import (
    build_graph,
    compare_spectra,
    counting_function,
    discretize,
    level_spectrum,
    mesh_spacing,
    parse_sequence,
)


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
def test_loop_heavy_constructions(spec):
    """j = 4 steps put two loops on every parent cell; the pipeline must
    still reproduce the merged table exactly."""
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
