"""The block shift-invert eigensolver and per-key multiplicity counts."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from laakso import (
    SparseSymmetricMatrix,
    ValidationError,
    build_graph,
    continuum_eigenvalues,
    discretize,
    lowest_eigenvalues,
    parse_sequence,
)
from laakso.solver import cluster_multiplicities


def _diag_matrix(n: int) -> SparseSymmetricMatrix:
    return SparseSymmetricMatrix.from_csr(
        sp.diags(np.arange(n, dtype=float)).tocsr()
    )


def test_neumann_chain():
    g = build_graph(parse_sequence("2"), 0)
    mat = discretize(g, 99)
    res = lowest_eigenvalues(mat, 4, tol=1e-8)
    assert res.k_converged == 4
    assert abs(res.values[0]) < 1e-9
    for k in (1, 2, 3):
        assert res.values[k] == pytest.approx((k * math.pi) ** 2, rel=1e-3)


def test_diagonal_matrix():
    res = lowest_eigenvalues(_diag_matrix(50), 3)
    assert np.allclose(res.values, [0.0, 1.0, 2.0], atol=1e-9)
    assert res.k_converged == 3


def test_validation():
    mat = _diag_matrix(10)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(mat, 10)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(mat, 0)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(mat, 2, tol=-1.0)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(mat, 2, tol=math.nan)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(mat, 2, tol=math.inf)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(mat, 2, block_size=0)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(mat, 2, block_size=-3)


def test_oracle_equivalence_dense_vs_iterative():
    """The solver agrees with dense eigvalsh on a mesh operator with
    degenerate clusters."""
    g = build_graph(parse_sequence("2,3"), 2)
    mat = discretize(g, 8)  # dimension 210
    tol = 1e-9
    k = 16
    dense = np.linalg.eigvalsh(mat.to_csr().toarray())[:k]
    iterative = lowest_eigenvalues(mat, k, tol=tol, block_size=12)
    assert iterative.k_converged == k
    scale = float(np.abs(mat.to_csr().diagonal()).max())
    assert np.max(np.abs(dense - iterative.values)) <= 10 * tol * scale


@pytest.mark.parametrize(
    "spec, level, m",
    [
        ("2", 0, 1),  # dimension 3
        ("2", 1, 1),  # 9
        ("2,3", 1, 3),  # 17
        ("2", 2, 2),  # 46
        ("3", 2, 1),  # 60, clusters of 14
        ("3,4", 2, 1),  # 78, clusters of 20
        ("2,3", 2, 4),  # 114
        ("2,3", 2, 8),  # 210
    ],
)
def test_small_dimension_multiplicities_match_eigvalsh(spec, level, m):
    """At small dimensions, the values agree with eigvalsh's and so do the
    copies per continuum key on every key below the top one."""
    graph = build_graph(parse_sequence(spec), level)
    mat = discretize(graph, m)
    k = mat.dimension - 1
    res = lowest_eigenvalues(mat, k)
    assert res.k_converged == k
    dense = np.linalg.eigvalsh(mat.to_csr().toarray())[:k]

    def copies_per_key(values):
        mapped = continuum_eigenvalues(graph, m, values)
        keys = np.rint(2.0 * np.sqrt(mapped) / math.pi).astype(np.int64)
        counts = {key: len(idx) for key, idx in cluster_multiplicities(keys).items()}
        del counts[max(counts)]
        return counts

    assert res.values == pytest.approx(dense, abs=1e-9)
    assert copies_per_key(res.values) == copies_per_key(dense)


def test_reproducible_bit_for_bit():
    g = build_graph(parse_sequence("3"), 2)
    mat = discretize(g, 6)
    a = lowest_eigenvalues(mat, 10, seed=7)
    b = lowest_eigenvalues(mat, 10, seed=7)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.residual_norms, b.residual_norms)
    c = lowest_eigenvalues(mat, 10)
    d = lowest_eigenvalues(mat, 10)
    assert np.array_equal(c.values, d.values)


def test_residuals_reported_and_small():
    g = build_graph(parse_sequence("2"), 2)
    mat = discretize(g, 4)
    res = lowest_eigenvalues(mat, 6, tol=1e-8)
    assert res.residual_norms.shape == (6,)
    assert np.all(res.residual_norms <= 1e-8)


def test_partial_result_on_tiny_budget():
    g = build_graph(parse_sequence("2"), 3)
    mat = discretize(g, 40)  # dimension 2,604
    # block 4 caps the basis at 5k = 150 columns, too few for 30 pairs at 1e-12
    res = lowest_eigenvalues(mat, 30, tol=1e-12, block_size=4)
    assert res.k_converged < res.k_requested
    assert np.all(np.diff(res.values) >= -1e-9)


def test_diagnostics_fields():
    mat = discretize(build_graph(parse_sequence("2,3"), 2), 8)  # dimension 210
    k, width = 16, 12
    res = lowest_eigenvalues(mat, k, tol=1e-9, block_size=width)
    assert res.iterations >= 1
    assert width < res.basis_width <= min(mat.dimension, max(5 * k, k + 15 * width))


def test_clipped_last_block():
    """The cap max(5k, k + 15 width) = 125 is not a multiple of the block
    width 7, so the last block is cut to 6 columns before the basis is full."""
    mat = discretize(build_graph(parse_sequence("2,3"), 2), 8)  # dimension 210
    k, width, tol = 20, 7, 1e-12
    max_basis = max(5 * k, k + 15 * width)
    assert max_basis % width != 0
    res = lowest_eigenvalues(mat, k, tol=tol, block_size=width)
    assert res.basis_width == max_basis
    assert res.k_converged < k
    assert np.all(np.diff(res.values) >= 0)
    converged = res.residual_norms <= tol
    dense = np.linalg.eigvalsh(mat.to_csr().toarray())[:k]
    scale = float(np.abs(mat.to_csr().diagonal()).max())
    assert np.all(np.abs(res.values - dense)[converged] <= 10 * tol * scale)
