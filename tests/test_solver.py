"""The block shift-invert eigensolver and per-key multiplicity counts."""

import functools
import math
import mmap
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from laakso import (
    SparseSymmetricMatrix,
    ValidationError,
    build_graph,
    chain_factor,
    continuum_eigenvalues,
    discretize,
    lowest_eigenvalues,
    parse_sequence,
)
from laakso.solver import _orthonormalize, _project_out, cluster_multiplicities
from conftest import superlu_factor


def _diag_matrix(n: int) -> SparseSymmetricMatrix:
    mat = sp.diags(np.arange(n, dtype=float)).tocsr()
    return SparseSymmetricMatrix(n, mat.indptr, mat.indices, mat.data)


def _mesh(spec, level, m):
    """discretize(F_level, m) and its chain factor."""
    graph = build_graph(parse_sequence(spec), level)
    return discretize(graph, m), chain_factor(graph, m)


def _copies_per_key(graph, m, values):
    """Copies per continuum key of mesh eigenvalues, the top (possibly cut)
    key left out."""
    mapped = continuum_eigenvalues(graph, m, values)
    keys = np.rint(2.0 * np.sqrt(mapped) / math.pi).astype(np.int64)
    counts = {key: len(idx) for key, idx in cluster_multiplicities(keys).items()}
    del counts[max(counts)]
    return counts


def test_neumann_chain():
    mat, factor = _mesh("2", 0, 99)
    res = lowest_eigenvalues(mat, 4, tol=1e-8, factor=factor)
    assert res.k_converged == 4
    assert abs(res.values[0]) < 1e-9
    for k in (1, 2, 3):
        assert res.values[k] == pytest.approx((k * math.pi) ** 2, rel=1e-3)


def test_diagonal_matrix():
    mat = _diag_matrix(50)
    res = lowest_eigenvalues(mat, 3, factor=superlu_factor(mat))
    assert np.allclose(res.values, [0.0, 1.0, 2.0], atol=1e-9)
    assert res.k_converged == 3


def test_validation():
    mat = _diag_matrix(10)
    with pytest.raises(TypeError):  # the factor has no default
        lowest_eigenvalues(mat, 2)
    solve = functools.partial(lowest_eigenvalues, factor=superlu_factor(mat))
    with pytest.raises(ValidationError):
        solve(mat, 10)
    with pytest.raises(ValidationError):
        solve(mat, 0)
    with pytest.raises(ValidationError):
        solve(mat, 2, tol=-1.0)
    with pytest.raises(ValidationError):
        solve(mat, 2, tol=math.nan)
    with pytest.raises(ValidationError):
        solve(mat, 2, tol=math.inf)
    with pytest.raises(ValidationError):
        solve(mat, 2, block_size=0)
    with pytest.raises(ValidationError):
        solve(mat, 2, block_size=-3)
    for bad in (
        dict(block_size=2.5),
        dict(seed=-1),
        dict(seed=1.5),
        dict(seed="1"),
        dict(seed=None),
    ):
        with pytest.raises(ValidationError):
            solve(mat, 2, **bad)
    with pytest.raises(ValidationError):
        solve(mat, 5.0)


def test_oracle_equivalence_dense_vs_iterative():
    """The solver agrees with dense eigvalsh on a mesh operator with
    degenerate clusters."""
    mat, factor = _mesh("2,3", 2, 8)  # dimension 210
    tol = 1e-9
    k = 16
    dense = np.linalg.eigvalsh(mat.to_csr().toarray())[:k]
    iterative = lowest_eigenvalues(mat, k, tol=tol, block_size=12, factor=factor)
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
    res = lowest_eigenvalues(mat, k, factor=chain_factor(graph, m))
    assert res.k_converged == k
    dense = np.linalg.eigvalsh(mat.to_csr().toarray())[:k]
    assert res.values == pytest.approx(dense, abs=1e-9)
    assert _copies_per_key(graph, m, res.values) == _copies_per_key(graph, m, dense)


def test_thick_restart_holds_at_most_k_plus_four_blocks(monkeypatch):
    """On dimension 1,788, k + 4 width = 180 columns is under half the
    dimension, so the solve restarts: its basis buffer, one anonymous map,
    is 180 columns wide, it generates more columns than that, and it still
    agrees with eigvalsh value for value and copy for copy."""
    graph = build_graph(parse_sequence("2,3"), 3)
    m, k, width, tol = 18, 60, 30, 1e-8
    mat = discretize(graph, m)
    held = []
    anonymous_map = mmap.mmap

    def recording_map(fileno, length, *args, **kwargs):
        held.append(length / (8 * mat.dimension))
        return anonymous_map(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", recording_map)
    res = lowest_eigenvalues(mat, k, tol=tol, block_size=width, factor=chain_factor(graph, m))
    monkeypatch.undo()
    assert held == [k + 4 * width] and k + 4 * width < res.basis_width
    assert res.k_converged == k
    dense = np.linalg.eigvalsh(mat.to_csr().toarray())[:k]
    scale = float(np.abs(mat.to_csr().diagonal()).max())
    assert np.max(np.abs(res.values - dense)) <= 10 * tol * scale
    assert _copies_per_key(graph, m, res.values) == _copies_per_key(graph, m, dense)


def test_basis_refusal_counts_the_columns_held():
    """The 2^27-double refusal reads the columns the basis holds, k + 4
    width once restarts apply, and comes before any factor is built."""
    mat = _diag_matrix(2**15)
    built = []

    class FactorBuilt(Exception):
        pass

    def factor(sigma):
        built.append(sigma)
        raise FactorBuilt

    # 32,768 x (4,000 + 4 x 32) doubles is over 2^27
    with pytest.raises(ValidationError, match="basis exceeds"):
        lowest_eigenvalues(mat, 4000, block_size=32, factor=factor)
    assert not built
    # 3,000 + 128 held columns fit, though the budget of 15,000 generated would not
    with pytest.raises(FactorBuilt):
        lowest_eigenvalues(mat, 3000, block_size=32, factor=factor)
    assert len(built) == 1


def test_reproducible_bit_for_bit():
    mat, factor = _mesh("3", 2, 6)
    a = lowest_eigenvalues(mat, 10, seed=7, factor=factor)
    b = lowest_eigenvalues(mat, 10, seed=7, factor=factor)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.residual_norms, b.residual_norms)
    c = lowest_eigenvalues(mat, 10, factor=factor)
    d = lowest_eigenvalues(mat, 10, factor=factor)
    assert np.array_equal(c.values, d.values)


def test_residuals_reported_and_small():
    mat, factor = _mesh("2", 2, 4)
    res = lowest_eigenvalues(mat, 6, tol=1e-8, factor=factor)
    assert res.residual_norms.shape == (6,)
    assert np.all(res.residual_norms <= 1e-8)


def test_partial_result_on_tiny_budget():
    mat, factor = _mesh("2", 3, 40)  # dimension 2,604
    # block 4 caps the basis at 5k = 150 columns, too few for 30 pairs at 1e-12
    res = lowest_eigenvalues(mat, 30, tol=1e-12, block_size=4, factor=factor)
    assert res.k_converged < res.k_requested
    assert np.all(np.diff(res.values) >= -1e-9)


def test_diagnostics_fields():
    mat, factor = _mesh("2,3", 2, 8)  # dimension 210
    k, width = 16, 12
    res = lowest_eigenvalues(mat, k, tol=1e-9, block_size=width, factor=factor)
    assert res.iterations >= 1
    assert width < res.basis_width <= min(mat.dimension, max(5 * k, k + 15 * width))


def test_clipped_last_block():
    """The budget max(5k, k + 15 width) = 125 of generated columns is not a
    multiple of the block width 7, so the last block is cut to 6 columns
    before the budget is spent."""
    mat, factor = _mesh("2,3", 2, 8)  # dimension 210
    k, width, tol = 20, 7, 1e-12
    max_basis = max(5 * k, k + 15 * width)
    assert max_basis % width != 0
    res = lowest_eigenvalues(mat, k, tol=tol, block_size=width, factor=factor)
    assert res.basis_width == max_basis
    assert res.k_converged < k
    assert np.all(np.diff(res.values) >= 0)
    converged = res.residual_norms <= tol
    dense = np.linalg.eigvalsh(mat.to_csr().toarray())[:k]
    scale = float(np.abs(mat.to_csr().diagonal()).max())
    assert np.all(np.abs(res.values - dense)[converged] <= 10 * tol * scale)


def _split(z, v, rng):
    """_project_out then _orthonormalize, as one Krylov step does; checks
    the identity z_in = v coef + q r that the solver's h and estimates read."""
    z_in = z.copy()
    coef = _project_out(z, v)
    q, r = _orthonormalize(z, z.T @ z, v, rng)
    assert r.shape == (z.shape[1], z.shape[1])
    assert np.linalg.norm(z_in - v @ coef - q @ r) <= 1e-12 * np.linalg.norm(z_in)
    return q


def test_restarted_solve_holds_few_blocks_beside_its_basis():
    """Beside the mapped basis, which tracemalloc does not see, a restarted
    solve on dimension 1,788 (k = 60, width 30) peaks at no more than four
    dim x width blocks (3.7 measured): z, a product temporary, h and the
    certificate's chunks.  Keeping the old z through the next solve, forming
    Cholesky-QR2's second product out of place or certifying a full block
    at a time each takes it past four; the heap-allocated basis and all
    three read 11.3."""
    mat, factor = _mesh("2,3", 3, 18)
    k, width = 60, 30
    # first-call allocations are not the solve's
    lowest_eigenvalues(mat, k, block_size=width, factor=factor)
    tracemalloc.start()
    try:
        res = lowest_eigenvalues(mat, k, block_size=width, factor=factor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.basis_width > k + 4 * width
    assert peak <= 4 * 8 * mat.dimension * width


@pytest.mark.parametrize(
    "broken, qr_calls",
    [("repeated", 2), ("zero", 2), ("in the basis", 2), ("nearly repeated", 2)],
)
def test_rank_deficient_block_falls_back_to_householder(monkeypatch, broken, qr_calls):
    """A block with a repeated, zero or already-spanned column fails
    Cholesky-QR2's first factor; Householder QR refills the dead direction
    and returns a full-width orthonormal block orthogonal to the basis that
    still spans the block's columns.  A nearly repeated column (cond ~ 1e9)
    fails the first factor or leaves its output far from orthonormal:
    Householder QR again, with nothing dead.  Its rounding-level overlap
    with the basis, which that condition number amplifies to ~1e-7, is
    projected out again before the second QR."""
    rng = np.random.default_rng(6)
    dim, width = 200, 6
    v, _ = np.linalg.qr(rng.standard_normal((dim, 10)))
    z = rng.standard_normal((dim, width))
    z[:, 3] = {
        "repeated": z[:, 1],
        "zero": 0.0,
        "in the basis": v[:, 2],
        "nearly repeated": z[:, 1] + 1e-9 * rng.standard_normal(dim),
    }[broken]
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda m: calls.append(m.shape) or qr(m))
    q = _split(z, v, np.random.default_rng(0))
    assert calls == [(dim, width)] * qr_calls
    assert q.shape == (dim, width)
    assert np.abs(q.T @ q - np.eye(width)).max() <= 1e-12
    assert np.abs(v.T @ q).max() <= 1e-12


def test_full_rank_block_takes_cholesky_qr2(monkeypatch):
    rng = np.random.default_rng(6)
    v, _ = np.linalg.qr(rng.standard_normal((200, 10)))
    monkeypatch.setattr(np.linalg, "qr", None)  # any call would raise
    q = _split(rng.standard_normal((200, 6)), v, rng)
    assert np.abs(q.T @ q - np.eye(6)).max() <= 1e-14
    assert np.abs(v.T @ q).max() <= 1e-14


def test_residual_estimate_agrees_with_the_certificate():
    """The purified Ritz vectors' residual, read off the Lanczos relation,
    matches the explicit residuals it hands over to."""
    mat, factor = _mesh("2,3", 3, 18)  # dimension 1,788
    k, tol = 60, 1e-7
    res = lowest_eigenvalues(mat, k, tol=tol, block_size=30, factor=factor)
    assert res.k_converged == k
    assert len(res.residual_history) == res.iterations + 1
    cert = res.residual_norms.max()
    assert abs(res.residual_history[-1] - cert) <= 1e-6 * cert
    dense = np.linalg.eigvalsh(mat.to_csr().toarray())[:k]
    scale = float(np.abs(mat.to_csr().diagonal()).max())
    assert np.max(np.abs(res.values - dense)) <= 10 * tol * scale


def test_estimate_meets_a_tolerance_of_1e_10():
    """The estimate has no rounding floor near 1e-8: at tol = 1e-10 it
    reaches tol, equals the certificate and ends the solve before the basis
    is full."""
    mat, factor = _mesh("2,3", 2, 8)  # dimension 210
    k, width, tol = 16, 12, 1e-10
    res = lowest_eigenvalues(mat, k, tol=tol, block_size=width, factor=factor)
    assert res.residual_history[-1] <= tol
    cert = res.residual_norms.max()
    assert abs(res.residual_history[-1] - cert) <= 1e-4 * cert
    assert res.k_converged == k
    assert res.basis_width < max(5 * k, k + 15 * width)
