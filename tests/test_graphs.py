"""Graph construction and Kirchhoff discretization."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import laakso.compare
from laakso import (
    ValidationError,
    build_graph,
    compare_spectra,
    continuum_eigenvalues,
    discretize,
    first_distinct,
    heat_trace,
    heat_trace_grid,
    level_info,
    level_spectrum,
    lowest_eigenvalues,
    mesh_spacing,
    oscillation_amplitude,
    parse_sequence,
    poles,
    shape_census,
    trust_cutoff,
)
from laakso.graphs import _chain_factor, _subdivide
from laakso.sequences import PERIODIC, JSequence
from laakso.solver import _SHIFT, _superlu_factor
from conftest import brute_force_census

SEQS = ["2", "3", "2,3", "3,2"]


# -- construction ------------------------------------------------------------


def test_level_zero_is_an_interval():
    g = build_graph(parse_sequence("2,3"), 0)
    assert g.vertex_count == 2
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [[0, 1]]
    assert g.edge_length == 1.0


def _histogram(g):
    degrees = np.bincount(g.edges.ravel(), minlength=g.vertex_count)
    values, counts = np.unique(degrees, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def test_first_level_constant_two_is_an_x():
    g = build_graph(parse_sequence("2"), 1)
    assert g.vertex_count == 5
    assert g.edge_count == 4
    assert g.edge_length == 0.5
    assert _histogram(g) == {1: 4, 4: 1}
    # the middle of the interval is vertex 4, shared by both copies
    assert g.edges.tolist() == [[0, 4], [4, 2], [1, 4], [4, 3]]


def test_first_level_constant_three():
    g = build_graph(parse_sequence("3"), 1)
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert g.edge_length == pytest.approx(1.0 / 3.0)
    assert _histogram(g) == {1: 4, 4: 2}
    assert g.edges.tolist() == [[0, 4], [4, 5], [5, 2], [1, 4], [4, 5], [5, 3]]
    # the middle pair is joined by two parallel cells
    pair_counts = {}
    for u, v in g.edges:
        key = (min(u, v), max(u, v))
        pair_counts[key] = pair_counts.get(key, 0) + 1
    assert sorted(pair_counts.values()) == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("spec", SEQS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_counts_match_closed_forms(spec, n):
    seq = parse_sequence(spec)
    g = build_graph(seq, n)
    info = level_info(seq, n)
    assert g.edge_count == info.cells
    assert g.vertex_count == info.nodes
    assert g.edge_length == pytest.approx(1.0 / info.scale, rel=1e-14)
    hist = _histogram(g)
    assert hist[1] == 2 ** (n + 1)
    assert hist.get(4, 0) == 2 ** (n - 1) * (info.scale - 1)
    assert set(hist) <= {1, 4}
    # handshake: degree sum = twice the edges
    assert sum(d * c for d, c in hist.items()) == 2 * info.cells


def test_edges_are_read_only():
    g = build_graph(parse_sequence("2,3"), 2)
    assert not g.edges.flags.writeable
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1


def _mesh(seq):
    return discretize(build_graph(seq, 2), 2)


# every entry point that takes an integer: (label, call(seq, value), the
# parameter name its refusal gives, the lowest valid value or None, a valid value)
INTEGER_INPUTS = [
    ("JSequence entry", lambda seq, v: JSequence(PERIODIC, (v, 3)), "entry", 2, 2),
    ("j n", lambda seq, v: seq.j(v), "level", 1, 3),
    ("scale n", lambda seq, v: seq.scale(v), "level", 0, 3),
    ("level_info n", level_info, "level", 0, 2),
    ("shape_census n", shape_census, "level", 1, 2),
    ("build_graph n", build_graph, "level", 0, 2),
    ("discretize m", lambda seq, v: discretize(build_graph(seq, 1), v), "points_per_edge", 1, 2),
    ("mesh_spacing m", lambda seq, v: mesh_spacing(build_graph(seq, 1), v), "points_per_edge", 1, 2),
    ("trust_cutoff m", lambda seq, v: trust_cutoff(build_graph(seq, 1), v), "points_per_edge", 1, 2),
    (
        "continuum_eigenvalues m",
        lambda seq, v: continuum_eigenvalues(build_graph(seq, 1), v, np.array([1.0])),
        "points_per_edge",
        1,
        2,
    ),
    ("eigen k", lambda seq, v: lowest_eigenvalues(_mesh(seq), v), "k", 1, 4),
    (
        "eigen block_size",
        lambda seq, v: lowest_eigenvalues(_mesh(seq), 4, block_size=v),
        "block_size",
        1,
        4,
    ),
    ("eigen seed", lambda seq, v: lowest_eigenvalues(_mesh(seq), 4, seed=v), "seed", 0, 1),
    ("level_spectrum n_max", lambda seq, v: level_spectrum(seq, v, 100.0), "level_cap", 0, 2),
    ("heat_trace level_cap", lambda seq, v: heat_trace(seq, 1e-2, level_cap=v), "level_cap", 0, 2),
    ("empty heat_trace_grid level_cap", lambda seq, v: heat_trace_grid(seq, [], level_cap=v), "level_cap", 0, 2),
    ("first_distinct count", first_distinct, "count", 1, 5),
    ("compare n", lambda seq, v: compare_spectra(seq, v, 3, 10), "level", 0, 2),
    ("compare m", lambda seq, v: compare_spectra(seq, 2, v, 10), "points_per_edge", 1, 3),
    ("compare k", lambda seq, v: compare_spectra(seq, 2, 3, v), "k", 2, 10),
    ("compare seed", lambda seq, v: compare_spectra(seq, 2, 3, 10, seed=v), "seed", 0, 1),
    ("poles m_range", lambda seq, v: poles(seq, (v, 2)), "m_range", None, -1),
    ("oscillation_amplitude m", oscillation_amplitude, "m", None, 2),
]


@pytest.mark.parametrize(
    "call, name, bad",
    [
        pytest.param(call, name, bad, id=f"{label}={bad}")
        for label, call, name, low, _ in INTEGER_INPUTS
        for bad in (2.0, 2.5, True) + (() if low is None else (low - 1,))
    ],
)
def test_level_and_point_count_must_be_valid_integers(call, name, bad):
    """A float, a bool or a count below its bound is refused by name, by the
    one integer rule, not by a TypeError from the arithmetic it enters."""
    with pytest.raises(ValidationError, match=f"^{name} .* must be an integer"):
        call(parse_sequence("2,3"), bad)


@pytest.mark.parametrize(
    "call, good", [pytest.param(c, good, id=label) for label, c, _, _, good in INTEGER_INPUTS]
)
def test_numpy_integer_is_taken_as_int(call, good):
    seq = parse_sequence("2,3")
    assert repr(call(seq, np.int64(good))) == repr(call(seq, good))


@pytest.mark.parametrize(
    "level, m", [(2, 0), (2, -1), (np.int64(40), 1)], ids=["m=0", "m=-1", "level=int64(40)"]
)
def test_compare_refuses_before_building_the_graph(monkeypatch, level, m):
    """The mesh is sized from exact ints and refused before F_n is built:
    a negative point count or an int64 level must not slip under the bound."""

    def spy(*args):
        raise AssertionError("build_graph reached")

    monkeypatch.setattr(laakso.compare, "build_graph", spy)
    with pytest.raises(ValidationError):
        compare_spectra(parse_sequence("2,3"), level, m, 10)


def test_subdivide_numbers_edge_by_edge():
    # edge e gains vertices 5 + 2e and 6 + 2e, in order from its first end
    ends = np.array([[0, 1], [3, 2]], dtype=np.int64)
    links = _subdivide(ends, 5, 3)
    assert links.tolist() == [[0, 5], [5, 6], [6, 1], [3, 7], [7, 8], [8, 2]]
    assert _subdivide(ends, 5, 1).tolist() == ends.tolist()


@pytest.mark.parametrize("spec", SEQS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brute_force_census_matches_formulas(spec, n):
    seq = parse_sequence(spec)
    got = brute_force_census(seq, n)
    c = shape_census(seq, n)
    assert got == (c.v_count, c.loop_count, c.cross_count)


def test_connectivity():
    from scipy.sparse.csgraph import connected_components

    for spec in SEQS:
        g = build_graph(parse_sequence(spec), 3)
        rows = [u for u, _ in g.edges] + [v for _, v in g.edges]
        cols = [v for _, v in g.edges] + [u for u, _ in g.edges]
        a = sp.coo_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(g.vertex_count, g.vertex_count),
        )
        n_comp, _ = connected_components(a, directed=False)
        assert n_comp == 1


# -- discretization ----------------------------------------------------------


def test_dimension_arithmetic():
    g = build_graph(parse_sequence("3,2"), 2)
    m = discretize(g, 1)
    assert m.dimension == g.vertex_count + g.edge_count


def test_unit_interval_neumann_spectrum():
    # second-difference relative error is lambda h^2 / 12, so the five lowest
    # modes all clear 1e-3 once h <= 1/150
    g = build_graph(parse_sequence("2"), 0)
    mat = discretize(g, 149)
    values = np.linalg.eigvalsh(mat.to_csr().toarray())[:5]
    assert abs(values[0]) < 1e-9
    for k in range(1, 5):
        assert values[k] == pytest.approx((k * math.pi) ** 2, rel=1e-3)
    # the classical error law itself, at the coarser mesh
    coarse = np.linalg.eigvalsh(discretize(g, 99).to_csr().toarray())[:5]
    h = 1.0 / 100.0
    for k in range(1, 5):
        lam = (k * math.pi) ** 2
        predicted = lam * (1.0 - lam * h * h / 12.0)
        assert coarse[k] == pytest.approx(predicted, rel=1e-4)


def test_symmetry_is_exact():
    g = build_graph(parse_sequence("2,3"), 2)
    a = discretize(g, 4).to_csr()
    assert (a != a.T).nnz == 0  # bitwise symmetric


def _lumped_mass(g, m):
    """The mass diagonal discretize documents: h inside an edge, deg h/2 at a
    vertex of F_n."""
    h = mesh_spacing(g, m)
    mass = np.full(g.vertex_count + g.edge_count * m, h)
    mass[: g.vertex_count] = np.bincount(g.edges.ravel()) * (h / 2.0)
    return mass


def test_stiffness_row_sums_vanish_and_psd():
    """K = sqrt(M) A sqrt(M), recovered from discretize, annihilates
    constants, is bitwise symmetric and positive semidefinite."""
    g = build_graph(parse_sequence("3"), 2)
    m = 3
    mass = _lumped_mass(g, m)
    a = discretize(g, m).to_csr().tocoo()
    root = np.sqrt(mass)
    # d_i d_j is one product for (i, j) and (j, i), so K keeps A's exact symmetry
    k = sp.csr_matrix((a.data * (root[a.row] * root[a.col]), (a.row, a.col)), shape=a.shape)
    assert np.abs(k.sum(axis=1)).max() < 1e-9
    assert (k != k.T).nnz == 0
    assert np.all(mass > 0)
    values = np.linalg.eigvalsh(k.toarray())
    assert values.min() > -1e-10


def test_operator_kernel_is_weighted_constant():
    """A sqrt(M) 1 = 0 for the documented mass: K's rows sum to zero."""
    m = 3
    for spec in ("2,3", "3"):
        g = build_graph(parse_sequence(spec), 2)
        a = discretize(g, m).to_csr()
        null = np.sqrt(_lumped_mass(g, m))
        assert np.linalg.norm(a @ null) / np.linalg.norm(null) < 1e-12


def test_zero_eigenvalue_simple_and_spectrum_nonnegative():
    g = build_graph(parse_sequence("2"), 2)
    values = np.linalg.eigvalsh(discretize(g, 3).to_csr().toarray())
    assert values[0] > -1e-10
    assert abs(values[0]) < 1e-9
    assert values[1] > 1.0  # spectral gap: the graph is connected


def test_lowest_eigenvalue_of_x_graph_approaches_pi_squared():
    g = build_graph(parse_sequence("2"), 1)
    prev_err = None
    for m in (8, 24, 72):
        values = np.linalg.eigvalsh(discretize(g, m).to_csr().toarray())
        err = abs(values[1] - math.pi**2)
        if prev_err is not None:
            assert err < prev_err / 4.0  # beats first order decisively
        prev_err = err


def test_mesh_convergence_second_order():
    """Eigenvalue error contracts like h^2 across m, 2m, 4m refinements."""
    seq = parse_sequence("2,3")
    g = build_graph(seq, 2)
    exact = [e.value for e in level_spectrum(seq, 2, 1e5).entries][1:11]
    errors = []
    for m in (12, 24, 48):
        values = np.linalg.eigvalsh(discretize(g, m).to_csr().toarray())
        idx = 1
        errs = []
        for lam in exact:
            # skip over multiplicity copies by matching closest values
            close = np.argmin(np.abs(values - lam))
            errs.append(abs(values[close] - lam))
        errors.append(np.array(errs))
    for a, b, m in zip(errors[:-1], errors[1:], (12, 24)):
        h_ratio_sq = ((2 * m + 1) / (m + 1)) ** 2
        observed = a / np.maximum(b, 1e-14)
        good = observed > 0.8 * h_ratio_sq
        assert good.mean() >= 0.8  # bulk of modes contract at second order


@pytest.mark.parametrize("shift", [-1.0, _SHIFT])
@pytest.mark.parametrize(
    "spec, level, m",
    [
        ("2", 0, 5),  # an interval: both ends of degree 1
        ("2", 1, 1),  # one point per edge: each chain's first point is its last
        ("3,4", 2, 3),  # parallel edges
        ("2,3", 3, 8),
    ],
)
def test_chain_factor_solves_like_superlu(spec, level, m, shift):
    """The chain-condensed solve equals SuperLU's on the assembled matrix.
    Both carry rounding of about eps times the condition number
    kappa = 1 + 2 / |shift| of A - shift scale I: 3 at shift -1 (where they
    agree to 4e-16), 2e4 at the solver's shift (1.4e-12)."""
    graph = build_graph(parse_sequence(spec), level)
    a = discretize(graph, m).to_csr()
    sigma = shift * np.abs(a.diagonal()).max()
    b = np.asfortranarray(np.random.default_rng(3).standard_normal((a.shape[0], 7)))
    chain = _chain_factor(graph, m)(sigma)(b)
    superlu = _superlu_factor(a)(sigma)(b)
    kappa = 1.0 + 2.0 / abs(shift)
    tol = 4 * np.finfo(float).eps * kappa
    assert np.linalg.norm(chain - superlu) <= tol * np.linalg.norm(superlu)


@given(st.sampled_from(SEQS), st.integers(min_value=1, max_value=4))
@settings(max_examples=12, deadline=None)
def test_mesh_spacing_definition(spec, m):
    g = build_graph(parse_sequence(spec), 2)
    assert mesh_spacing(g, m) == pytest.approx(g.edge_length / (m + 1))
