"""Graph construction and Kirchhoff discretization."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import laakso.compare
import laakso.graphs
from laakso import (
    ValidationError,
    build_graph,
    chain_factor,
    compare_spectra,
    continuum_eigenvalues,
    counting_function,
    discretize,
    eigenvalue_of_key,
    first_distinct,
    heat_trace,
    heat_trace_grid,
    level_info,
    level_spectrum,
    lowest_eigenvalues,
    mesh_spacing,
    parse_sequence,
    poles,
    shape_census,
    trust_cutoff,
)
from laakso.errors import FactorizationError
from laakso.graphs import _subdivide, key_count
from laakso.sequences import PERIODIC, JSequence
from laakso.solver import _SHIFT
from laakso.spectrum import CROSS_FULL, CROSS_QUARTER, LOOP, V, _family_table
from conftest import cut_copy_census, superlu_factor

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


def _eigen(seq, k, **kwargs):
    graph = build_graph(seq, 2)
    return lowest_eigenvalues(discretize(graph, 2), k, factor=chain_factor(graph, 2), **kwargs)


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
    ("eigen k", _eigen, "k", 1, 4),
    ("eigen block_size", lambda seq, v: _eigen(seq, 4, block_size=v), "block_size", 1, 4),
    ("eigen seed", lambda seq, v: _eigen(seq, 4, seed=v), "seed", 0, 1),
    ("level_spectrum n_max", lambda seq, v: level_spectrum(seq, v, 100.0), "level_cap", 0, 2),
    ("heat_trace level_cap", lambda seq, v: heat_trace(seq, 1e-2, level_cap=v), "level_cap", 0, 2),
    ("empty heat_trace_grid level_cap", lambda seq, v: heat_trace_grid(seq, [], level_cap=v), "level_cap", 0, 2),
    ("first_distinct count", first_distinct, "count", 1, 5),
    ("compare n", lambda seq, v: compare_spectra(seq, v, 3, 10), "level", 0, 2),
    ("compare m", lambda seq, v: compare_spectra(seq, 2, v, 10), "points_per_edge", 1, 3),
    ("compare k", lambda seq, v: compare_spectra(seq, 2, 3, v), "k", 2, 10),
    ("compare seed", lambda seq, v: compare_spectra(seq, 2, 3, 10, seed=v), "seed", 0, 1),
    ("poles m_range", lambda seq, v: poles(seq, (v, 2)), "m_range", None, -1),
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


@pytest.mark.parametrize("spec", SEQS + ["3,4", "2,5", "7", "2,3,4"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brute_force_census_matches_formulas(spec, n):
    # the cut copy's arms, segments and stars are the V, loop and cross rows
    seq = parse_sequence(spec)
    arms, segments, stars = cut_copy_census(seq, n)
    rows = {row.shape: row.count for row in _family_table(seq, n)[1]}
    counts = (rows.get(V, 0), rows.get(LOOP, 0), rows.get(CROSS_QUARTER, 0), rows.get(CROSS_FULL, 0))
    assert counts == (arms, segments, stars, 2 * stars)
    assert tuple(shape_census(seq, n))[1:] == (arms, segments, stars)


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


# sigma / scale, or None for the solver's sigma, an absolute _SHIFT
@pytest.mark.parametrize("shift", [-1.0, -1e-4, -1e-5, pytest.param(None, id="solver")])
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
    kappa = 1 + 2 scale / |sigma| of A - sigma I: 3 at shift -1 (where they
    agree to 4e-16), 2e4 at shift -1e-4 (1.4e-12), 2e5 at -1e-5, and from
    65 to 4.7e4 at the solver's sigma = -1 on these meshes."""
    graph = build_graph(parse_sequence(spec), level)
    matrix = discretize(graph, m)
    scale = np.abs(matrix.to_csr().diagonal()).max()
    sigma = _SHIFT if shift is None else shift * scale
    b = np.asfortranarray(np.random.default_rng(3).standard_normal((matrix.dimension, 7)))
    chain = chain_factor(graph, m)(sigma)(b)
    superlu = superlu_factor(matrix)(sigma)(b)
    kappa = 1.0 + 2.0 * scale / abs(sigma)
    tol = 4 * np.finfo(float).eps * kappa
    assert np.linalg.norm(chain - superlu) <= tol * np.linalg.norm(superlu)


@given(st.sampled_from(SEQS), st.integers(min_value=1, max_value=4))
@settings(max_examples=12, deadline=None)
def test_mesh_spacing_definition(spec, m):
    g = build_graph(parse_sequence(spec), 2)
    assert mesh_spacing(g, m) == pytest.approx(g.edge_length / (m + 1))


# -- the sectors of the copy swaps, and the Sylvester count on the graph -------

# (sequence, level n, m, level r, m_r = (m + 1) I_n / I_r - 1)
SECTORS = [
    ("2,3", 3, 2, 2, 5),
    ("2,3", 3, 2, 1, 17),
    ("3,4", 2, 4, 1, 19),
    ("2,5", 2, 4, 1, 24),
    ("2", 3, 2, 2, 5),
]


def _mesh_value(graph, m, key):
    """The mesh eigenvalue (4/h^2) sin^2(kappa h / 2) of continuum key
    `key`, kappa = key pi / 2."""
    h = mesh_spacing(graph, m)
    return (2.0 / h * math.sin(key * math.pi * h / 4.0)) ** 2


@pytest.mark.parametrize("spec, n, m, r, m_r", SECTORS)
def test_even_sector_is_the_coarser_mesh(spec, n, m, r, m_r):
    """The functions even under the copy swaps of levels r + 1 .. n are the
    mesh of F_r with m_r points per edge at the same h: its spectrum is a
    sub-multiset of the F_n mesh's, and the F_n mesh has no other
    eigenvalue below key I_(r+1), where the first odd function starts."""
    seq = parse_sequence(spec)
    full_graph, sector_graph = build_graph(seq, n), build_graph(seq, r)
    assert mesh_spacing(sector_graph, m_r) == pytest.approx(mesh_spacing(full_graph, m), rel=1e-15)
    full = np.linalg.eigvalsh(discretize(full_graph, m).to_csr().toarray())
    sector = np.linalg.eigvalsh(discretize(sector_graph, m_r).to_csr().toarray())
    tol = 1e-10 * full[-1]
    j = 0
    for value in sector:  # both ascending: skip the full mesh's other values
        while full[j] < value - tol:
            j += 1
        assert abs(full[j] - value) <= tol
        j += 1
    edge = _mesh_value(full_graph, m, seq.scale(r + 1)) - tol
    assert np.count_nonzero(full < edge) == np.count_nonzero(sector < edge)


# (sequence, level n, step between the tested gaps)
COUNTED = [
    ("2,3", 3, 1), ("3,4", 2, 1), ("3,4", 3, 1), ("2,5", 2, 1), ("2", 3, 1),
    ("2,3", 5, 6), ("2,3", 6, 96),
]


@pytest.mark.parametrize("spec, n, step", COUNTED)
def test_key_count_is_the_cumulative_count(spec, n, step):
    """At seeded points of the gaps below 8 I_n, four times the chains'
    first Dirichlet key, the Sylvester count on the graph equals the exact
    table's count of keys at most the gap's lower key."""
    seq = parse_sequence(spec)
    graph = build_graph(seq, n)
    top = 8 * seq.scale(n)
    table = level_spectrum(seq, n, eigenvalue_of_key(top))
    rng = np.random.default_rng(7)
    for key in range(0, top, step):
        assert key_count(graph, key, rng) == counting_function(
            table, eigenvalue_of_key(key)
        ), key


class _ExactFirst:
    """An rng whose first uniform draw is the midpoint of its range."""

    def __init__(self):
        self.draws = 0
        self.rng = np.random.default_rng(7)

    def uniform(self, low, high):
        self.draws += 1
        return 0.5 * (low + high) if self.draws == 1 else self.rng.uniform(low, high)


def _spy_on_count(monkeypatch, count):
    """Route key_count's _negative_count through `count`; the returned list
    records each call's count, or None where it raised FactorizationError."""
    outcomes = []

    def spy(matrix):
        try:
            outcomes.append(count(matrix))
        except FactorizationError:
            outcomes.append(None)
            raise
        return outcomes[-1]

    monkeypatch.setattr(laakso.graphs, "_negative_count", spy)
    return outcomes


def test_singular_minor_redraws_the_point(monkeypatch):
    """At the exact half-key 1.5 a leading minor of cos theta D - A on the
    level-5 benchmark graph is singular to rounding: the pivot floor
    refuses it, the point is drawn again, and the count is still that of
    keys 0 and 1."""
    seq = parse_sequence("2,3")
    outcomes = _spy_on_count(monkeypatch, laakso.graphs._negative_count)
    rng = _ExactFirst()
    assert key_count(build_graph(seq, 5), 1, rng) == 1
    assert outcomes == [None, 1]
    assert rng.draws == 2


def test_unsigned_count_gives_up_after_four_points(monkeypatch):
    """A count that never forms is drawn at four points of the gap, then
    key_count raises FactorizationError."""

    def refuse(matrix):
        raise FactorizationError("a pivot is too small to sign")

    outcomes = _spy_on_count(monkeypatch, refuse)
    rng = _ExactFirst()
    with pytest.raises(FactorizationError, match="no point of the gap"):
        key_count(build_graph(parse_sequence("2,3"), 2), 1, rng)
    assert outcomes == [None] * 4
    assert rng.draws == 4


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0.0, 0.0], [0.0, 0.0]], "exactly singular"),
        ([[0.0, 1.0], [1.0, 0.0]], "pivoted off the diagonal"),
    ],
    ids=["zero", "swap"],
)
def test_count_refuses_a_factor_it_cannot_read(rows, message):
    """An exactly zero pivot, or a factor that swapped rows apart from
    columns, gives no inertia: _negative_count raises FactorizationError."""
    with pytest.raises(FactorizationError, match=message):
        laakso.graphs._negative_count(sp.csr_matrix(np.array(rows)))


def test_chain_above_its_dirichlet_value_raises():
    """Past the chains' first Dirichlet value (key 2 I_n) the tridiagonal
    Cholesky factor does not exist: the solve's factor raises
    FactorizationError instead of reading a wrong factor.  The count on the
    graph has no chains, and counts there too."""
    graph = build_graph(parse_sequence("2,3"), 2)  # I_2 = 6
    m = 4
    with pytest.raises(FactorizationError):
        chain_factor(graph, m)(_mesh_value(graph, m, 12.5))
    table = level_spectrum(parse_sequence("2,3"), 2, 500.0)
    for key in (10, 12):
        assert key_count(graph, key, np.random.default_rng(1)) == counting_function(
            table, eigenvalue_of_key(key)
        )
