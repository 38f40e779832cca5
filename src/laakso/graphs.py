"""Metric-graph approximants F_n and their discretized Laplacians.

F_0 is the unit interval.  F_n arises from F_{n-1} by splitting every edge
into j_n equal parts, duplicating the whole graph, and gluing the two copies
of each newly inserted vertex (pre-existing vertices keep both copies).  All
edges of F_n have length 1/I_n and every vertex has degree 1 or 4.  One
array routine, _subdivide, splits the edges, both for F_n and for its mesh
(m + 1 pieces per edge, no duplicate).

The Laplacian -d^2/dx^2 with Kirchhoff vertex conditions is discretized by
putting m interior mesh points on each edge (spacing h = L/(m+1)), and
discretize assembles the mass-weighted operator M^(-1/2) K M^(-1/2) in one
pass.  As M = (h/2) D, it is 2/h^2 times the normalized Laplacian of F_n
subdivided into edges of length h.  So von Below's relation is exact (von
Below 1985; Berkolaiko-Kuchment 2013): each continuum eigenvalue k^2 with
k h < pi is the mesh eigenvalue (4/h^2) sin^2(k h / 2), with its
multiplicity.  continuum_eigenvalues maps back, and trust_cutoff stops at
k h = 0.8 pi, short of the Nyquist point.  Every edge carries the same
m-point chain, so chain_factor solves the shifted operator by eliminating
the chains onto the vertices of F_n.

key_count counts eigenvalues with no mesh, by a Sylvester count on the
graph F_n (spectrum slicing: Grimes, Lewis and Simon, SIAM J. Matrix Anal.
Appl. 15, 1994).  With D the degree diagonal and A the adjacency matrix,
parallel edges counted, von Below's identity (von Below 1985;
Berkolaiko-Kuchment, Introduction to Quantum Graphs, 2013, ch. 3) puts
E floor(theta / pi) + n_-(cos theta D - A) eigenvalues below k^2 at
theta = k L when sin theta > 0, and E floor(theta / pi) + V - n_-(cos theta
D - A) when sin theta < 0.  Below the Nyquist key the mesh is exact, so this
is also the mesh's count.

Swapping the two copies glued at step n is a symmetry of the F_n mesh.  A
function even under it takes equal values on both copies, and these are the
mesh of F_(n-1) with j_n (m + 1) - 1 points per edge, at the same h: a
glued vertex, of degree 4 and mass 2h, gives the row of an interior point
of one copy, and an old vertex keeps its degree and mass.  By induction the
functions even under the swaps of levels r + 1 .. n are discretize(F_r,
m_r), m_r = (m + 1) I_n / I_r - 1, the mesh form of a quotient graph
(Band, Parzanchevski and Ben-Shach, J. Phys. A 42, 2009): its eigenvalues
are the F_n mesh's, with their copies.  A function odd under the swap of
level s vanishes at that level's glued vertices, so its key is at least
I_s, and below key I_(r+1) the two meshes have the same eigenvalues.

numpy is imported on first use (the graph and mesh arrays) and scipy on
first use of a sparse matrix (the mesh route and the count), so importing
this module loads neither.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import FactorizationError, integer
from .sequences import JSequence

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp


class MetricGraph(NamedTuple):
    """F_n as vertices 0..vertex_count-1 plus equilateral edges as an array.

    `edges` is a read-only (E, 2) int64 array of endpoint pairs; parallel
    edges are real (loops in the construction), so rows may repeat.
    """

    vertex_count: int
    edges: np.ndarray
    edge_length: float

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class SparseSymmetricMatrix(NamedTuple):
    """Symmetric CSR matrix (row offsets, column indices, values)."""

    dimension: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def to_csr(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=(self.dimension, self.dimension),
        )


def _subdivide(ends: np.ndarray, vertex_count: int, pieces: int) -> np.ndarray:
    """Split every edge (u, v) of `ends` into a chain of `pieces` links.

    Edge e gains the vertices vertex_count + e (pieces - 1) + i, i < pieces - 1,
    in order from u to v; the links come back edge by edge, as (E pieces, 2).
    """
    import numpy as np

    count = len(ends)
    fresh = vertex_count + np.arange(count * (pieces - 1), dtype=np.int64)
    chains = np.hstack((ends[:, :1], fresh.reshape(count, pieces - 1), ends[:, 1:]))
    return np.stack((chains[:, :-1], chains[:, 1:]), axis=-1).reshape(-1, 2)


def build_graph(seq: JSequence, n: int) -> MetricGraph:
    """Construct F_n by n rounds of subdivide, duplicate, identify."""
    n = integer("level", n, 0)
    import numpy as np

    vertex_count = 2
    edges = np.array([[0, 1]], dtype=np.int64)
    for step in range(1, n + 1):
        j = seq.j(step)
        fresh = len(edges) * (j - 1)
        links = _subdivide(edges, vertex_count, j)
        # duplicate and identify: old vertex x becomes 2x + copy, and new
        # vertex w (w >= vertex_count) is shared by both copies as vertex_count + w
        old = links < vertex_count
        edges = np.concatenate(
            [np.where(old, 2 * links + copy, vertex_count + links) for copy in (0, 1)]
        )
        vertex_count = 2 * vertex_count + fresh
    edges.flags.writeable = False
    return MetricGraph(
        vertex_count=vertex_count,
        edges=edges,
        edge_length=1.0 / seq.scale(n),
    )


def discretize(graph: MetricGraph, points_per_edge: int) -> SparseSymmetricMatrix:
    """Ordinary symmetric operator M^(-1/2) K M^(-1/2) of the mesh with
    m = points_per_edge interior points per edge, spacing h = mesh_spacing.

    K, the stiffness matrix, has weight -1/h on each mesh link and deg/h on
    the diagonal, so its rows sum to zero; M, the mass diagonal, is h at an
    interior point and deg*h/2 at a vertex of F_n.  Interior rows reduce to
    the standard second difference (2u_i - u_{i-1} - u_{i+1})/h^2; a
    degree-d vertex row enforces the Kirchhoff zero-derivative-sum
    condition.  The kernel vector is sqrt(M) * 1, not the plain constant.
    """
    points_per_edge = integer("points_per_edge", points_per_edge, 1)
    import numpy as np
    import scipy.sparse as sp

    nv = graph.vertex_count
    h = mesh_spacing(graph, points_per_edge)
    dim = nv + graph.edge_count * points_per_edge

    # chain along edge e: u, nv+e*m, ..., nv+e*m+m-1, v
    links = _subdivide(graph.edges, nv, points_per_edge + 1)
    diagonal = np.arange(dim)
    rows = np.concatenate((links[:, 0], links[:, 1], diagonal))
    cols = np.concatenate((links[:, 1], links[:, 0], diagonal))
    deg = np.bincount(links.ravel(), minlength=dim)
    mass = np.full(dim, h)
    mass[:nv] = deg[:nv] * (h / 2.0)
    inv_sqrt = 1.0 / np.sqrt(mass)

    # links of weight -1/h both ways, degree * 1/h on the diagonal
    w = 1.0 / h
    weights = np.concatenate((np.full(2 * len(links), -w), w * deg))
    # scipy's COO -> CSR conversion sums duplicates and sorts the indices
    mat = sp.csr_matrix(
        (weights * (inv_sqrt[rows] * inv_sqrt[cols]), (rows, cols)), shape=(dim, dim)
    )
    return SparseSymmetricMatrix(dim, mat.indptr, mat.indices, mat.data)


def chain_factor(graph: MetricGraph, points_per_edge: int):
    """factor(sigma) -> solve, where solve(B) = (A - sigma I)^-1 B for
    A = discretize(graph, points_per_edge) and any sigma below the chains'
    first Dirichlet value (4/h^2) sin^2(pi / 2(m + 1)), above which it
    raises FactorizationError.  mesh_spacing validates points_per_edge.

    The m interior points of every edge form the same m x m tridiagonal
    block C = (2/h^2 - sigma) I - (1/h^2) (off-diagonals), tied to its end
    vertices u, v only through its first and last point, with weights
    c = -(1/h^2) sqrt(2/deg).  Eliminating the E chains leaves a V x V
    Schur complement on the vertices of F_n, (2/h^2 - sigma) I - gather pull:
    pull (E m x V) holds each chain end's weight c on its vertex, and
    gather = pull' (I kron C^-1) needs only C^-1's end rows.  Per edge that
    is c_u^2 C^-1_00 at (u, u), c_v^2 C^-1_(m-1,m-1) at (v, v) and
    c_u c_v C^-1_(0,m-1) at (u, v) and (v, u).  C is factored once per sigma
    by LAPACK's tridiagonal Cholesky (pttrf), (d, e), and serves every chain
    at a few flops per point for any m.  C's eigenvalues are the chain's
    Dirichlet values (4/h^2) sin^2(i pi / 2(m + 1)) - sigma, so the factor
    exists for sigma below the first of them, and pttrf's nonzero info
    raises FactorizationError above it.  SuperLU factors the Schur
    complement once per sigma.

    A solve takes one right-hand side column at a time, the vertex solve
    aside: b_V - gather b_chains, the vertex solve, then b_chains - pull x_V
    and one sweep of C.  So it forms no array of every chain's two end
    values per column; at m = 1 one would be larger than the solution block.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.linalg import lapack

    m = points_per_edge
    nv, ne = graph.vertex_count, graph.edge_count
    inv_h2 = 1.0 / mesh_spacing(graph, m) ** 2
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    c = -inv_h2 * np.sqrt(2.0 / np.bincount(graph.edges.ravel(), minlength=nv))
    # couple[w, 2e + end]: vertex w's weight on chain e's first (end 0) or last point
    ends_of = np.arange(2 * ne).reshape(2, ne, order="F").ravel()
    couple = sp.csr_matrix(
        (np.concatenate((c[u], c[v])), (np.concatenate((u, v)), ends_of)), shape=(nv, 2 * ne)
    )
    unit = np.zeros((m, 2), order="F")
    unit[0, 0] = unit[-1, 1] = 1.0
    # pull[e m + i, w]: vertex w's weight on point i of chain e, nonzero at its ends only
    pull = (couple @ sp.kron(sp.identity(ne), unit.T)).T.tocsr()

    def factor(sigma: float):
        diagonal = 2.0 * inv_h2 - sigma
        # the wrapper wants at least one off-diagonal entry; m = 1 never reads it
        d, e, info = lapack.dpttrf(np.full(m, diagonal), np.full(max(m - 1, 1), -inv_h2))
        if info:
            raise FactorizationError(f"the edge chains are not positive definite at {sigma}")
        ends, _ = lapack.dpttrs(d, e, unit)  # C^-1 columns 0 and m - 1
        # gather[w, e m + i]: vertex w's weight on point i of chain e under C^-1
        gather = (couple @ sp.kron(sp.identity(ne), ends.T)).tocsr()
        lu = spla.splu((diagonal * sp.identity(nv) - gather @ pull).tocsc())

        def solve(b: np.ndarray) -> np.ndarray:
            x = np.array(b, order="F")
            for j in range(b.shape[1]):
                x[:nv, j] -= gather @ b[nv:, j]
            x[:nv] = lu.solve(x[:nv])
            for j in range(b.shape[1]):
                x[nv:, j] -= pull @ x[:nv, j]
                lapack.dpttrs(d, e, x[nv:, j].reshape(m, ne, order="F"), overwrite_b=True)
            return x

        return solve

    return factor


def _negative_count(matrix: sp.spmatrix) -> int:
    """The number of negative eigenvalues of a symmetric sparse matrix, by
    Sylvester's law of inertia: the signs of the pivots of an unpivoted
    LDL'-like factor.  SuperLU runs in symmetric mode with minimum degree on
    A' + A and no partial pivoting, so P A P' = L U with U's diagonal that
    of D.  A factor that reordered rows apart from columns, or a pivot below
    1e-10 of the largest entry (whose sign rounding may have set), raises
    FactorizationError.
    """
    import numpy as np
    import scipy.sparse.linalg as spla

    a = matrix.tocsc()
    try:
        lu = spla.splu(
            a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
    except RuntimeError as err:  # an exactly zero pivot
        raise FactorizationError(str(err)) from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationError("the factor pivoted off the diagonal")
    pivots = lu.U.diagonal()
    if np.abs(pivots).min() < 1e-10 * np.abs(a.data).max():
        raise FactorizationError("a pivot is too small to sign")
    return int(np.count_nonzero(pivots < 0))


def key_count(graph: MetricGraph, key: int, rng) -> int:
    """How many eigenvalues of F_n have continuum keys at most `key`.

    The count is von Below's (module docstring), taken at a point
    kappa = key + 1/2 + U(-1/4, 1/4) of the gap (key, key + 1), which holds
    no eigenvalue: theta = kappa pi L / 2, where sin theta is never 0.  A
    pivot too small to sign draws the point again from `rng`, four draws in
    all; then FactorizationError.
    """
    key = integer("key", key, 0)
    import numpy as np
    import scipy.sparse as sp

    nv, ne = graph.vertex_count, graph.edge_count
    u, v = graph.edges.T
    # COO -> CSR sums the parallel edges' entries
    adjacency = sp.csr_matrix((np.ones(2 * ne), (np.r_[u, v], np.r_[v, u])), shape=(nv, nv))
    degree = sp.diags(np.bincount(graph.edges.ravel(), minlength=nv).astype(float))
    for _ in range(4):
        theta = (key + 0.5 + rng.uniform(-0.25, 0.25)) * math.pi * graph.edge_length / 2.0
        try:
            below = _negative_count(math.cos(theta) * degree - adjacency)
        except FactorizationError:
            continue
        return ne * math.floor(theta / math.pi) + (below if math.sin(theta) > 0 else nv - below)
    raise FactorizationError(f"no point of the gap above key {key} gave a signed factor")


def mesh_spacing(graph: MetricGraph, points_per_edge: int) -> float:
    return graph.edge_length / (integer("points_per_edge", points_per_edge, 1) + 1)


def continuum_eigenvalues(
    graph: MetricGraph, points_per_edge: int, mesh_values: np.ndarray
) -> np.ndarray:
    """((2/h) arcsin(h sqrt(lambda_h) / 2))^2 for eigenvalues lambda_h of
    `discretize`: the continuum eigenvalues they stand for.  lambda_h is
    clipped to the spectral range [0, 4/h^2], which rounding can leave."""
    import numpy as np

    h = mesh_spacing(graph, points_per_edge)
    half_chord = np.clip(h * np.sqrt(np.clip(mesh_values, 0.0, None)) / 2.0, 0.0, 1.0)
    return (2.0 / h * np.arcsin(half_chord)) ** 2


def trust_cutoff(graph: MetricGraph, points_per_edge: int) -> float:
    """(0.8 pi / h)^2, i.e. k h <= 0.8 pi: continuum_eigenvalues' slope
    diverges at k h = pi, and up to here it enlarges relative errors at most
    2.5-fold."""
    h = mesh_spacing(graph, points_per_edge)
    return (0.8 * math.pi / h) ** 2
