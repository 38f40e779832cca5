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

numpy is imported on first use (the graph and mesh arrays) and scipy on
first use of the mesh route (CSR assembly and conversion), so importing this
module loads neither.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import integer
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
    A = discretize(graph, points_per_edge) and any sigma < 0; mesh_spacing
    validates points_per_edge.

    The m interior points of every edge form the same m x m tridiagonal
    block C = (2/h^2 - sigma) I - (1/h^2) (off-diagonals), tied to its end
    vertices u, v only through its first and last point, with weights
    c = -(1/h^2) sqrt(2/deg).  Eliminating the E chains leaves a V x V
    Schur complement on the vertices of F_n, (2/h^2 - sigma) I - gather pull:
    pull (E m x V) holds each chain end's weight c on its vertex, and
    gather = pull' (I kron C^-1) needs only C^-1's end rows.  Per edge that
    is c_u^2 C^-1_00 at (u, u), c_v^2 C^-1_(m-1,m-1) at (v, v) and
    c_u c_v C^-1_(0,m-1) at (u, v) and (v, u).  C is factored once by
    LAPACK's tridiagonal Cholesky (pttrf) and serves every chain, at a few
    flops per point for any m; the Schur complement is factored once by
    SuperLU.  A solve takes one right-hand side column at a time, the
    vertex solve aside: b_V - gather b_chains, the vertex solve, then
    b_chains - pull x_V and one sweep of C.  So it forms no array of every
    chain's two end values per column; at m = 1 one would be larger than
    the solution block.
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
        d, e, _ = lapack.dpttrf(np.full(m, diagonal), np.full(max(m - 1, 1), -inv_h2))
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
