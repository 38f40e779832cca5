"""Metric-graph approximants F_n and their discretized Laplacians.

F_0 is the unit interval.  F_n arises from F_{n-1} by splitting every edge
into j_n equal parts, duplicating the whole graph, and gluing the two copies
of each newly inserted vertex (pre-existing vertices keep both copies).  All
edges of F_n have length 1/I_n and every vertex has degree 1 or 4.

The Laplacian -d^2/dx^2 with Kirchhoff vertex conditions is discretized by
putting m interior mesh points on each edge (spacing h = L/(m+1)) and
assembling the mass-weighted second-difference operator: stiffness links of
weight 1/h, diagonal mass h at interior points and deg*h/2 at vertices.  The
returned operator is the symmetric similarity transform M^(-1/2) K M^(-1/2),
whose eigenvalues approximate the Kirchhoff spectrum to second order in h.

scipy is imported on first use (CSR assembly and conversion), so importing
this module costs no scipy load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .sequences import JSequence

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class MetricGraph:
    """F_n as vertices 0..vertex_count-1 plus equilateral edges.

    Parallel edges are real (loops in the construction) so `edges` is a
    tuple of index pairs, not a set.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    edge_length: float
    level: int

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.vertex_count, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def degree_histogram(self) -> dict[int, int]:
        deg = self.degrees()
        values, counts = np.unique(deg, return_counts=True)
        return {int(d): int(c) for d, c in zip(values, counts)}

    def to_edge_list_text(self) -> str:
        """Header "<vertices> <edges>", then one "u v length" per line."""
        lines = [f"{self.vertex_count} {self.edge_count}"]
        for u, v in self.edges:
            lines.append(f"{u} {v} {self.edge_length!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SparseSymmetricMatrix:
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

    def to_matrix_market(self, path) -> None:
        from scipy.io import mmwrite

        mmwrite(str(path), self.to_csr().tocoo())

    @staticmethod
    def from_csr(mat: sp.csr_matrix) -> "SparseSymmetricMatrix":
        mat = mat.tocsr()
        mat.sum_duplicates()
        return SparseSymmetricMatrix(
            dimension=mat.shape[0],
            indptr=mat.indptr,
            indices=mat.indices,
            data=mat.data,
        )


def build_graph(seq: JSequence, n: int) -> MetricGraph:
    """Construct F_n by n rounds of subdivide, duplicate, identify."""
    if n < 0:
        raise ValidationError(f"level {n} < 0")
    vertex_count = 2
    edges: list[tuple[int, int]] = [(0, 1)]
    scale = 1
    for step in range(1, n + 1):
        j = seq.j(step)
        scale *= j
        # subdivide: each edge gains j-1 fresh vertices, becoming a j-chain
        sub_edges: list[tuple[int, int]] = []
        next_new = vertex_count
        for u, v in edges:
            chain = [u] + list(range(next_new, next_new + j - 1)) + [v]
            next_new += j - 1
            sub_edges.extend((chain[i], chain[i + 1]) for i in range(j))
        n_old = vertex_count
        n_new = next_new - vertex_count
        # duplicate and identify: old vertex x becomes 2x+copy, new vertex w
        # (index w >= n_old) is shared by both copies at slot 2*n_old + (w - n_old)

        def relabel(x: int, copy: int) -> int:
            if x < n_old:
                return 2 * x + copy
            return 2 * n_old + (x - n_old)

        edges = [
            (relabel(u, copy), relabel(v, copy))
            for copy in (0, 1)
            for u, v in sub_edges
        ]
        vertex_count = 2 * n_old + n_new
    return MetricGraph(
        vertex_count=vertex_count,
        edges=tuple(edges),
        edge_length=1.0 / scale,
        level=n,
    )


def _assemble(graph: MetricGraph, points_per_edge: int):
    """Stiffness matrix and mass diagonal of the mesh (generalized form)."""
    if points_per_edge < 1:
        raise ValidationError(f"points_per_edge {points_per_edge} < 1")
    import scipy.sparse as sp

    m = points_per_edge
    nv = graph.vertex_count
    ne = graph.edge_count
    h = graph.edge_length / (m + 1)
    dim = nv + ne * m

    # chain along edge e: u, nv+e*m, ..., nv+e*m+m-1, v
    ends = np.asarray(graph.edges, dtype=np.int64).reshape(ne, 2)
    interior = nv + np.arange(ne * m, dtype=np.int64).reshape(ne, m)
    chains = np.hstack((ends[:, :1], interior, ends[:, 1:]))
    rows = chains[:, :-1].ravel()
    cols = chains[:, 1:].ravel()

    # off-diagonal links of weight -1/h both ways, degree * 1/h on the diagonal
    w = 1.0 / h
    deg = np.bincount(np.concatenate((rows, cols)), minlength=dim)
    diagonal = np.arange(dim)
    stiffness = sp.csr_matrix(
        (
            np.concatenate((np.full(2 * rows.size, -w), w * deg)),
            (np.concatenate((rows, cols, diagonal)), np.concatenate((cols, rows, diagonal))),
        ),
        shape=(dim, dim),
    )

    mass = np.full(dim, h)
    mass[:nv] = deg[:nv] * (h / 2.0)
    return stiffness, mass


def discretize_weighted(
    graph: MetricGraph, points_per_edge: int
) -> tuple[SparseSymmetricMatrix, np.ndarray]:
    """Stiffness matrix K and mass diagonal M of the generalized problem
    K x = lambda M x.  K is symmetric, positive semidefinite, and has zero
    row sums (it annihilates constants)."""
    stiffness, mass = _assemble(graph, points_per_edge)
    return SparseSymmetricMatrix.from_csr(stiffness), mass


def discretize(graph: MetricGraph, points_per_edge: int) -> SparseSymmetricMatrix:
    """Ordinary symmetric operator M^(-1/2) K M^(-1/2).

    Interior rows reduce to the standard second difference
    (2u_i - u_{i-1} - u_{i+1})/h^2; a degree-d vertex row enforces the
    Kirchhoff zero-derivative-sum condition at second-order consistency.
    The kernel vector is sqrt(M) * 1, not the plain constant.
    """
    stiffness, mass = _assemble(graph, points_per_edge)
    inv_sqrt = 1.0 / np.sqrt(mass)
    rows = np.repeat(np.arange(stiffness.shape[0]), np.diff(stiffness.indptr))
    stiffness.data *= inv_sqrt[rows] * inv_sqrt[stiffness.indices]
    return SparseSymmetricMatrix.from_csr(stiffness)


def mesh_spacing(graph: MetricGraph, points_per_edge: int) -> float:
    return graph.edge_length / (points_per_edge + 1)


def trust_cutoff(graph: MetricGraph, points_per_edge: int) -> float:
    """Discretization errors scale like h^2 * lambda; eigenvalues above
    (0.1/h)^2 are not compared against analytic values."""
    h = mesh_spacing(graph, points_per_edge)
    return (0.1 / h) ** 2
