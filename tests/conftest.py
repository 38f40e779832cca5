"""Shared test helpers: an independent census of a built graph's components,
and SuperLU on the assembled matrix as the reference factor."""

import numpy as np

from laakso import SparseSymmetricMatrix, build_graph
from laakso.sequences import JSequence


def superlu_factor(matrix: SparseSymmetricMatrix):
    """factor(sigma) -> solve(B) = (matrix - sigma I)^-1 B by SuperLU on the
    assembled matrix: the reference that chain_factor is checked against,
    and a factor for any matrix, one no graph describes included."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    a = matrix.to_csr()

    def factor(sigma: float):
        return spla.splu((a - sigma * sp.identity(a.shape[0], format="csr")).tocsc()).solve

    return factor


def cut_copy_census(seq: JSequence, n: int) -> tuple[int, int, int]:
    """(arms, segments, stars): the components of copy 0 of F_n, cut at the
    vertices glued at step n, by direct graph inspection.

    Copy 0 is the first half of build_graph's edges, and its glued vertices
    are the ones both halves touch, so no count formula is consulted.  Every
    edge end at a glued vertex gets its own tip; a component with no old
    vertex is a segment, one with one edge an arm, one with four edges a star.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    edges = build_graph(seq, n).edges
    copy, other = np.split(edges, 2)
    glued = np.isin(copy, other)
    ends = copy.copy()
    ends[glued] = edges.max() + 1 + np.arange(np.count_nonzero(glued))
    _, ends = np.unique(ends.ravel(), return_inverse=True)
    ends = ends.reshape(-1, 2)
    size = ends.max() + 1
    links = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(size, size))
    count, labels = connected_components(links, directed=False)
    edge_counts = np.bincount(labels[ends[:, 0]], minlength=count)
    has_old = np.zeros(count, dtype=bool)
    has_old[labels[ends[~glued]]] = True
    segments = np.count_nonzero(~has_old)
    arms = np.count_nonzero(has_old & (edge_counts == 1))
    stars = np.count_nonzero(has_old & (edge_counts == 4))
    assert arms + segments + stars == count
    return arms, segments, stars
