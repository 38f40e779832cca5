"""Shared test helpers: independent brute-force oracles over built graphs,
and SuperLU on the assembled matrix as the reference factor."""

from collections import Counter, defaultdict

from laakso import MetricGraph, SparseSymmetricMatrix, build_graph
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


def _adjacency(graph: MetricGraph) -> dict[int, Counter]:
    adj: dict[int, Counter] = defaultdict(Counter)
    for u, v in graph.edges:
        adj[u][v] += 1
        adj[v][u] += 1
    return adj


def parallel_pair_count(graph: MetricGraph) -> int:
    """Unordered vertex pairs joined by two parallel edges (= loop shapes)."""
    adj = _adjacency(graph)
    return sum(1 for u, c in adj.items() for v, mult in c.items() if u < v and mult == 2)


def co_neighbor_pair_count(graph: MetricGraph) -> int:
    """Nonadjacent degree-4 pairs whose four (distinct) neighbors coincide."""
    adj = _adjacency(graph)
    degree = {v: sum(c.values()) for v, c in adj.items()}
    groups: dict[tuple, list[int]] = defaultdict(list)
    for vertex, c in adj.items():
        if degree[vertex] != 4:
            continue
        groups[tuple(sorted(c.elements()))].append(vertex)
    count = 0
    for key, members in groups.items():
        if len(members) == 2 and len(set(key)) == 4:
            a, b = members
            if adj[a][b] == 0:
                count += 1
    return count


def brute_force_census(seq: JSequence, n: int) -> tuple[int, int, int]:
    """(v_count, loop_count, cross_count) of F_n by direct graph inspection.

    V's are degree-1 tips paired off; loops are parallel-edge pairs; crosses
    are co-neighbor K_{2,4} pairs.  One wrinkle: when the new subdivision
    step is binary (j_n = 2), the two midpoints of each parent loop's
    parallel edges also land in a K_{2,4} co-neighbor configuration, so the
    parent graph's measured loop count is subtracted.  Everything here is
    measured on constructed graphs; no closed-form counts are consulted.
    """
    graph = build_graph(seq, n)
    adj = _adjacency(graph)
    degree = {v: sum(c.values()) for v, c in adj.items()}

    tips = sum(1 for d in degree.values() if d == 1)
    assert tips % 2 == 0
    v_count = tips // 2
    loop_count = parallel_pair_count(graph)

    cross_count = co_neighbor_pair_count(graph)
    if n >= 2 and seq.j(n) == 2:
        cross_count -= parallel_pair_count(build_graph(seq, n - 1))
    return v_count, loop_count, cross_count
