"""End-to-end comparison of the mesh eigensolver against the exact spectrum.

Builds F_n, discretizes it, computes the lowest eigenvalues, clusters them
into (value, multiplicity) pairs, and diffs the clusters against the
level-n analytic table.  Only clusters below the discretization trust
cutoff (0.1/h)^2 participate, and the final cluster is dropped when the
eigenvalue count truncates mid-cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import build_graph, discretize, trust_cutoff
from .sequences import JSequence
from .solver import cluster_multiplicities, lowest_eigenvalues
from .spectrum import level_spectrum

_TOL = 1e-7  # residual bound each compared eigenpair must meet


@dataclass(frozen=True)
class ComparisonRow:
    analytic_value: float
    analytic_multiplicity: int
    numeric_value: float
    numeric_multiplicity: int
    relative_error: float
    residual: float  # worst solver residual among the cluster members

    @property
    def multiplicity_match(self) -> bool:
        return self.analytic_multiplicity == self.numeric_multiplicity


@dataclass(frozen=True)
class ComparisonReport:
    sequence: str
    level: int
    points_per_edge: int
    k_requested: int
    k_converged: int
    matrix_dimension: int
    trust_cutoff: float
    tolerance: float
    clusters: tuple[tuple[float, int], ...]  # raw numeric (value, multiplicity)
    rows: tuple[ComparisonRow, ...]

    @property
    def all_multiplicities_match(self) -> bool:
        return all(r.multiplicity_match for r in self.rows)

    @property
    def max_relative_error(self) -> float:
        return max((r.relative_error for r in self.rows), default=0.0)

    @property
    def compared_converged(self) -> bool:
        """Every eigenvalue entering a compared row met its residual bound."""
        return all(r.residual <= self.tolerance for r in self.rows)


def compare_spectra(
    seq: JSequence,
    level: int,
    points_per_edge: int,
    k: int,
    *,
    rel_gap: float = 0.01,
    seed: int | None = None,
) -> ComparisonReport:
    graph = build_graph(seq, level)
    matrix = discretize(graph, points_per_edge)
    k = min(k, matrix.dimension - 1)
    cutoff = trust_cutoff(graph, points_per_edge)
    analytic = level_spectrum(seq, level, cutoff).entries
    # degenerate clusters are only fully captured with a block at least as
    # wide as the largest multiplicity in play (capped near k: clusters far
    # beyond the requested count never enter the comparison)
    relevant = []
    running = 0
    for e in analytic:
        relevant.append(e.multiplicity)
        running += e.multiplicity
        if running > k:
            break
    block = min(max([8] + relevant) + 4, k + 8)
    result = lowest_eigenvalues(matrix, k, tol=_TOL, seed=seed, block_size=block)
    clusters = cluster_multiplicities(result.values, rel_gap)

    usable = list(clusters.clusters)
    if len(usable) > 1:
        usable = usable[:-1]  # the last cluster may be cut by the k limit
    rows = []
    consumed = 0
    for (num_val, num_mult), entry in zip(usable, analytic):
        if num_val > cutoff or entry.value > cutoff:
            break
        exact = entry.value
        rel = abs(num_val - exact) / exact if exact else abs(num_val)
        residual = float(
            result.residual_norms[consumed : consumed + num_mult].max()
        )
        consumed += num_mult
        rows.append(
            ComparisonRow(
                analytic_value=exact,
                analytic_multiplicity=entry.multiplicity,
                numeric_value=num_val,
                numeric_multiplicity=num_mult,
                relative_error=rel,
                residual=residual,
            )
        )
    return ComparisonReport(
        sequence=seq.spec_string(),
        level=level,
        points_per_edge=points_per_edge,
        k_requested=k,
        k_converged=result.k_converged,
        matrix_dimension=matrix.dimension,
        trust_cutoff=cutoff,
        tolerance=_TOL,
        clusters=clusters.clusters,
        rows=tuple(rows),
    )
