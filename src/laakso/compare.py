"""End-to-end comparison of the mesh eigensolver against the exact spectrum.

Builds F_n, discretizes it, computes the lowest eigenvalues and maps each
exactly onto its continuum value (graphs.continuum_eigenvalues), hence onto
the integer key m of lambda = (m pi / 2)^2.  Copies are counted per key, the
exact-integer merge of the analytic tables, and diffed against the level-n
table: one row per key either side has below the top returned key (which k
may cut) and the trust cutoff, with multiplicity 0 on a side that lacks it,
so a split, merged or missing cluster is one mismatched row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, integer
from .graphs import _chain_factor, build_graph, continuum_eigenvalues, discretize, trust_cutoff
from .sequences import JSequence, level_info
from .solver import cluster_multiplicities, lowest_eigenvalues
from .spectrum import eigenvalue_of_key, level_spectrum

_TOL = 1e-7  # residual bound each compared eigenpair must meet
_MAX_DIMENSION = 2**17  # mesh points; level 7 of 2,3 at m = 1 has 83,136


@dataclass(frozen=True)
class ComparisonRow:
    """One key; the numeric fields are None when the mesh returned no copy."""

    analytic_value: float
    analytic_multiplicity: int
    numeric_value: float | None  # mean continuum value of the copies
    numeric_multiplicity: int
    relative_error: float | None
    residual: float | None  # worst solver residual among the copies
    mesh_value: float | None  # mean raw mesh eigenvalue of the copies

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
    clusters: tuple[tuple[float, int], ...]  # per key: (mean continuum value, copies)
    rows: tuple[ComparisonRow, ...]

    @property
    def all_multiplicities_match(self) -> bool:
        return all(r.multiplicity_match for r in self.rows)

    @property
    def max_relative_error(self) -> float:
        return max(
            (r.relative_error for r in self.rows if r.numeric_multiplicity), default=0.0
        )

    @property
    def compared_converged(self) -> bool:
        """Every eigenvalue entering a compared row met its residual bound."""
        return all(r.residual <= self.tolerance for r in self.rows if r.numeric_multiplicity)


def compare_spectra(
    seq: JSequence,
    level: int,
    points_per_edge: int,
    k: int,
    *,
    seed: int | None = None,
) -> ComparisonReport:
    """The k lowest mesh eigenpairs of F_level, diffed per integer key against level_spectrum."""
    import numpy as np

    level = integer("level", level, 0)
    points_per_edge = integer("points_per_edge", points_per_edge, 1)
    k = integer("k", k, 2)  # k = 1 compares no key below the top returned one
    if seed is not None:
        seed = integer("seed", seed, 0)
    info = level_info(seq, level)
    points = info.nodes + info.cells * points_per_edge
    if points > _MAX_DIMENSION:
        raise ValidationError(
            f"the level-{level} mesh with m = {points_per_edge} has {points} "
            f"points, over {_MAX_DIMENSION}"
        )
    graph = build_graph(seq, level)
    matrix = discretize(graph, points_per_edge)
    k = min(k, matrix.dimension - 1)
    cutoff = trust_cutoff(graph, points_per_edge)
    analytic = level_spectrum(seq, level, cutoff).entries
    # degenerate clusters are only fully captured with a block at least as
    # wide as the copies a cluster must supply to the k lowest
    widest, running = 8, 0
    for e in analytic:
        if running >= k:
            break
        widest = max(widest, min(e.multiplicity, k - running))
        running += e.multiplicity
    block = min(widest + 4, k + 8)
    factor = _chain_factor(graph, points_per_edge)
    result = lowest_eigenvalues(matrix, k, tol=_TOL, seed=seed, block_size=block, factor=factor)

    mapped = continuum_eigenvalues(graph, points_per_edge, result.values)
    keys = np.rint(2.0 * np.sqrt(mapped) / math.pi).astype(np.int64)
    members = cluster_multiplicities(keys)
    exact = {e.m: e.multiplicity for e in analytic}
    rows = []
    for key in sorted(exact.keys() | members.keys()):
        value = eigenvalue_of_key(key)
        if key >= keys[-1] or value > cutoff:
            break
        idx = members.get(key, ())
        numeric = mesh = rel = residual = None
        if len(idx):
            numeric = float(mapped[idx].mean())
            mesh = float(result.values[idx].mean())
            rel = abs(numeric - value) / value if value else abs(numeric)
            residual = float(result.residual_norms[idx].max())
        rows.append(
            ComparisonRow(
                analytic_value=value,
                analytic_multiplicity=exact.get(key, 0),
                numeric_value=numeric,
                numeric_multiplicity=len(idx),
                relative_error=rel,
                residual=residual,
                mesh_value=mesh,
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
        clusters=tuple((float(mapped[idx].mean()), len(idx)) for idx in members.values()),
        rows=tuple(rows),
    )
