"""End-to-end comparison of the mesh eigensolver against the exact spectrum.

Builds F_n and solves the k lowest eigenvalues of its mesh where they live:
the functions even under the copy swaps of levels r + 1 .. n are the mesh of
F_r at the same spacing h, and below key I_(r+1) the F_n mesh has no other
eigenvalue (graphs' docstring).  So compare solves F_r for the largest r
with I_r at most the key of the k-th copy, the top level the table walk
that sizes the block meets, and certifies it on F_n: a Sylvester count on
the graph F_n (graphs.key_count) below the top returned key must equal the
values returned below it.  A count that differs or cannot be formed sends compare
to the F_n mesh itself, so the rows are those of an F_n solve either way.
Each value is mapped exactly onto its continuum value
(graphs.continuum_eigenvalues), hence onto the integer key m of
lambda = (m pi / 2)^2.  Copies are counted per key, the exact-integer merge
of the analytic tables, and diffed against the level-n table: one row per
key either side has below the top returned key (which k may cut) and the
trust cutoff, with multiplicity 0 on a side that lacks it, so a split,
merged or missing cluster is one mismatched row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import FactorizationError, ValidationError, integer
from .graphs import (
    build_graph,
    chain_factor,
    continuum_eigenvalues,
    discretize,
    key_count,
    trust_cutoff,
)
from .sequences import JSequence, level_info
from .solver import cluster_multiplicities, lowest_eigenvalues
from .spectrum import _first_key_bound, eigenvalue_of_key, level_spectrum

_TOL = 1e-7  # residual bound each compared eigenpair must meet
_MAX_DIMENSION = 2**17  # mesh points; level 7 of 2,3 at m = 1 has 83,136


class ComparisonRow(NamedTuple):
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


class ComparisonReport(NamedTuple):
    k_requested: int
    k_converged: int
    matrix_dimension: int  # of the F_n mesh, whichever level was solved
    trust_cutoff: float
    tolerance: float
    clusters: tuple[tuple[float, int], ...]  # per key: (mean continuum value, copies)
    rows: tuple[ComparisonRow, ...]
    solved_level: int  # r: the solve ran on the sector discretize(F_r, m_r)
    # for r < n, a Sylvester count on the graph F_n below the top returned
    # key; it equals the returned values below that key.  None for r = n
    certificate: int | None

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
    seed: int = 0,
) -> ComparisonReport:
    """The k lowest mesh eigenpairs of F_level, diffed per integer key against level_spectrum.

    Below the trust cutoff, the table reaches first_distinct's key bound for the
    first k copies, or the top returned key when missed copies put it further.
    The solve runs on F_r, r the top level the block walk meets; below level,
    a Sylvester count on the graph F_level certifies it, or F_level is solved.
    """
    import numpy as np

    level = integer("level", level, 0)
    points_per_edge = integer("points_per_edge", points_per_edge, 1)
    k = integer("k", k, 2)  # k = 1 compares no key below the top returned one
    seed = integer("seed", seed, 0)
    info = level_info(seq, level)
    points = info.nodes + info.cells * points_per_edge
    if points > _MAX_DIMENSION:
        raise ValidationError(
            f"the level-{level} mesh with m = {points_per_edge} has {points} "
            f"points, over {_MAX_DIMENSION}"
        )
    graph = build_graph(seq, level)
    k = min(k, points - 1)
    cutoff = trust_cutoff(graph, points_per_edge)
    reach = _first_key_bound(k)  # the block walk reads no key past it
    analytic = level_spectrum(seq, level, min(cutoff, eigenvalue_of_key(reach))).entries
    # degenerate clusters are only fully captured with a block at least as
    # wide as the copies a cluster must supply to the k lowest.  Its top
    # level is the sector r: level s has a V family at key I_s and no key
    # below, so the walk meets level s exactly when I_s <= the k-th copy's
    # key.  A cutoff that stops the walk first lies at key 1.6 (m + 1) I_level,
    # past I_level, so r = level.  The sector mesh has more than k points:
    # the k copies and, being bipartite, 4 / h^2 above them
    widest, running, solved = 8, 0, 0
    for e in analytic:
        if running >= k:
            break
        widest = max(widest, min(e.multiplicity, k - running))
        running += e.multiplicity
        solved = max(solved, *(c.level for c in e.contributions))
    block = min(widest + 4, k + 8)

    def solve(graph, m):
        """The k lowest pairs of graph's mesh, and their integer keys."""
        matrix = discretize(graph, m)
        result = lowest_eigenvalues(
            matrix, k, tol=_TOL, seed=seed, block_size=block, factor=chain_factor(graph, m)
        )
        mapped = continuum_eigenvalues(graph, m, result.values)
        return result, mapped, np.rint(2.0 * np.sqrt(mapped) / math.pi).astype(np.int64)

    count = None
    if solved < level:  # the sector keeps h: m_r = (m + 1) I_level / I_r - 1
        solved_m = (points_per_edge + 1) * info.scale // seq.scale(solved) - 1
        result, mapped, keys = solve(build_graph(seq, solved), solved_m)
        rng = np.random.default_rng(seed)
        try:
            count = key_count(graph, int(keys[-1]) - 1, rng)
        except FactorizationError:
            pass
        if count != np.count_nonzero(keys < keys[-1]):  # not certified: solve F_level
            solved, count = level, None
    if solved == level:
        result, mapped, keys = solve(graph, points_per_edge)
    members = cluster_multiplicities(keys)
    if keys[-1] > reach:  # copies were missed, so the rows run to the top returned key
        analytic = level_spectrum(seq, level, min(cutoff, eigenvalue_of_key(int(keys[-1])))).entries
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
        k_requested=k,
        k_converged=result.k_converged,
        matrix_dimension=points,
        trust_cutoff=cutoff,
        tolerance=_TOL,
        clusters=tuple((float(mapped[idx].mean()), len(idx)) for idx in members.values()),
        rows=tuple(rows),
        solved_level=solved,
        certificate=count,
    )
