"""Lowest eigenvalues of sparse symmetric PSD matrices, with clustering.

One path serves every dimension, a block shift-invert Krylov iteration:
the matrix is shifted negative (it is PSD, so A - sigma I is definite),
factorized once with sparse LU, and a block Krylov basis of the inverse is
grown with full reorthogonalization until Rayleigh-Ritz residuals certify
the requested pairs.  Blocks are essential here: the mesh Laplacians have
exactly degenerate eigenvalues (one copy per congruent shape), and a
single-vector Krylov space contains only one direction per eigenspace, so
multiplicities would come out short.  The starting block is deterministic (all-ones first
column, seeded Gaussian fill) so runs reproduce bit for bit.

Residual norms are reported relative to the matrix scale (largest diagonal
magnitude): res = ||A x - lambda x|| / (||x|| * scale).  Multiplicities
are read off computed values by greedy gap clustering, the same way a
numerical spectrum table is tabulated by eye.

scipy is imported on the first call of `lowest_eigenvalues`, so importing
this module costs no scipy load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .graphs import SparseSymmetricMatrix

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray  # ascending
    residual_norms: np.ndarray  # ||A x - lambda x|| / (||x|| * scale)
    k_requested: int
    k_converged: int


@dataclass(frozen=True)
class ClusteredSpectrum:
    clusters: tuple[tuple[float, int], ...]  # (representative, multiplicity)

    def representatives(self) -> list[float]:
        return [c[0] for c in self.clusters]

    def multiplicities(self) -> list[int]:
        return [c[1] for c in self.clusters]


def _matrix_scale(a: sp.csr_matrix) -> float:
    scale = float(np.abs(a.diagonal()).max())
    return scale if scale > 0 else 1.0


def _starting_block(dim: int, width: int, seed: int | None) -> np.ndarray:
    rng = np.random.default_rng(0 if seed is None else seed)
    block = rng.standard_normal((dim, width))
    block[:, 0] = 1.0  # all-ones lead vector
    q, _ = np.linalg.qr(block)
    return q


def lowest_eigenvalues(
    matrix: SparseSymmetricMatrix,
    k: int,
    tol: float = 1e-8,
    *,
    seed: int | None = None,
    block_size: int = 32,
) -> EigenResult:
    """The k algebraically smallest eigenvalues with residual certificates.

    block_size should be at least the largest expected eigenvalue
    multiplicity, or degenerate copies cannot all be captured.  The basis
    is capped at max(5k, k + 15 block_size) columns; on exhaustion the
    converged part is returned with k_converged < k rather than raising.
    """
    if k < 1:
        raise ValidationError(f"k {k} < 1")
    dim = matrix.dimension
    if k >= dim:
        raise ValidationError(f"k {k} must be below the dimension {dim}")
    if not tol > 0:
        raise ValidationError(f"tol {tol} must be > 0")
    if block_size < 1:
        raise ValidationError(f"block_size {block_size} < 1")
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    a = matrix.to_csr()
    scale = _matrix_scale(a)
    sigma = -1e-3 * scale
    lu = spla.splu((a - sigma * sp.identity(dim, format="csr")).tocsc())
    rng = np.random.default_rng(1 if seed is None else seed + 1)

    width = min(block_size, dim - 1)
    max_basis = min(dim, max(5 * k, k + 15 * width))
    basis = _starting_block(dim, width, seed)
    a_basis = a @ basis
    current = basis

    def rayleigh_ritz():
        t = basis.T @ a_basis
        t = (t + t.T) / 2.0
        theta, y = np.linalg.eigh(t)
        kk = min(k, basis.shape[1])
        x = basis @ y[:, :kk]
        ax = a_basis @ y[:, :kk]
        res = np.linalg.norm(ax - x * theta[:kk], axis=0) / scale
        return theta[:kk], res

    theta, res = rayleigh_ritz()
    while True:
        if basis.shape[1] >= k and np.all(res <= tol):
            break
        if basis.shape[1] >= max_basis or basis.shape[1] >= dim:
            break
        z = lu.solve(current)
        # full reorthogonalization, two passes for stability
        for _ in range(2):
            z -= basis @ (basis.T @ z)
        q, r = np.linalg.qr(z)
        dead = np.abs(np.diag(r)) < 1e-10
        if dead.any():
            q[:, dead] = rng.standard_normal((dim, int(dead.sum())))
            for _ in range(2):
                q -= basis @ (basis.T @ q)
            q, _ = np.linalg.qr(q)
        take = min(q.shape[1], max_basis - basis.shape[1], dim - basis.shape[1])
        if take <= 0:
            break
        q = q[:, :take]
        basis = np.hstack([basis, q])
        a_basis = np.hstack([a_basis, a @ q])
        current = q
        theta, res = rayleigh_ritz()

    order = np.argsort(theta)
    theta = np.asarray(theta)[order]
    res = np.asarray(res)[order]
    return EigenResult(
        values=theta,
        residual_norms=res,
        k_requested=k,
        k_converged=int(np.sum(res <= tol)),
    )


def cluster_multiplicities(values: np.ndarray, rel_gap: float) -> ClusteredSpectrum:
    """Greedy clustering of sorted values into (representative, multiplicity).

    A value joins the current cluster when its gap to the previous value is
    at most rel_gap * max(1, running cluster mean); the representative is
    the cluster mean.
    """
    if not 0 < rel_gap < 0.5:
        raise ValidationError(f"rel_gap {rel_gap} outside (0, 0.5)")
    if len(values) == 0:
        return ClusteredSpectrum(clusters=())
    clusters: list[tuple[float, int]] = []
    members = [float(values[0])]
    for prev, cur in zip(values[:-1], values[1:]):
        rep = float(np.mean(members))
        if cur - prev <= rel_gap * max(1.0, rep):
            members.append(float(cur))
        else:
            clusters.append((rep, len(members)))
            members = [float(cur)]
    clusters.append((float(np.mean(members)), len(members)))
    return ClusteredSpectrum(clusters=tuple(clusters))
