"""Lowest eigenvalues of sparse symmetric PSD matrices, and their multiplicities.

One path serves every dimension, a block shift-invert Krylov iteration:
the matrix is shifted negative (it is PSD, so A - sigma I is definite),
factorized once with sparse LU, and a block Krylov basis of the inverse is
grown with full reorthogonalization until Rayleigh-Ritz residuals certify
the requested pairs.  Blocks are essential here: the mesh Laplacians have
exactly degenerate eigenvalues (one copy per congruent shape), and a
single-vector Krylov space contains only one direction per eigenspace, so
multiplicities would come out short.  The starting block is deterministic (all-ones first
column, seeded Gaussian fill) so runs reproduce bit for bit.

The basis lives in one preallocated Fortran-order dim x max_basis buffer,
and the projected matrix basis.T A basis is grown one block at a time: each
step projects only the new block.  A times the basis is never stored; the
residuals come from a sparse product on the k Ritz vectors.  Memory is
therefore about one dim x max_basis buffer plus the LU factors.

Residual norms are reported relative to the matrix scale (largest diagonal
magnitude): res = ||A x - lambda x|| / (||x|| * scale).  Multiplicities
are counted, not guessed from gaps: once each computed value carries an
exact integer label (compare maps mesh eigenvalues onto their continuum
keys), cluster_multiplicities groups equal labels.

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
    iterations: int  # Krylov steps taken after the starting block
    basis_width: int  # basis columns used, at most max(5k, k + 15 block_size)


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
    if not 0 < tol < np.inf:
        raise ValidationError(f"tol {tol} must be finite and > 0")
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
    basis = np.empty((dim, max_basis), order="F")
    t = np.empty((max_basis, max_basis))  # projected matrix basis.T A basis
    q = _starting_block(dim, width, seed)
    n = steps = 0
    while True:
        # append the block and project A onto it: t gains a column and a row block
        w = q.shape[1]
        basis[:, n : n + w] = q
        t[: n + w, n : n + w] = basis[:, : n + w].T @ (a @ q)
        t[n : n + w, :n] = t[:n, n : n + w].T
        n += w
        v = basis[:, :n]
        theta, y = np.linalg.eigh(t[:n, :n])
        theta = theta[:k]
        x = v @ y[:, :k]
        res = np.linalg.norm(a @ x - x * theta, axis=0) / scale
        if (n >= k and np.all(res <= tol)) or n >= max_basis:
            break
        z = lu.solve(q)
        # full reorthogonalization, two passes for stability
        for _ in range(2):
            z -= v @ (v.T @ z)
        q, r = np.linalg.qr(z)
        dead = np.abs(np.diag(r)) < 1e-10
        if dead.any():
            q[:, dead] = rng.standard_normal((dim, int(dead.sum())))
            for _ in range(2):
                q -= v @ (v.T @ q)
            q, _ = np.linalg.qr(q)
        q = q[:, : max_basis - n]
        steps += 1

    return EigenResult(
        values=theta,
        residual_norms=res,
        k_requested=k,
        k_converged=int(np.sum(res <= tol)),
        iterations=steps,
        basis_width=n,
    )


def cluster_multiplicities(keys: np.ndarray) -> dict[int, np.ndarray]:
    """The positions of each distinct integer key, in ascending key order.

    Equal keys are one eigenvalue, so each group's size is its multiplicity:
    no gap tolerance decides where a cluster ends.  The benchmark declares
    this step's time as the per-layer metric solver.cluster_multiplicities.s.
    """
    return {int(key): np.flatnonzero(keys == key) for key in np.unique(keys)}
