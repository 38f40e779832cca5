"""Lowest eigenvalues of sparse symmetric PSD matrices, and their multiplicities.

One path serves every dimension, a block shift-invert Krylov iteration:
the matrix is shifted just below zero, sigma = -1e-4 scale (it is PSD, so
A - sigma I is definite), factorized once, and a block Krylov basis of the
inverse is grown with full reorthogonalization until Rayleigh-Ritz
residuals certify the requested pairs.  The factorization is SuperLU on
the assembled matrix unless the caller passes a `factor`: the mesh callers
pass graphs._chain_factor, which solves the identical edge chains of the
mesh together and factors only a Schur complement on the graph's
vertices.  Blocks are essential here: the mesh Laplacians have exactly
degenerate eigenvalues (one copy per congruent shape), and a single-vector
Krylov space contains only one direction per eigenspace, so multiplicities
would come out short.  The starting block is deterministic (all-ones
first column, seeded Gaussian fill) so runs reproduce bit for bit.

The basis lives in one preallocated Fortran-order dim x max_basis buffer,
and the projected matrices T = basis.T A basis and G = basis.T A^2 basis
are grown one block at a time, from A q and A (A q) of the new block q.
A times the basis is never stored.  Each step estimates every Ritz
residual from the projection alone, ||A x - theta x||^2 = y'Gy - theta^2
for the Ritz vector x = basis y; only when every estimate is within
rounding of the tolerance (or the basis is full) are the k Ritz vectors
formed (transposed, as (y' basis')', which needs no BLAS scratch beyond
the result) and their explicit residuals, the certificate, computed.  A
step whose explicit residuals fail goes on growing the basis.  New blocks are
orthonormalized by Cholesky-QR2, with Householder QR as the error path.
Memory is therefore about one dim x max_basis buffer plus the factors.

Residual norms are reported relative to the matrix scale (largest diagonal
magnitude): res = ||A x - lambda x|| / (||x|| * scale).  Multiplicities
are counted, not guessed from gaps: once each computed value carries an
exact integer label (compare maps mesh eigenvalues onto their continuum
keys), cluster_multiplicities groups equal labels.

numpy is imported on first use and scipy on the first call of
`lowest_eigenvalues`, so importing this module loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING, Callable

from .errors import ValidationError
from .graphs import SparseSymmetricMatrix

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

_MAX_BASIS_ENTRIES = 2**27  # doubles in the dim x max_basis buffer: 1 GiB
# sigma / scale.  Nearer 0 the wanted eigenvalues separate better under
# (A - sigma I)^-1: one to four Krylov steps fewer than at -1e-3 on the
# benchmark meshes and at levels 6 and 7.  Deeper shifts save no further
# step there, while the solve's rounding grows with the condition number
# 2 scale / |sigma|: the largest error against eigvalsh on 3,4 at level 2
# (m = 1, all 77 pairs) is 3e-11 here, 3e-10 at -1e-5 and 4e-9 at -1e-6.
_SHIFT = -1e-4


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray  # ascending
    residual_norms: np.ndarray  # ||A x - lambda x|| / (||x|| * scale)
    k_requested: int
    k_converged: int
    iterations: int  # Krylov steps taken after the starting block
    basis_width: int  # basis columns used, at most max(5k, k + 15 block_size)
    # largest projected residual estimate (relative, like residual_norms) per
    # Rayleigh-Ritz step, iterations + 1 of them; rounding puts a floor under
    # it, 4e-9 to 6e-9 on the benchmark meshes
    residual_history: np.ndarray


def _matrix_scale(a: sp.csr_matrix) -> float:
    import numpy as np

    scale = float(np.abs(a.diagonal()).max())
    return scale if scale > 0 else 1.0


def _superlu_factor(a: sp.csr_matrix):
    """factor(sigma) -> solve(B) = (a - sigma I)^-1 B by SuperLU on the assembled matrix."""

    def factor(sigma: float):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        return spla.splu((a - sigma * sp.identity(a.shape[0], format="csr")).tocsc()).solve

    return factor


def _starting_block(dim: int, width: int, seed: int | None) -> np.ndarray:
    import numpy as np

    rng = np.random.default_rng(0 if seed is None else seed)
    block = rng.standard_normal((dim, width))
    block[:, 0] = 1.0  # all-ones lead vector
    q, _ = np.linalg.qr(block)
    return q


def _project_out(z: np.ndarray, v: np.ndarray) -> None:
    """z -= v v'z in place, in two passes (full reorthogonalization).

    The product is formed transposed so that it lands in column order like
    z and the basis: 1.6x faster than v @ (v.T @ z) on a 19,632 x 360 basis.
    """
    for _ in range(2):
        z -= ((z.T @ v) @ v.T).T


def _orthonormalize(z: np.ndarray, v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An orthonormal block as wide as z, spanning z's columns with v's span removed.

    z (overwritten) is projected off v's orthonormal columns, then
    orthonormalized by Cholesky-QR2: two Gram products and two small
    triangular factors.  Householder QR is the error path, taken when the
    first factor fails or has a diagonal below 1e-10, or when the first
    pass's output is further than 1/2 (Frobenius) from orthonormal; it
    refills each column with |r_ii| < 1e-10 at random, then projects v out
    again and re-orthonormalizes, since a nearly dependent z amplifies its
    rounding-level overlap with v by 1 / min |r_ii|.
    """
    import numpy as np

    _project_out(z, v)
    try:
        r = np.linalg.cholesky(z.T @ z, upper=True)
    except np.linalg.LinAlgError:
        r = None
    if r is not None and np.diag(r).min() >= 1e-10:
        q = z @ np.linalg.inv(r)
        gram = q.T @ q
        if np.linalg.norm(gram - np.eye(len(gram))) <= 0.5:
            return q @ np.linalg.inv(np.linalg.cholesky(gram, upper=True))
    q, r = np.linalg.qr(z)
    dead = np.abs(np.diag(r)) < 1e-10
    q[:, dead] = rng.standard_normal((len(q), int(dead.sum())))
    _project_out(q, v)
    q, _ = np.linalg.qr(q)
    return q


def lowest_eigenvalues(
    matrix: SparseSymmetricMatrix,
    k: int,
    tol: float = 1e-8,
    *,
    seed: int | None = None,
    block_size: int = 32,
    factor: Callable[[float], Callable[[np.ndarray], np.ndarray]] | None = None,
) -> EigenResult:
    """The k algebraically smallest eigenvalues with residual certificates.

    block_size should be at least the largest expected eigenvalue
    multiplicity, or degenerate copies cannot all be captured.  The basis
    is capped at max(5k, k + 15 block_size) columns; on exhaustion the
    converged part is returned with k_converged < k rather than raising.
    A basis of more than 2^27 doubles (1 GiB) is refused before the
    factorization.  `factor(sigma)` returns solve(B) = (matrix - sigma I)^-1 B
    for a sigma < 0; None factors the assembled matrix with SuperLU.
    """
    import numpy as np

    for name, value in (("k", k), ("block_size", block_size)):
        if not isinstance(value, Integral):
            raise ValidationError(f"{name} {value!r} is not an integer")
    if seed is not None and not (isinstance(seed, Integral) and seed >= 0):
        raise ValidationError(f"seed {seed!r} must be an integer >= 0")
    if k < 1:
        raise ValidationError(f"k {k} < 1")
    dim = matrix.dimension
    if k >= dim:
        raise ValidationError(f"k {k} must be below the dimension {dim}")
    if not 0 < tol < np.inf:
        raise ValidationError(f"tol {tol} must be finite and > 0")
    if block_size < 1:
        raise ValidationError(f"block_size {block_size} < 1")
    width = min(block_size, dim - 1)
    max_basis = min(dim, max(5 * k, k + 15 * width))
    if dim * max_basis > _MAX_BASIS_ENTRIES:
        raise ValidationError(
            f"a {dim} x {max_basis} basis exceeds {_MAX_BASIS_ENTRIES} doubles; "
            "lower k or the dimension"
        )
    a = matrix.to_csr()
    scale = _matrix_scale(a)
    solve = (factor or _superlu_factor(a))(_SHIFT * scale)
    rng = np.random.default_rng(1 if seed is None else seed + 1)

    basis = np.empty((dim, max_basis), order="F")
    t = np.empty((max_basis, max_basis))  # projected matrix basis.T A basis
    g = np.empty((max_basis, max_basis))  # basis.T A^2 basis, for the estimates
    history = []
    q = _starting_block(dim, width, seed)
    n = steps = 0
    while True:
        # append the block; t and g each gain a column block and a row block
        w = q.shape[1]
        aq = a @ q
        basis[:, n : n + w] = q
        q, v = basis[:, n : n + w], basis[:, : n + w]
        t[: n + w, n : n + w] = v.T @ aq
        aq = a @ aq
        g[: n + w, n : n + w] = v.T @ aq
        del aq
        t[n : n + w, :n] = t[:n, n : n + w].T
        g[n : n + w, :n] = g[:n, n : n + w].T
        n += w
        theta, y = np.linalg.eigh(t[:n, :n])
        # ||A x - theta x||^2 = y'Gy - theta^2 for x = v y.  G has entries near
        # ||T||^2 (the random starting block is rough), so rounding leaves an
        # error of up to about sqrt(dim) eps ||T||^2 in the difference (0.4 of
        # that at most, measured on meshes of dimension 210 to 83,136): the
        # explicit residuals are formed once every estimate is within it of tol.
        floor = np.sqrt(dim) * np.finfo(float).eps * theta[-1] ** 2
        theta, y = theta[:k], y[:, :k]
        square = (np.einsum("ij,ij->j", y, g[:n, :n] @ y) - theta**2).max()
        history.append(np.sqrt(max(square, 0.0)) / scale)
        if n >= max_basis or (n >= k and square <= (tol * scale) ** 2 + floor):
            x = (y.T @ v.T).T  # transposed, like _project_out: no BLAS scratch
            res = a @ x
            x *= theta
            res -= x
            res = np.linalg.norm(res, axis=0) / scale
            if n >= max_basis or np.all(res <= tol):
                break
        q = _orthonormalize(solve(q), v, rng)[:, : max_basis - n]
        steps += 1

    return EigenResult(
        values=theta,
        residual_norms=res,
        k_requested=k,
        k_converged=int(np.sum(res <= tol)),
        iterations=steps,
        basis_width=n,
        residual_history=np.array(history),
    )


def cluster_multiplicities(keys: np.ndarray) -> dict[int, np.ndarray]:
    """The positions of each distinct integer key, in ascending key order.

    Equal keys are one eigenvalue, so each group's size is its multiplicity:
    no gap tolerance decides where a cluster ends.  The benchmark declares
    this step's time as the per-layer metric solver.cluster_multiplicities.s.
    """
    import numpy as np

    return {int(key): np.flatnonzero(keys == key) for key in np.unique(keys)}
