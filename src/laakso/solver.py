"""Lowest eigenvalues of sparse symmetric PSD matrices, and their multiplicities.

One path serves every dimension, a block shift-invert Krylov iteration:
the matrix is shifted below zero, sigma = -1 (it is PSD, so A - sigma I is
definite), factorized once by the caller's `factor`, and a block Krylov
basis of S = (A - sigma I)^-1 is grown with full reorthogonalization,
restarted when it would outgrow k + 4 block widths, until the residuals of
purified Ritz vectors certify the requested pairs.  The mesh callers pass
graphs.chain_factor, which solves the identical edge chains of the mesh
together and factors only a Schur complement on the graph's vertices.
Blocks are essential here: the mesh Laplacians have exactly degenerate
eigenvalues (one copy per congruent shape), and a single-vector Krylov
space contains only one direction per eigenspace, so multiplicities would
come out short.  The starting block is deterministic (all-ones first
column, seeded Gaussian fill) so runs reproduce bit for bit.

The loop is spectral-transformation block Lanczos (Ericsson and Ruhe,
Math. Comp. 35, 1980).  The basis lives in one preallocated Fortran-order
buffer of dim x held columns, an anonymous memory map that every solve
hands back to the OS: a heap block of its size, under glibc's mmap cap,
would stay with the process once freed, and each later solve would peak
higher.  Each step solves z = S q for the newest block q and projects
the basis out of z in two passes, a local one against
the newest two blocks and a full one: the coefficients on q are the
diagonal block q'Sq of H = basis' S basis, and the orthonormalization
z = q_new r of what remains gives the next block and, in r, the
subdiagonal block.  Coefficients on older blocks are rounding-level and
dropped, so H is block tridiagonal, read off numbers the loop computes
anyway; the loop never multiplies by A.

When q_new would not fit, the loop restarts thick (Wu and Simon, SIAM J.
Matrix Anal. Appl. 22, 2000; Stathopoulos, Saad and Wu, SIAM J. Sci.
Comput. 19, 1998): the basis is rotated onto its top k + width Ritz
vectors Y_p, 512 rows at a time, and H becomes diag(theta_p) with the
coupling r Y_p[newest block's rows] to q_new, whose local pass then takes
every column held.  H is an arrow over the kept vectors followed by a
block tridiagonal tail, and the Lanczos relation below keeps its form.
held is k + 4 width when that is at most half of dim, and the whole
column budget otherwise: a restart near full rank leaves z spanning fewer
directions than a block, and the rest of the next block is rounding
noise.  An eigenpair (theta, y) of H,
with y_L its rows on the newest block, satisfies
S basis y = theta basis y + z y_L, so the purified Ritz vector
x = basis y + z y_L / theta (Nour-Omid, Parlett, Ericsson and Jensen,
Math. Comp. 48, 1987) has A x - (sigma + 1/theta) x = -z y_L / theta^2
exactly, and ||x||^2 = 1 + ||z y_L||^2 / theta^2.  Its residual is thus
known from y_L and z's Gram matrix, the first product of Cholesky-QR2, with
no rounding floor near the tolerance.  Only when every estimate meets the
tolerance (or the column budget is spent) are the k purified vectors
formed, a third of a block width at a time, and their Rayleigh quotients
(the returned values) and explicit residuals, the certificate, computed.
A step whose explicit residuals fail goes on growing the basis.  New
blocks are orthonormalized by Cholesky-QR2, with Householder QR as the
error path.  No step keeps a block past its last use: z is dropped
before the next solve, and Cholesky-QR2's second product is formed in
place.  Memory is therefore one dim x (k + 4 width) map, about four blocks
beside it and the factors.

Residual norms are reported relative to the matrix scale (largest diagonal
magnitude): res = ||A x - lambda x|| / (||x|| * scale).  Multiplicities
are counted, not guessed from gaps: once each computed value carries an
exact integer label (compare maps mesh eigenvalues onto their continuum
keys), cluster_multiplicities groups equal labels.

numpy is imported on first use and mmap on the first call of
`lowest_eigenvalues`, and scipy only by the matrix's to_csr and the
caller's factor, so importing this module loads none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ValidationError, integer
from .graphs import SparseSymmetricMatrix

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

_MAX_BASIS_ENTRIES = 2**27  # doubles in the dim x held basis buffer: 1 GiB
# sigma, in the units of A.  Every F_n has pi^2 as its first nonzero
# eigenvalue, so -1 lies as close below the wanted values on every mesh.  A
# shift relative to the matrix scale 2/h^2 drifts away on fine meshes: at
# -1e-5 scale, compare -j 2 -n 0 -m 30000 -k 4 certified 11.0099 for pi^2,
# as (A - sigma I)^-1 barely separated the wanted values.  On the benchmark
# meshes (2/h^2 from 3.9e5 to 2.3e6) -1 takes the Krylov columns that -1e-5
# scale took at seeds 31-40, as on the README compare.  The purified Rayleigh
# quotients do not feel the solve's conditioning: the largest error against
# eigvalsh on 3,4 at level 2 (m = 1, all 77 pairs) is 3.2e-12 here, and
# 3.0e-12 and 3.6e-12 at -10 and -0.1.
_SHIFT = -1.0


class EigenResult(NamedTuple):
    values: np.ndarray  # ascending
    residual_norms: np.ndarray  # ||A x - lambda x|| / (||x|| * scale)
    k_requested: int
    k_converged: int
    iterations: int  # Krylov steps taken after the starting block
    # basis columns generated, restarts included, at most max(5k, k + 15
    # block_size); at most k + 4 block_size of them are held at once when
    # that is at most half the dimension
    basis_width: int
    # largest residual estimate of the k purified Ritz pairs (relative, like
    # residual_norms) per Krylov step, iterations + 1 of them; read off the
    # Lanczos relation, it has no rounding floor near the tolerance and at
    # the stop matches the certificate to about 1e-6 relative or better
    residual_history: np.ndarray


def _matrix_scale(a: sp.csr_matrix) -> float:
    import numpy as np

    scale = float(np.abs(a.diagonal()).max())
    return scale if scale > 0 else 1.0


def _starting_block(dim: int, width: int, seed: int) -> np.ndarray:
    import numpy as np

    rng = np.random.default_rng(seed)
    block = rng.standard_normal((dim, width))
    block[:, 0] = 1.0  # all-ones lead vector
    q, _ = np.linalg.qr(block)
    return q


def _project_out(z: np.ndarray, v: np.ndarray, local: int = 0) -> np.ndarray:
    """z -= v v'z in place, in two passes (full reorthogonalization); returns
    v'z, the two passes' coefficients summed, one row per column of v.

    The first pass takes v's columns from `local` on, the second all of
    them: a Lanczos step's z = S q is orthogonal to all but the newest two
    blocks up to rounding, so the first pass there is a cheap local one and
    the second is the full reorthogonalization.  The products are formed
    transposed so that they land in column order like z and the basis: 1.6x
    faster than v @ (v.T @ z) on a 19,632 x 360 basis.
    """
    near = v[:, local:]
    coef = z.T @ near
    z -= (coef @ near.T).T
    again = z.T @ v
    z -= (again @ v.T).T
    again[:, local:] += coef
    return again.T


def _orthonormalize(
    z: np.ndarray, gram: np.ndarray, v: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(q, r) with q an orthonormal block as wide as z, orthogonal to v's
    columns, and z = q r, for a z already projected off v (_project_out)
    and its Gram matrix gram = z'z.

    Cholesky-QR2: the given Gram matrix and one more, and two small
    triangular factors, whose product is r.  Householder QR is the error
    path, taken when the first factor fails or has a diagonal below 1e-10,
    or when the first pass's output is further than 1/2 (Frobenius) from
    orthonormal.  There z = q1 r1, and with u the left singular vectors of
    r1, the columns of q1 u of singular value at least 1e-10 span z's
    columns; each other column is refilled at random, v is projected out
    again (a nearly dependent z amplifies its rounding-level overlap with v
    by the inverse of its smallest singular value) and the block is
    re-orthonormalized, with r = q'z.  z = q r holds to rounding even for a
    dependent z, since q still spans its columns; refilling q1's own
    columns with |r1_ii| < 1e-10 would drop the components that later
    columns of z have along them.
    """
    import numpy as np

    try:
        r = np.linalg.cholesky(gram, upper=True)
    except np.linalg.LinAlgError:
        r = None
    if r is not None and np.diag(r).min() >= 1e-10:
        q = z @ np.linalg.inv(r)  # a fresh block: overwriting z costs accuracy
        gram = q.T @ q
        if np.linalg.norm(gram - np.eye(len(gram))) <= 0.5:
            again = np.linalg.cholesky(gram, upper=True)
            _rotate(q, len(again), np.linalg.inv(again))
            return q, again @ r
    q, r = np.linalg.qr(z)
    u, s, _ = np.linalg.svd(r)
    q = q @ u
    dead = s < 1e-10
    q[:, dead] = rng.standard_normal((len(q), int(dead.sum())))
    _project_out(q, v)
    q, _ = np.linalg.qr(q)
    return q, q.T @ z


def _certify(
    a: sp.csr_matrix,
    v: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    scale: float,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh quotients and explicit relative residuals of the purified
    Ritz vectors x = v y + z y_L / theta, formed a third of width at a
    time: x, its z correction and A x (or the C-order copy of x that the
    sparse product makes) then take one block between them."""
    import numpy as np

    n, k = y.shape
    rho, res = np.empty(k), np.empty(k)
    chunk = max(1, width // 3)
    for j in range(0, k, chunk):
        cols = slice(j, j + chunk)
        x = (y[:, cols].T @ v.T).T  # transposed, like _project_out: no BLAS scratch
        x += z @ (y[n - z.shape[1] :, cols] / theta[cols])
        x /= np.sqrt(np.einsum("ij,ij->j", x, x))
        ax = a @ x
        rho[cols] = np.einsum("ij,ij->j", x, ax)
        x *= rho[cols]
        ax -= x
        res[cols] = np.sqrt(np.einsum("ij,ij->j", ax, ax)) / scale
        del x, ax  # freed before the next chunk is formed
    return rho, res


def _rotate(basis: np.ndarray, n: int, y: np.ndarray) -> None:
    """basis[:, :p] = basis[:, :n] y in place, p = y's width, 512 rows at a
    time: one product over every row would hold a dim x p temporary."""
    for i in range(0, len(basis), 512):
        rows = basis[i : i + 512]
        rows[:, : y.shape[1]] = (y.T @ rows[:, :n].T).T


def lowest_eigenvalues(
    matrix: SparseSymmetricMatrix,
    k: int,
    tol: float = 1e-8,
    *,
    seed: int = 0,
    block_size: int = 32,
    factor: Callable[[float], Callable[[np.ndarray], np.ndarray]],
) -> EigenResult:
    """The k algebraically smallest eigenvalues with residual certificates.

    block_size should be at least the largest expected eigenvalue
    multiplicity, or degenerate copies cannot all be captured.  At most
    max(5k, k + 15 block_size) basis columns are generated; on exhaustion
    the converged part is returned with k_converged < k rather than
    raising.  At most k + 4 block_size are held at once, by thick restarts,
    when that is at most half the dimension, in an anonymous memory map
    that goes back to the OS on return; a held basis of more than 2^27
    doubles (1 GiB) is refused before the factorization.  Beside it the
    solve holds about four dim x block_size blocks at most.
    `factor(sigma)` returns solve(B) = (matrix - sigma I)^-1 B for a
    sigma < 0, such as graphs.chain_factor for a discretize matrix.
    """
    import mmap

    import numpy as np

    k = integer("k", k, 1)
    block_size = integer("block_size", block_size, 1)
    seed = integer("seed", seed, 0)
    dim = matrix.dimension
    if k >= dim:
        raise ValidationError(f"k {k} must be below the dimension {dim}")
    if not 0 < tol < np.inf:
        raise ValidationError(f"tol {tol} must be finite and > 0")
    width = min(block_size, dim - 1)
    budget = min(dim, max(5 * k, k + 15 * width))  # columns generated
    # columns held: k + 4 width, unless that is over half the dimension
    held = k + 4 * width if 2 * (k + 4 * width) <= dim else budget
    if dim * held > _MAX_BASIS_ENTRIES:
        raise ValidationError(
            f"a {dim} x {held} basis exceeds {_MAX_BASIS_ENTRIES} doubles; "
            "lower k or the dimension"
        )
    a = matrix.to_csr()
    scale = _matrix_scale(a)
    solve = factor(_SHIFT)
    rng = np.random.default_rng(seed + 1)

    # mapped, not from the heap, so that it goes back to the OS on return
    basis = np.ndarray((dim, held), order="F", buffer=mmap.mmap(-1, 8 * dim * held))
    # lower triangle of basis.T S basis, S = (A - sigma I)^-1: block tridiagonal,
    # with an arrow of couplings to the kept Ritz vectors after a restart
    h = np.zeros((held, held))
    history = []
    q = _starting_block(dim, width, seed)
    n = generated = steps = 0
    start = 0  # first column of the newest two blocks, or 0 after a restart
    while True:
        # the newest block q joins the basis; z = S q projected off it is the
        # Lanczos residual, and the last coefficients are q'Sq, h's diagonal block
        w = q.shape[1]
        basis[:, n : n + w] = q
        q, v = basis[:, n : n + w], basis[:, : n + w]
        z = solve(q)
        h[n : n + w, n : n + w] = _project_out(z, v, start)[n:]
        gram = z.T @ z
        start, n = n, n + w
        generated += w
        theta, y = np.linalg.eigh(h[:n, :n], UPLO="L")
        theta, y = theta[::-1], y[:, ::-1]  # largest of S first
        # the purified x = v y + z y_L / theta has residual ||z y_L|| / theta^2
        # and ||x||^2 = 1 + ||z y_L||^2 / theta^2.  ||z y_L||^2 comes from the
        # Gram matrix, where rounding can leave it below 0 once z is at
        # rounding level, as when the basis spans everything
        y_last = y[start:, :k]
        tail = np.maximum(np.einsum("ij,ij->j", y_last, gram @ y_last), 0.0)
        estimate = np.sqrt(tail / (theta[:k] ** 2 * (theta[:k] ** 2 + tail))) / scale
        history.append(estimate.max())
        if generated >= budget or (n >= k and estimate.max() <= tol):
            rho, res = _certify(a, v, z, y[:, :k], theta[:k], scale, width)
            if generated >= budget or np.all(res <= tol):
                break
        q, r = _orthonormalize(z, gram, v, rng)
        del z  # freed before the next solve forms its successor
        q = q[:, : budget - generated]
        c = q.shape[1]
        if n + c <= held:
            h[n : n + c, start:n] = r[:c]  # q' S (last block)
        else:
            # thick restart: the basis becomes its top k + width Ritz
            # vectors, on which S acts as diag(theta) plus q times r y_L
            p = k + width
            _rotate(basis, n, np.ascontiguousarray(y[:, :p]))
            h[:] = 0.0
            h[:p, :p] = np.diag(theta[:p])
            h[p : p + c, :p] = r[:c] @ y[start:n, :p]
            n, start = p, 0
        steps += 1

    order = np.argsort(rho, kind="stable")  # theta's order, up to rounding
    return EigenResult(
        values=rho[order],
        residual_norms=res[order],
        k_requested=k,
        k_converged=int(np.sum(res <= tol)),
        iterations=steps,
        basis_width=generated,
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
