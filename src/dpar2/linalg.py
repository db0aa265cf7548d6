"""Dense linear-algebra kernels.

Randomized and exact truncated SVD with a fixed sign convention, a small
SVD-based pseudoinverse, and the Gram and Khatri-Rao products the
alternating solvers are built from.  Everything is float64 and pure: given
the same arguments (including seeds) every function returns bit-identical
results, so the kernels can run from worker threads without coordination.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError, NumericFailure, RankTooLargeError, ShapeMismatchError

_MASK64 = (1 << 64) - 1

# The power step sweeps its input in row blocks of about this many floats
# (65 rows at 500 columns), so that each block A_b is still in L2 when
# (A_b S)^T A_b reads it a second time.  A block never has fewer rows than
# the floor, so a wide matrix is one block or a few.  The boundaries depend
# on the matrix shape only, never on how many matrices a stack holds.
_SWEEP_FLOATS = 1 << 15
_SWEEP_MIN_ROWS = 32


@dataclass(frozen=True)
class RsvdParams:
    """What a caller chooses in :func:`randomized_svd`: the rank kept and
    the seed of the Gaussian test matrix.  The rest of the recipe is fixed:
    ``min(10, min(m, n) - rank)`` extra sketch columns, so the test matrix
    is never wider than the short side of the input, and one power step.
    """

    rank: int
    seed: int = 0


@dataclass
class SvdTriple:
    """Truncated SVD factors: U (m x r) and V (n x r) column-orthonormal,
    S the leading r singular values in descending order.  Stacked factors,
    U (G, m, r), S (G, r) and V (G, n, r), hold one triple per matrix."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    @property
    def rank(self):
        return self.S.shape[-1]

    def reconstruct(self):
        return (self.U * self.S[..., None, :]) @ np.swapaxes(self.V, -1, -2)


def _as_matrix(a, name="input"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteInputError(f"{name} contains non-finite values")
    return a


def fix_signs(u, v):
    """Make the largest-magnitude entry of each column of ``u`` nonnegative.

    The matching column of ``v`` flips with it, so U S V^T is untouched.
    Works on single matrices and on (..., m, r) stacks alike.
    """
    lead = np.take_along_axis(u, np.abs(u).argmax(axis=-2)[..., None, :], axis=-2)
    signs = np.where(lead < 0.0, -1.0, 1.0)
    return u * signs, v * signs


def truncated_svd(a, rank):
    """Exact truncated SVD of a dense matrix.

    Returns the leading ``rank`` singular triplets as an :class:`SvdTriple`.
    Raises :class:`RankTooLargeError` if ``rank`` exceeds ``min(a.shape)``.
    """
    a = _as_matrix(a)
    if rank < 1:
        raise RankTooLargeError(f"rank must be >= 1, got {rank}")
    if rank > min(a.shape):
        raise RankTooLargeError(
            f"rank {rank} exceeds min of matrix shape {a.shape}"
        )
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("SVD did not converge") from exc
    u = np.ascontiguousarray(u[:, :rank])
    s = np.ascontiguousarray(s[:rank])
    v = np.ascontiguousarray(vt[:rank].T)
    u, v = fix_signs(u, v)
    return SvdTriple(u, s, v)


def randomized_svd(a, params: RsvdParams, seeds=None):
    """Gaussian-sketch randomized SVD with one power step.

    ``a`` is one (m, n) matrix or a (G, m, n) stack of them.  Each matrix
    draws its test matrix Omega, ``params.rank + min(10, min(m, n) -
    params.rank)`` columns wide, from a PCG64 stream of its own seed:
    ``params.seed`` for a single matrix, ``seeds[g]`` for matrix g of a
    stack (standard normals via numpy's ziggurat sampler, so the sketch is
    platform-independent).  It forms ``Y = (A A^T) A Omega`` as
    ``A (A^T A) Omega``, orthonormalizes it with a thin QR, and takes the
    exact SVD of the small projected matrix ``Q^T A``, truncated to
    ``params.rank`` columns.

    The input is read three times: once for the power step, once for the
    range sketch ``Y = (S^T A^T)^T`` (the orientation OpenBLAS runs fastest
    here) and once for ``Q^T A``.  The power step ``S <- (A^T A) S`` is one
    sweep over row blocks A_b of about ``_SWEEP_FLOATS`` floats (at least
    ``_SWEEP_MIN_ROWS`` rows), summing ``(A_b S)^T A_b`` in block order
    while A_b is still in cache, so it reads the input from memory once
    where ``A^T (A S)`` reads it twice.  Each matrix's S is then scaled by
    the power of two that brings its largest entry into [0.5, 1), so Y
    scales like A, not like A^3: it neither overflows nor underflows where
    A and A^T A do not.  ``Q^T A`` is scaled the same way before its SVD,
    which keeps LAPACK's own rescaling of very large or small inputs out.
    Powers of two are exact, so scaling A by 2^k scales S by exactly 2^k
    and leaves U and V bit for bit.

    A stack returns U (G, m, R), S (G, R) and V (G, n, R), and every matrix
    gets the same bits as it would alone: the block boundaries depend only
    on (m, n), and the linalg gufuncs and matmul work on a stack one matrix
    at a time.

    The input is not scanned for NaN or infinity up front: any such value
    makes the sketch non-finite, and only then is the matrix checked, to
    tell :class:`NonFiniteInputError` (bad input) from
    :class:`NumericFailure` (finite input whose A^T A overflowed).  For a
    stack, the error's ``slice_index`` is the position of the first such
    matrix in the stack.
    """
    a = np.asarray(a, dtype=np.float64)
    single = a.ndim == 2
    if single:
        a, seeds = a[None], [params.seed]
    elif a.ndim != 3:
        raise ShapeMismatchError(f"input must be 2-D or a 3-D stack, got ndim={a.ndim}")
    elif seeds is None or len(seeds) != a.shape[0]:
        raise ValueError("a stack needs one seed per matrix")
    m, n = a.shape[-2:]
    r = params.rank
    if r < 1:
        raise RankTooLargeError(f"rank must be >= 1, got {r}")
    if r > min(m, n):
        raise RankTooLargeError(f"rank {r} exceeds min of matrix shape {(m, n)}")

    with np.errstate(over="ignore", invalid="ignore"):  # both are handled below
        y = _range_sketch(a, seeds, r + min(10, min(m, n) - r))
    finite = np.isfinite(y).all(axis=(-2, -1))
    if not finite.all():
        g = int(np.argmin(finite))
        _as_matrix(a[g])  # NonFiniteInputError when the input itself is bad
        raise NumericFailure("range sketch overflowed; input magnitude too large",
                             slice_index=None if single else g)
    try:
        q, _ = np.linalg.qr(y)
        small, exponent = _unit_scale(np.swapaxes(q, -1, -2) @ a)
        small_u, s, small_vt = np.linalg.svd(small, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("sketch factorization failed") from exc
    u, v = fix_signs(q @ small_u[..., :r], np.swapaxes(small_vt[..., :r, :], -1, -2).copy())
    s = np.ldexp(s[..., :r], exponent[:, None])
    if single:
        return SvdTriple(u[0], s[0], v[0])
    return SvdTriple(u, s, v)


def _range_sketch(a, seeds, width):
    """Y = A (A^T A) Omega 2^-e for a (count, m, n) stack, Omega drawn per
    seed and e chosen per matrix by the power step's largest entry.

    The (count, n, width) test matrices live only here, so they are freed
    before the factorizations start.
    """
    omega = np.empty((a.shape[0], a.shape[-1], width))
    for g, seed in enumerate(seeds):
        np.random.Generator(np.random.PCG64(seed & _MASK64)).standard_normal(out=omega[g])
    # t holds S^T, (count, width, n): the test matrix after the power step.
    t, _ = _unit_scale(_gram_sweep(a, np.swapaxes(omega, -1, -2)))
    return np.swapaxes(t @ np.swapaxes(a, -1, -2), -1, -2)


def _gram_sweep(a, t):
    """The power step in one pass over ``a``: returns ((A^T A) S)^T for
    ``t`` = S^T, summed as (A_b S)^T A_b over row blocks in block order."""
    m, n = a.shape[-2:]
    rows = max(_SWEEP_MIN_ROWS, _SWEEP_FLOATS // n)
    s = np.swapaxes(t, -1, -2)
    total = None
    for start in range(0, m, rows):
        block = a[..., start : start + rows, :]
        part = np.swapaxes(block @ s, -1, -2) @ block
        if total is None:
            total = part
        else:
            total += part
    return total


def _unit_scale(x):
    """Scale each matrix x_g of the stack ``x`` to x_g 2^-e_g, with e_g
    chosen to bring its largest |entry| into [0.5, 1); returns the scaled
    stack and the exponents e_g.  Exact for finite input; a zero or
    non-finite matrix gets e_g = 0."""
    _, exponent = np.frexp(np.abs(x).max(axis=(-2, -1)))
    return np.ldexp(x, -exponent[:, None, None]), exponent


def pinv_small(a):
    """Moore-Penrose pseudoinverse of a small dense matrix via SVD.

    Singular values below ``max(a.shape) * s_max * 1e-12`` are treated as
    zero, so rank-deficient Gram products invert stably.
    """
    a = _as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("SVD did not converge in pinv") from exc
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    tol = max(a.shape) * s[0] * 1e-12
    inv = np.zeros_like(s)
    np.divide(1.0, s, out=inv, where=s > tol)
    return (vt.T * inv) @ u.T


def gram(a):
    """A^T A."""
    a = np.asarray(a, dtype=np.float64)
    return a.T @ a


def khatri_rao(a, b):
    """Columnwise Kronecker product.

    For ``a`` (m x r) and ``b`` (n x r), column ``j`` of the result is
    ``kron(a[:, j], b[:, j])``, giving an (m*n x r) matrix whose row
    ``i*n + k`` equals ``a[i, j] * b[k, j]``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatchError(
            f"khatri_rao needs matching column counts, got {a.shape} and {b.shape}"
        )
    m, r = a.shape
    n = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(m * n, r)


def derived_seed(seed, index):
    """Stable 64-bit child seed for per-slice random streams.

    Uses numpy's SeedSequence hash, so the child stream depends only on
    (seed, index), never on thread count or work order.
    """
    ss = np.random.SeedSequence([seed & _MASK64, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])
