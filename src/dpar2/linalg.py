"""Dense linear-algebra kernels.

Randomized and exact truncated SVD with a fixed sign convention, a small
SVD-based pseudoinverse, and the Gram / Hadamard / Khatri-Rao products the
alternating solvers are built from.  Everything is float64 and pure: given
the same arguments (including seeds) every function returns bit-identical
results, so the kernels can run from worker threads without coordination.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError, NumericFailure, RankTooLargeError, ShapeMismatchError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RsvdParams:
    """Sketching parameters for :func:`randomized_svd`.

    ``oversampling=None`` selects ``min(10, min(m, n) - rank)`` so the test
    matrix never has more columns than the short dimension of the input.
    ``power_iters`` is the number of extra multiplications by ``A A^T``
    applied to the sketch before orthonormalization.
    """

    rank: int
    oversampling: int | None = None
    power_iters: int = 1
    seed: int = 0


@dataclass
class SvdTriple:
    """Truncated SVD factors: U (m x r) and V (n x r) column-orthonormal,
    S the leading r singular values in descending order."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    @property
    def rank(self):
        return self.S.shape[0]

    def reconstruct(self):
        return (self.U * self.S) @ self.V.T


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


def randomized_svd(a, params: RsvdParams):
    """Gaussian-sketch randomized SVD (range finder with power iterations).

    Draws a test matrix from a PCG64 stream seeded with ``params.seed``
    (standard normals via numpy's ziggurat sampler, so the sketch is
    platform-independent), forms ``Y = (A A^T)^q A Omega``, orthonormalizes
    it with a thin QR, and takes the exact truncated SVD of the small
    projected matrix.  The result is truncated to ``params.rank`` columns
    even when oversampling is positive.
    """
    a = _as_matrix(a)
    m, n = a.shape
    r = params.rank
    if r < 1:
        raise RankTooLargeError(f"rank must be >= 1, got {r}")
    if r > min(m, n):
        raise RankTooLargeError(f"rank {r} exceeds min of matrix shape {a.shape}")
    if params.power_iters < 0:
        raise ValueError("power_iters must be >= 0")
    over = params.oversampling
    if over is None:
        over = min(10, min(m, n) - r)
    if over < 0:
        raise ValueError("oversampling must be >= 0")

    rng = np.random.Generator(np.random.PCG64(params.seed & _MASK64))
    omega = rng.standard_normal((n, r + over))
    y = a @ omega
    for _ in range(params.power_iters):
        y = a @ (a.T @ y)
    if not np.isfinite(y).all():
        raise NumericFailure("range sketch overflowed; input magnitude too large")
    q, _ = np.linalg.qr(y)
    b = q.T @ a
    small = truncated_svd(b, r)
    u = q @ small.U
    u, v = fix_signs(u, small.V)
    return SvdTriple(u, small.S, v)


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


def hadamard(a, b):
    """Elementwise product with a shape check."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"hadamard operands differ: {a.shape} vs {b.shape}")
    return a * b


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
