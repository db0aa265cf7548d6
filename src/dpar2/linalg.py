"""Dense linear-algebra kernels.

Randomized and exact truncated SVD with a fixed sign convention, a small
SVD-based pseudoinverse, and the Gram and Khatri-Rao products the
alternating solvers are built from.  Everything is float64 and pure: given
the same arguments (including seeds) every function returns bit-identical
results, so the kernels can run from worker threads without coordination.
Randomness is a counter hash (splitmix64), not a generator: a sketch's test
matrix and a derived seed are integer functions of their seed, with the
same bits on every platform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError, NumericFailure, RankTooLargeError, ShapeMismatchError
from .factors import as_integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's counter increment, 2^64 / phi

# A core whose r-th singular value is below the largest over this ratio is
# factorized by SVD, not through its Gram matrix (see ``randomized_svd``).
_GRAM_RATIO = 128.0


@dataclass(frozen=True)
class RsvdParams:
    """What a caller chooses in :func:`randomized_svd`: the rank kept and
    the seed of the uniform test matrix.  The rest of the recipe is fixed:
    ``min(10, min(m, n) - rank)`` extra sketch columns, so the test matrix
    is never wider than the short side of the input, and one power step.

    Both are checked when the params are made: a bool, float or str raises
    ``ValueError`` (``factors.as_integer``; a NumPy integer is kept as the
    Python int the seed hash needs), and a rank below 1
    :class:`RankTooLargeError`.  :func:`randomized_svd` checks that the
    rank fits its input.
    """

    rank: int
    seed: int = 0

    def __post_init__(self):
        for name in ("rank", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.rank < 1:
            raise RankTooLargeError(f"rank must be >= 1, got {self.rank}")


@dataclass(eq=False)
class SvdTriple:
    """Truncated SVD factors: U (m x r) and V (n x r) column-orthonormal,
    S the leading r singular values in descending order.  Stacked factors,
    U (G, m, r), S (G, r) and V (G, n, r), hold one triple per matrix.
    Compared by identity, since ``==`` on arrays has no single truth value."""

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
    ``rank`` must be an integer (a bool, float or str raises ``ValueError``,
    ``factors.as_integer``); :class:`RankTooLargeError` if it is below 1 or
    exceeds ``min(a.shape)``.
    """
    a = _as_matrix(a)
    rank = as_integer("rank", rank)
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
    """Randomized SVD with a uniform test matrix and one power step.

    ``a`` is one (m, n) matrix or a (G, m, n) stack of them.  Each matrix
    gets its own test matrix Omega, ``params.rank + min(10, min(m, n) -
    params.rank)`` columns wide, hashed from its seed (``params.seed`` for
    a single matrix, ``seeds[g]`` for matrix g of a stack; see
    :func:`_test_matrices`).  It forms ``Y = (A A^T) A Omega`` as
    ``A (A^T A) Omega``, orthonormalizes it with a thin QR, and factorizes
    the small projected matrix ``Q^T A``, truncated to ``params.rank``
    columns.

    The input is read four times: twice for the power step
    ``S <- ((A S)^T A)^T``, once for the range sketch ``Y = (S^T A^T)^T``
    (the orientation OpenBLAS runs fastest here) and once for ``Q^T A``.
    Each matrix's S is then scaled by the power of two that brings its
    largest entry into [0.5, 1), so Y scales like A, not like A^3: it
    neither overflows nor underflows where A and A^T A do not.  ``Q^T A``
    is scaled the same way before it is factorized, which keeps LAPACK's
    own rescaling of very large or small inputs out.  Powers of two are
    exact, so scaling A by 2^k scales S by exactly 2^k and leaves U and V
    bit for bit.

    The core ``C = Q^T A`` is short and wide (w x n, w <= n), so its top
    ``params.rank`` factors come from the w x w Gram matrix: ``eigh(C C^T)``
    gives the left vectors U_c (top eigenvectors, descending), ``C^T U_c``
    is V diag(S), S its column norms and V its columns over S.  That route
    loses about eps (S_0 / S_{r-1})^2 of V's orthonormality, so a core
    without ``S_{r-1} > S_0 / _GRAM_RATIO`` (a zero, rank-deficient or
    ill-conditioned core) is factorized by ``np.linalg.svd`` instead; the
    Gram route then keeps V orthonormal to about 4e-12.

    A stack returns U (G, m, R), S (G, R) and V (G, n, R), and every matrix
    gets the same bits as it would alone: the linalg gufuncs and matmul
    work on a stack one matrix at a time, and the SVD route is chosen per
    matrix.

    The input is not scanned for NaN or infinity up front: any such value
    makes the sketch non-finite, and only then is the matrix checked, to
    tell :class:`NonFiniteInputError` (bad input) from
    :class:`NumericFailure` (finite input whose A^T A overflowed).  For a
    stack, the error's ``slice_index`` is the position of the first such
    matrix in the stack.

    ``params`` checked itself when made (:class:`RsvdParams`); here a rank
    above ``min(m, n)`` raises :class:`RankTooLargeError`, and ``seeds``
    given with a single matrix ``ValueError``.
    """
    a = np.asarray(a, dtype=np.float64)
    single = a.ndim == 2
    if single:
        if seeds is not None:
            raise ValueError("a single matrix takes its seed from params, not seeds")
        a, seeds = a[None], [params.seed]
    elif a.ndim != 3:
        raise ShapeMismatchError(f"input must be 2-D or a 3-D stack, got ndim={a.ndim}")
    elif seeds is None or len(seeds) != a.shape[0]:
        raise ValueError("a stack needs one seed per matrix")
    m, n = a.shape[-2:]
    r = params.rank
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
        small_u, s, v = _core_factors(small, r)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("sketch factorization failed") from exc
    u, v = fix_signs(q @ small_u, v)
    s = np.ldexp(s, exponent[:, None])
    if single:
        return SvdTriple(u[0], s[0], v[0])
    return SvdTriple(u, s, v)


def _core_factors(small, r):
    """Top-r U (G, w, r), S (G, r), V (G, n, r) of a (G, w, n) stack of
    short, wide cores: through each core's Gram matrix, or by SVD for the
    cores that route would lose accuracy on."""
    _, vecs = np.linalg.eigh(small @ np.swapaxes(small, -1, -2))
    small_u = vecs[..., ::-1][..., :r].copy()
    rights = np.swapaxes(small, -1, -2) @ small_u
    s = np.sqrt((rights * rights).sum(axis=-2))
    with np.errstate(divide="ignore", invalid="ignore"):  # weak cores are redone
        v = rights / s[:, None, :]
    # Strict, so that a zero core (0 > 0) and a NaN one count as weak too.
    weak = ~(s[:, -1] * _GRAM_RATIO > s[:, 0])
    if weak.any():
        w_u, w_s, w_vt = np.linalg.svd(small[weak], full_matrices=False)
        small_u[weak], s[weak] = w_u[..., :r], w_s[..., :r]
        v[weak] = np.swapaxes(w_vt[..., :r, :], -1, -2)
    return small_u, s, v


def _range_sketch(a, seeds, width):
    """Y = A (A^T A) Omega 2^-e for a (count, m, n) stack, with e chosen per
    matrix by the power step's largest entry.  The (count, n, width) test
    matrices live only here, so they are freed before the factorizations
    start."""
    omega = _test_matrices(seeds, a.shape[-1], width)
    # t holds S^T, (count, width, n): the test matrix after the power step.
    t, _ = _unit_scale(np.swapaxes(a @ omega, -1, -2) @ a)
    return np.swapaxes(t @ np.swapaxes(a, -1, -2), -1, -2)


def _test_matrices(seeds, n, width):
    """The (len(seeds), n, ``width``) stack of uniform test matrices.

    Entry i of Omega_g, counted row-major from 0, is
    ``(mix64(seed_g + (i + 1) * 0x9E3779B97F4A7C15) >> 11) 2^-52 - 1``, a
    uniform value in [-1, 1) (splitmix64: mix64 is its finalizer, all
    arithmetic mod 2^64).  The whole stack is hashed in one pass over
    uint64 arrays, and the 53-bit integers convert to float64 exactly, so
    Omega has the same bits on every platform.
    """
    start = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)
    steps = np.arange(1, n * width + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    bits = _mix64(start[:, None] + steps) >> np.uint64(11)
    return (bits.astype(np.float64) * 2.0**-52 - 1.0).reshape(len(seeds), n, width)


def _mix64(z):
    """The splitmix64 finalizer, mod 2^64, of a Python int or a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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
    zero, so rank-deficient Gram products invert stably.  A pseudoinverse
    that float64 cannot hold (a kept singular value whose reciprocal
    overflows, as in a Gram product of subnormal size) raises
    :class:`NumericFailure`, and so does a finite matrix whose largest
    singular value overflows, which would otherwise invert to zero.
    """
    a = _as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("SVD did not converge in pinv") from exc
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    if not np.isfinite(s[0]):
        raise NumericFailure("pseudoinverse input too large: singular values overflow")
    tol = s[0] * (max(a.shape) * 1e-12)  # cannot overflow once s[0] is finite
    inv = np.zeros_like(s)
    try:
        with np.errstate(over="raise"):
            np.divide(1.0, s, out=inv, where=s > tol)
    except FloatingPointError as exc:
        raise NumericFailure("pseudoinverse overflows: singular values too small") from exc
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
    """Stable 64-bit child seed for per-slice sketches:
    ``mix64(seed * 0x9E3779B97F4A7C15 + index + 1)`` mod 2^64.

    The child depends only on (seed, index), never on thread count or work
    order, and since mix64 is a bijection, distinct indices under one seed
    get distinct children.
    """
    return _mix64((seed * _GOLDEN + int(index) + 1) & _MASK64)
