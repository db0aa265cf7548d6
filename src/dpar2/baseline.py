"""Uncompressed PARAFAC2 alternating least squares, and the sweep both
solvers share.

Each iteration solves the per-slice orthogonal Procrustes problems (Q_k
from the truncated SVD of X_k V S_k H^T), projects the slices to the core
stack Y_k = Q_k^T X_k in the same pass over X, and runs one
:func:`als_sweep` over H, V, W on that stack.  The reconstruction error
sum_k ||X_k - Q_k H S_k V^T||_F^2 drives the stopping rule; it is expanded
over ||X_k||^2 (which the tensor keeps), Y_k and Q_k^T Q_k, so it costs no
pass over X of its own.  :func:`als_sweep` is the one implementation of
the H, V, W updates; the compressed solver runs it on R x R blocks.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericFailure
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, iterate, push_col_norms
from .linalg import gram, hadamard, pinv_small, truncated_svd
from .scheduler import parallel_slice_map, resolve_threads
from .tensor import IrregularTensor, check_rank


def unfold_mode1(core_slices):
    """R x JK: slices side by side, so column kJ + j is Y_k[:, j]."""
    return np.concatenate(core_slices, axis=1)


def unfold_mode2(core_slices):
    """J x RK: transposed slices side by side, column kR + i is Y_k[i, :]."""
    return np.concatenate([y.T for y in core_slices], axis=1)


def unfold_mode3(core_slices):
    """K x RJ: row k is Y_k flattened column-major (row index fastest)."""
    return np.stack([y.reshape(-1, order="F") for y in core_slices])


def cp_als_step(core_slices, h, v, w, normalize=False):
    """:func:`als_sweep` over the list of R x J core slices Y_k."""
    return als_sweep(np.stack(core_slices), None, h, v, w, normalize)


def als_sweep(cores, basis, h, v, w, normalize):
    """One alternating sweep over H, V, W against the cores Y_k = C_k B^T.

    ``cores`` is the (K, R, m) stack of C_k; ``basis`` is the J x m B, or
    None for the identity (no J x J matrix is formed).  Updates H, then V,
    then W, each by a least-squares solve against the matching unfolding;
    later updates see the earlier ones.  With ``normalize`` the freshly
    updated factor's columns are rescaled to unit norm and the norms pushed
    into W, which the final W solve then replaces.  Finite cores whose
    products overflow raise :class:`NumericFailure`.
    """
    h = _solve(rhs_mode1(cores, basis, w, v), gram(w), gram(v))
    if normalize:
        h, w = push_col_norms(h, w)
    v = _solve(rhs_mode2(cores, basis, w, h), gram(w), gram(h))
    if normalize:
        v, w = push_col_norms(v, w)
    w = _solve(rhs_mode3(cores, basis, v, h), gram(v), gram(h))
    return h, v, w


def _times_v(cores, basis, v):
    """Y_k V of every slice as one (K, R, R) stack: C_k (B^T V)."""
    small = v if basis is None else basis.T @ v
    return (cores.reshape(-1, cores.shape[2]) @ small).reshape(*cores.shape[:2], -1)


def rhs_mode1(cores, basis, w, v):
    """Y_(1) (W kr V), R x R: column r is sum_k W[k, r] Y_k V[:, r]."""
    return np.einsum("kir,kr->ir", _times_v(cores, basis, v), w)


def rhs_mode2(cores, basis, w, h):
    """Y_(2) (W kr H), J x R: column r is sum_k Y_k^T (H S_k)[:, r]."""
    hs = h * w[:, None, :]  # H S_k, (K, R, R)
    summed = cores.reshape(-1, cores.shape[2]).T @ hs.reshape(-1, hs.shape[2])
    return summed if basis is None else basis @ summed


def rhs_mode3(cores, basis, v, h):
    """Y_(3) (V kr H), K x R: entry (k, r) is H[:, r]^T Y_k V[:, r]."""
    return np.einsum("kir,ir->kr", _times_v(cores, basis, v), h)


def _solve(rhs, gram_a, gram_b):
    """rhs (gram_a o gram_b)^+, the least-squares update of one factor."""
    normal = hadamard(gram_a, gram_b)
    if not np.isfinite(normal).all():
        raise NumericFailure("ALS sweep Gram product is not finite")
    factor = rhs @ pinv_small(normal)
    if not np.isfinite(factor).all():
        raise NumericFailure("ALS sweep factor is not finite")
    return factor


def _procrustes(x, v, h, w_row, rank, k):
    target = x @ v
    target = target * w_row
    target = target @ h.T
    try:
        trip = truncated_svd(target, rank)
    except NumericFailure as exc:
        raise NumericFailure(str(exc), slice_index=k) from exc
    return trip.U @ trip.V.T


def fit_baseline(tensor: IrregularTensor, rank, opts: SolverOptions | None = None):
    """Fit PARAFAC2 factors by alternating least squares on the raw slices.

    Returns ``(factors, trace)`` where the trace holds the reconstruction
    error and wall time of every iteration; it stops by the rule of
    :func:`~dpar2.factors.iterate`.
    """
    opts = opts or SolverOptions()
    check_rank(tensor, rank)
    threads = resolve_threads(opts.threads)
    x_sq = np.array(tensor.sq_norms)

    def step(h, v, w, _):
        def project(k):
            x = tensor.slices[k]
            q = _procrustes(x, v, h, w[k], rank, k)
            return q, q.T @ x, q.T @ q

        q, cores, grams = zip(*parallel_slice_map(project, tensor.num_slices, threads=threads))
        cores = np.stack(cores)
        h, v, w = als_sweep(cores, None, h, v, w, normalize=False)
        objective = float(np.add.reduce(residual_terms(x_sq, cores, grams, h, v, w)))
        return (h, v, w, list(q)), objective

    initial = initial_factors(tensor.num_cols, tensor.num_slices, rank, opts.seed)
    trace = FitTrace()
    h, v, w, q = iterate(step, (*initial, None), opts, trace)
    return Parafac2Factors(H=h, V=v, W=w, Q=q), trace


def residual_terms(x_sq, cores, grams, h, v, w):
    """||X_k - Q_k H S_k V^T||_F^2 of every slice, from R-sized pieces only.

    With Y_k = Q_k^T X_k and M_k = H S_k V^T each term expands to
    ||X_k||^2 - 2 <Y_k, M_k> + <Q_k^T Q_k, M_k M_k^T>, which holds for any
    Q_k, orthonormal or not.  ``x_sq`` holds the ||X_k||^2, ``cores`` the
    Y_k and ``grams`` the Q_k^T Q_k.  Near an exact fit the expansion
    cancels to rounding error, so each term is clamped at 0.
    """
    hs = h * w[:, None, :]  # H S_k, (K, R, R)
    cross = np.sum((np.stack(cores) @ v) * hs, axis=(1, 2))  # <Y_k V, H S_k>
    model_gram = hs @ gram(v) @ hs.transpose(0, 2, 1)  # M_k M_k^T
    quad = np.sum(np.stack(grams) * model_gram, axis=(1, 2))
    return np.maximum(x_sq - 2.0 * cross + quad, 0.0)


def slice_projections(tensor, q, threads=None):
    """||X_k||^2, Y_k = Q_k^T X_k and Q_k^T Q_k of every slice, as the
    first three arguments of :func:`residual_terms`.  The norms are the
    ones the tensor keeps; only the projections pass over X."""

    def project(k):
        return q[k].T @ tensor.slices[k], q[k].T @ q[k]

    cores, grams = zip(*parallel_slice_map(project, tensor.num_slices, threads=threads))
    return np.array(tensor.sq_norms), cores, grams


def reconstruction_error(tensor, q, h, v, w, threads=None):
    """sum_k ||X_k - Q_k (H S_k) V^T||_F^2, reduced in slice order.

    No I_k x J residual is formed: see :func:`residual_terms`.
    """
    terms = residual_terms(*slice_projections(tensor, q, threads), h, v, w)
    return float(np.add.reduce(terms))
