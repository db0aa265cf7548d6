"""Uncompressed PARAFAC2 alternating least squares.

Each iteration first solves the per-slice orthogonal Procrustes problems
(Q_k from the truncated SVD of X_k V S_k H^T), projects the slices to the
small core stack Y_k = Q_k^T X_k, and then runs one alternating sweep over
H, V, W on that stack.  The reconstruction error sum_k ||X_k - Q_k H S_k
V^T||_F^2 is tracked every iteration and drives the stopping rule; it is
expanded over ||X_k||^2 (which the tensor keeps), Y_k and Q_k^T Q_k, so it
costs no pass over X of its own.  The solver is still exact but slow: the
Procrustes step and the projection touch all of X every pass.
"""
from __future__ import annotations

import time

import numpy as np

from .errors import NumericFailure, RankTooLargeError
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, push_col_norms
from .linalg import gram, hadamard, khatri_rao, pinv_small, truncated_svd
from .scheduler import parallel_slice_map, resolve_threads
from .tensor import IrregularTensor


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
    """One alternating sweep over the stack of R x J core slices.

    Updates H, then V, then W, each by a linear least-squares solve against
    the matching unfolding; later updates see the earlier ones.  With
    ``normalize`` the freshly updated factor's columns are rescaled to unit
    norm and the norms pushed into W, which the final W solve then replaces.
    """
    y1 = unfold_mode1(core_slices)
    h = y1 @ khatri_rao(w, v) @ pinv_small(hadamard(gram(w), gram(v)))
    if normalize:
        h, w = push_col_norms(h, w)
    y2 = unfold_mode2(core_slices)
    v = y2 @ khatri_rao(w, h) @ pinv_small(hadamard(gram(w), gram(h)))
    if normalize:
        v, w = push_col_norms(v, w)
    y3 = unfold_mode3(core_slices)
    w = y3 @ khatri_rao(v, h) @ pinv_small(hadamard(gram(v), gram(h)))
    return h, v, w


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
    error and wall time of every iteration.  Stops after ``opts.max_iters``
    iterations or when the error's relative change drops below ``opts.tol``.
    """
    opts = opts or SolverOptions()
    if opts.max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    shortest = min(tensor.row_counts)
    if rank < 1 or rank > min(shortest, tensor.num_cols):
        raise RankTooLargeError(
            f"rank {rank} not in [1, {min(shortest, tensor.num_cols)}] "
            f"for shortest slice {shortest} and {tensor.num_cols} columns"
        )
    threads = resolve_threads(opts.threads)
    normalize = bool(opts.normalize) if opts.normalize is not None else False
    num = tensor.num_slices
    h, v, w = initial_factors(tensor.num_cols, num, rank, opts.seed)
    x_sq = np.array(tensor.sq_norms)
    q = None
    trace = FitTrace()
    prev = None
    for _ in range(opts.max_iters):
        started = time.perf_counter()
        hh, vv, ww = h, v, w
        q = parallel_slice_map(
            lambda k: _procrustes(tensor.slices[k], vv, hh, ww[k], rank, k),
            num, threads=threads,
        )
        cores = parallel_slice_map(lambda k: q[k].T @ tensor.slices[k], num, threads=threads)
        h, v, w = cp_als_step(cores, h, v, w, normalize=normalize)
        grams = [qk.T @ qk for qk in q]
        objective = float(np.add.reduce(residual_terms(x_sq, cores, grams, h, v, w)))
        trace.objective.append(objective)
        trace.seconds.append(time.perf_counter() - started)
        if prev is not None:
            if prev == 0.0 or abs(prev - objective) <= opts.tol * prev:
                trace.converged = True
                break
        prev = objective
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
