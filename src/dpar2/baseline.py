"""Uncompressed PARAFAC2 alternating least squares, and the sweep both
solvers share.

Each iteration solves the per-slice orthogonal Procrustes problems (Q_k =
U_k V_k^T from the thin SVD of X_k V S_k H^T), projects the slices to the
core stack Y_k = Q_k^T X_k in the same pass over X, and runs one
:func:`als_sweep` over H, V, W on that stack.  Like stage-1 compression,
it plans its stacks of equal row count with one
``scheduler.equal_height_stacks`` call and runs them through
``scheduler.map_stacks``, one :func:`procrustes_svd` per stack; the
compressed solver's rotations call the same kernel on R x R cores.  The reconstruction error
sum_k ||X_k - Q_k H S_k V^T||_F^2 drives the stopping rule; it is
expanded over ||X_k||^2 (which the tensor keeps), Y_k and Q_k^T Q_k, so
it costs no pass over X of its own.  :func:`als_sweep` is the one
implementation of the H, V, W updates; the compressed solver runs it on
R x R blocks.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericFailure, ShapeMismatchError
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, iterate, push_col_norms
from .linalg import gram, pinv_small
from .scheduler import equal_height_stacks, map_stacks, parallel_slice_map
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
    Gram products overflow or underflow raise :class:`NumericFailure`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _solve checks every factor
        h = _solve(rhs_mode1(cores, basis, w, v), w, v)
        if normalize:
            h, w = push_col_norms(h, w)
        v = _solve(rhs_mode2(cores, basis, w, h), w, h)
        if normalize:
            v, w = push_col_norms(v, w)
        w = _solve(rhs_mode3(cores, basis, v, h), v, h)
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


def _solve(rhs, a, b):
    """rhs (A^T A o B^T B)^+, the least-squares update of one factor.

    A Gram product that leaves the normal float64 range fails as
    :class:`NumericFailure`: one that overflows, and one whose diagonal
    lies wholly below the smallest normal float although some component
    has nonzero columns in both A and B.  The second would otherwise be
    inverted from subnormal or zero entries, which hold too few bits, and
    the fit would end near zero with no error.
    """
    normal = gram(a) * gram(b)
    if not np.isfinite(normal).all():
        raise NumericFailure("ALS sweep Gram product is not finite")
    # Diagonal entry r is ||a_r||^2 ||b_r||^2, 0 in exact arithmetic only
    # where a_r or b_r is 0.  Only a diagonal wholly below the normal range
    # pays for the column scan.
    tiny = np.finfo(np.float64).tiny
    if np.diagonal(normal).max() < tiny and (a.any(axis=0) & b.any(axis=0)).any():
        raise NumericFailure("ALS sweep Gram product underflowed")
    factor = rhs @ pinv_small(normal)
    if not np.isfinite(factor).all():
        raise NumericFailure("ALS sweep factor is not finite")
    return factor


def procrustes_svd(x, v, h, w_rows):
    """Thin SVDs of the Procrustes targets ((X_k V) * w_k) H^T of the
    (G, I, J) stack ``x``, one stacked product chain and one stacked SVD.

    ``w_rows`` holds the w_k, one row per matrix of ``x``.  Each matrix
    gets the bits it would get alone.  A non-finite target raises
    :class:`NumericFailure` with the position in ``x`` of the first such
    matrix; an SVD that does not converge raises one with no position.
    ALS takes Q_k = U_k V_k^T on the raw slices, and the compressed solver
    calls it on the cores F_k with E D^T V standing in for V.
    """
    target = ((x @ v) * w_rows[:, None, :]) @ h.T
    finite = np.isfinite(target).all(axis=(1, 2))
    if not finite.all():
        raise NumericFailure("rotation target is not finite", slice_index=int(np.argmin(finite)))
    try:
        return np.linalg.svd(target, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("rotation SVD did not converge") from exc


def fit_baseline(tensor: IrregularTensor, rank, opts: SolverOptions | None = None):
    """Fit PARAFAC2 factors by alternating least squares on the raw slices.

    Returns ``(factors, trace)`` where the trace holds the reconstruction
    error and wall time of every iteration; it stops by the rule of
    :func:`~dpar2.factors.iterate`.  ``equal_height_stacks`` plans the
    stacks once per fit; each iteration ``map_stacks`` solves and projects
    every stack in one batched call.  No bit, and no error, depends on the
    thread count.
    """
    opts = opts or SolverOptions()
    check_rank(tensor, rank)
    x_sq = np.array(tensor.sq_norms)
    num, cols = tensor.num_slices, tensor.num_cols
    stacks, groups = equal_height_stacks(tensor.row_counts, cols, opts.threads)

    def step(h, v, w, _):
        q = [None] * num
        cores, grams = np.empty((num, rank, cols)), np.empty((num, rank, rank))

        def project(x, ks):
            # U V^T needs no sign convention: a sign flip leaves it as it is.
            u, _, vt = procrustes_svd(x, v, h, w[ks])
            qs = u @ vt
            qt = np.swapaxes(qs, 1, 2)
            cores[ks], grams[ks] = qt @ x, qt @ qs
            for k, q_k in zip(ks, qs):
                q[k] = q_k

        map_stacks(project, tensor.slices, stacks, groups)
        h, v, w = als_sweep(cores, None, h, v, w, normalize=False)
        with np.errstate(over="ignore", invalid="ignore"):  # iterate checks the objective
            objective = float(np.add.reduce(residual_terms(x_sq, cores, grams, h, v, w)))
        return (h, v, w, q), objective

    initial = initial_factors(cols, num, rank, opts.seed)
    trace = FitTrace()
    h, v, w, q = iterate(step, (*initial, None), opts, trace)
    return Parafac2Factors(H=h, V=v, W=w, Q=q), trace


def residual_terms(x_sq, cores, grams, h, v, w):
    """||X_k - Q_k H S_k V^T||_F^2 of every slice, from R-sized pieces only.

    With Y_k = Q_k^T X_k and M_k = H S_k V^T each term expands to
    ||X_k||^2 - 2 <Y_k, M_k> + <Q_k^T Q_k, M_k M_k^T>, which holds for any
    Q_k, orthonormal or not.  ``x_sq`` holds the ||X_k||^2, ``cores`` the
    Y_k and ``grams`` the Q_k^T Q_k.  Near an exact fit the expansion
    cancels to rounding error, so each finite term is clamped at 0; a term
    that overflowed stays non-finite, even at -inf.
    """
    hs = h * w[:, None, :]  # H S_k, (K, R, R)
    cross = np.sum((np.asarray(cores) @ v) * hs, axis=(1, 2))  # <Y_k V, H S_k>
    model_gram = hs @ gram(v) @ hs.transpose(0, 2, 1)  # M_k M_k^T
    quad = np.sum(np.asarray(grams) * model_gram, axis=(1, 2))
    terms = x_sq - 2.0 * cross + quad
    return np.maximum(terms, 0.0, out=terms, where=np.isfinite(terms))


def reconstruction_error(tensor, q, h, v, w, threads=None):
    """sum_k ||X_k - Q_k (H S_k) V^T||_F^2: the :func:`reconstruction_terms`
    reduced in slice order."""
    return float(np.add.reduce(reconstruction_terms(tensor, q, h, v, w, threads)))


def reconstruction_terms(tensor, q, h, v, w, threads=None):
    """||X_k - Q_k (H S_k) V^T||_F^2 of every slice, as one array.

    One pass over X forms Y_k = Q_k^T X_k and Q_k^T Q_k for
    :func:`residual_terms`, so no I_k x J residual is formed.  Before that
    pass every factor is checked against the tensor and the rank
    R = ``h.shape[-1]``: H is R x R, each Q_k I_k x R, V J x R and W K x R.
    A mismatch raises :class:`ShapeMismatchError` naming the factor.
    """
    if len(q) != tensor.num_slices:
        raise ShapeMismatchError(f"factors cover {len(q)} slices, tensor has {tensor.num_slices}")
    if v.shape[0] != tensor.num_cols:
        raise ShapeMismatchError(f"V has {v.shape[0]} rows, tensor has {tensor.num_cols} columns")
    for k, (q_k, rows) in enumerate(zip(q, tensor.row_counts)):
        if q_k.shape[0] != rows:
            raise ShapeMismatchError(f"Q_{k} has {q_k.shape[0]} rows, but slice {k} has {rows}")
    rank = h.shape[-1]
    expected = [("H", h, (rank, rank)), ("V", v, (tensor.num_cols, rank)),
                ("W", w, (tensor.num_slices, rank))]
    expected += [(f"Q_{k}", q_k, (q_k.shape[0], rank)) for k, q_k in enumerate(q)]
    for name, factor, shape in expected:
        if factor.shape != shape:
            raise ShapeMismatchError(f"{name} has shape {factor.shape}, expected {shape} for rank {rank}")

    def project(k):
        return q[k].T @ tensor.slices[k], q[k].T @ q[k]

    cores, grams = zip(*parallel_slice_map(project, tensor.num_slices, threads=threads))
    return residual_terms(np.array(tensor.sq_norms), cores, grams, h, v, w)
