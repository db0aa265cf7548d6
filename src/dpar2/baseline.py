"""Uncompressed PARAFAC2 alternating least squares, and the sweep both
solvers share.

Each iteration solves the per-slice orthogonal Procrustes problems (Q_k =
U_k V_k^T from the thin SVD of X_k V S_k H^T), projects the slices to the
core stack Y_k = Q_k^T X_k in the same pass over X, and runs one
:func:`als_sweep` over H, V, W on that stack.  Like stage-1 compression,
each worker takes its slices in stacks of equal row count, one batched
product chain and one stacked SVD per stack, so a tensor of many small
slices costs a few large NumPy calls, not a few dozen small ones per
slice; each matrix of a stack gets the bits it would get alone.  The
reconstruction error sum_k ||X_k - Q_k H S_k V^T||_F^2 drives the stopping
rule; it is expanded over ||X_k||^2 (which the tensor keeps), Y_k and
Q_k^T Q_k, so it costs no pass over X of its own.  :func:`als_sweep` is
the one implementation of the H, V, W updates; the compressed solver runs
it on R x R blocks.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericFailure, ShapeMismatchError
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, iterate, push_col_norms
from .linalg import gram, pinv_small
from .scheduler import equal_height_stacks, greedy_partition, parallel_slice_map, resolve_threads
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


def _procrustes(x, v, h, w_rows, ks):
    """Procrustes factors Q_k = U_k V_k^T of the (G, I, J) stack ``x`` of
    slices ``ks``, from the thin SVDs of the targets X_k V S_k H^T.

    One stacked product chain and one stacked SVD serve the whole stack,
    and each matrix gets the bits it would get alone.  U_k V_k^T needs no
    sign convention: flipping a column of U_k and of V_k leaves it as it
    is.  A non-finite target raises :class:`NumericFailure` naming the
    lowest such slice of the stack.
    """
    target = ((x @ v) * w_rows[:, None, :]) @ h.T
    finite = np.isfinite(target).all(axis=(1, 2))
    if not finite.all():
        raise NumericFailure("rotation target is not finite", slice_index=ks[int(np.argmin(finite))])
    try:
        u, _, vt = np.linalg.svd(target, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        if len(ks) == 1:
            raise NumericFailure("rotation SVD did not converge", slice_index=ks[0]) from exc
        raise NumericFailure(f"rotation SVD did not converge in the stack of slices {ks}") from exc
    return u @ vt


def fit_baseline(tensor: IrregularTensor, rank, opts: SolverOptions | None = None):
    """Fit PARAFAC2 factors by alternating least squares on the raw slices.

    Returns ``(factors, trace)`` where the trace holds the reconstruction
    error and wall time of every iteration; it stops by the rule of
    :func:`~dpar2.factors.iterate`.  The slices are split over the
    ``threads`` workers by ``greedy_partition`` and grouped into stacks of
    equal row count once per fit; each iteration every worker solves and
    projects its stacks, one batched call each.  No bit depends on the
    thread count.  A failing Procrustes step raises the
    :class:`NumericFailure` of the lowest slice (a stack counts as its
    lowest slice when the failure cannot name one), whatever the stacking.
    """
    opts = opts or SolverOptions()
    check_rank(tensor, rank)
    threads = resolve_threads(opts.threads)
    x_sq = np.array(tensor.sq_norms)
    num, cols = tensor.num_slices, tensor.num_cols
    plan = greedy_partition(tensor.row_counts, threads)
    stacks, groups = equal_height_stacks(plan, tensor.row_counts, cols)

    def step(h, v, w, _):
        q = [None] * num
        cores, grams = np.empty((num, rank, cols)), np.empty((num, rank, rank))

        def project(i):
            ks = stacks[i]
            # The slice itself, a view, when the stack holds one.
            x = tensor.slices[ks[0]][None] if len(ks) == 1 else np.stack([tensor.slices[k] for k in ks])
            try:
                qs = _procrustes(x, v, h, w[ks], ks)
            except NumericFailure as exc:
                return (ks[0] if exc.slice_index is None else exc.slice_index), exc
            qt = np.swapaxes(qs, 1, 2)
            cores[ks], grams[ks] = qt @ x, qt @ qs
            for k, q_k in zip(ks, qs):
                q[k] = q_k
            return None

        failures = parallel_slice_map(project, len(stacks), threads=threads, groups=groups)
        failures = [f for f in failures if f is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        h, v, w = als_sweep(cores, None, h, v, w, normalize=False)
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
    cancels to rounding error, so each term is clamped at 0.
    """
    hs = h * w[:, None, :]  # H S_k, (K, R, R)
    cross = np.sum((np.asarray(cores) @ v) * hs, axis=(1, 2))  # <Y_k V, H S_k>
    model_gram = hs @ gram(v) @ hs.transpose(0, 2, 1)  # M_k M_k^T
    quad = np.sum(np.asarray(grams) * model_gram, axis=(1, 2))
    return np.maximum(x_sq - 2.0 * cross + quad, 0.0)


def reconstruction_error(tensor, q, h, v, w, threads=None):
    """sum_k ||X_k - Q_k (H S_k) V^T||_F^2, reduced in slice order.

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
    terms = residual_terms(np.array(tensor.sq_norms), cores, grams, h, v, w)
    return float(np.add.reduce(terms))
