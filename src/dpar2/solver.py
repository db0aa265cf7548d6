"""Alternating updates that never leave the compressed space.

After compression every slice is A_k F_k diag(E) D^T with A_k and D
column-orthonormal, so the whole fit runs on R x R blocks, each step one
batched array operation over the (K, R, R) stack of slices:

* Rotations: the Procrustes factor for slice k needs the truncated SVD of
  X_k V S_k H^T = A_k T_k with T_k = F_k (E D^T V) S_k H^T.  Since A_k has
  orthonormal columns, the R x R SVD T_k = Z_k Sig_k P_k^T gives the
  optimal Q_k = A_k Z_k P_k^T without forming it.

* The projected cores Y_k = Q_k^T X_k = (P_k Z_k^T F_k) E D^T are also
  never materialized: the three least-squares right-hand sides (MTTKRP
  products against each unfolding) collapse to small contractions of
  Theta_k = P_k Z_k^T F_k with E, D, and the current factors.

* Convergence is measured as e = sum_k ||Theta_k E D^T - H S_k V^T||_F^2,
  which equals the residual against the compressed slices because the
  Frobenius norm ignores the orthonormal left factors A_k Z_k.

No step depends on a thread count: only compression runs on worker threads.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .compress import CompressedTensor, compress
from .errors import NumericFailure
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, push_col_norms
from .linalg import RsvdParams, fix_signs, gram, hadamard, pinv_small
from .tensor import IrregularTensor


@dataclass
class RotationStack:
    """Procrustes pieces of all slices, T_k = Z[k] diag(Sig[k]) P[k]^T.

    ``Z``, ``P`` are (K, R, R) orthogonal stacks and ``Sig`` is (K, R);
    ``rots[k]`` and iteration yield each slice's own Z, P and Sig.
    """

    Z: np.ndarray
    P: np.ndarray
    Sig: np.ndarray

    def __getitem__(self, k):
        return RotationStack(self.Z[k], self.P[k], self.Sig[k])

    def __iter__(self):
        return map(RotationStack, self.Z, self.P, self.Sig)


def update_rotations(comp: CompressedTensor, h, v, w, threads=None):
    """Solve every slice's orthogonal Procrustes problem in R x R space.

    ``threads`` is accepted for call compatibility and unused.
    """
    # E D^T V is shared by all slices.
    core_cols = comp.weights[:, None] * (comp.col_basis.T @ v)
    t = ((comp.core_stack() @ core_cols) * w[:, None, :]) @ h.T
    finite = np.isfinite(t).all(axis=(1, 2))
    if not finite.all():
        raise NumericFailure("rotation target is not finite",
                             slice_index=int(np.argmin(finite)))
    try:
        z, sig, pt = np.linalg.svd(t, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("rotation SVD did not converge") from exc
    z, p = fix_signs(z, np.ascontiguousarray(pt.transpose(0, 2, 1)))
    return RotationStack(Z=z, P=p, Sig=sig)


def rotated_cores(comp: CompressedTensor, rotations):
    """Stack of Theta_k = P_k Z_k^T F_k, shape (K, R, R).

    Theta_k E D^T is the projected core slice Y_k; every kernel below
    contracts against this stack instead of the J-sized cores.
    """
    return (rotations.P @ rotations.Z.transpose(0, 2, 1)) @ comp.core_stack()


def mttkrp_mode1(comp, rotations, w, v):
    """R x R right-hand side for the H solve: Y_(1) (W kr V).

    Column r reduces to (sum_k W[k, r] Theta_k) (E D^T V)[:, r].
    """
    theta = rotated_cores(comp, rotations)
    core_cols = comp.weights[:, None] * (comp.col_basis.T @ v)
    weighted = np.einsum("kr,kij->rij", w, theta)
    return np.einsum("rij,jr->ir", weighted, core_cols)


def mttkrp_mode2(comp, rotations, w, h):
    """J x R right-hand side for the V solve: Y_(2) (W kr H).

    Column r reduces to D E sum_k W[k, r] Theta_k^T H[:, r].
    """
    theta = rotated_cores(comp, rotations)
    projected = np.einsum("kba,br->kar", theta, h)
    summed = np.einsum("kr,kar->ar", w, projected)
    return comp.col_basis @ (comp.weights[:, None] * summed)


def mttkrp_mode3(comp, rotations, v, h):
    """K x R right-hand side for the W solve: Y_(3) (V kr H).

    Entry (k, r) is the bilinear form H[:, r]^T Theta_k (E D^T V)[:, r].
    """
    theta = rotated_cores(comp, rotations)
    core_cols = comp.weights[:, None] * (comp.col_basis.T @ v)
    half = np.einsum("kij,jr->kir", theta, core_cols)
    return np.einsum("ir,kir->kr", h, half)


def update_factors(comp, rotations, h, v, w, normalize=True, threads=None):
    """One alternating sweep over H, V, W in compressed space.

    Each right-hand side is rebuilt after the factors it depends on change,
    so the sweep matches a Gauss-Seidel pass over the projected cores.
    ``threads`` is accepted for call compatibility and unused.
    """
    g1 = mttkrp_mode1(comp, rotations, w, v)
    h = g1 @ pinv_small(hadamard(gram(w), gram(v)))
    if normalize:
        h, w = push_col_norms(h, w)
    g2 = mttkrp_mode2(comp, rotations, w, h)
    v = g2 @ pinv_small(hadamard(gram(w), gram(h)))
    if normalize:
        v, w = push_col_norms(v, w)
    g3 = mttkrp_mode3(comp, rotations, v, h)
    w = g3 @ pinv_small(hadamard(gram(v), gram(h)))
    return h, v, w


def convergence_metric(comp, rotations, h, v, w, threads=None):
    """e = sum_k ||Theta_k E D^T - H S_k V^T||_F^2, computed in R x R.

    Splitting V = D C + V_perp with C = D^T V splits each residual into
    orthogonal parts, so e = sum_k ||Theta_k E - H S_k C^T||^2 plus
    sum(H^T H o G_perp o W^T W) with G_perp = V_perp^T V_perp.
    ``threads`` is accepted for call compatibility and unused.
    """
    c = comp.col_basis.T @ v
    v_perp = v - comp.col_basis @ c
    resid = rotated_cores(comp, rotations) * comp.weights
    resid -= (h * w[:, None, :]) @ c.T
    outside = gram(h) * gram(v_perp) * gram(w)
    return float(np.sum(resid * resid)) + float(np.sum(outside))


def fit_dpar2(tensor: IrregularTensor, rank, opts: SolverOptions | None = None):
    """Compress once, then alternate rotations and factor sweeps in R x R space.

    Returns ``(factors, trace)``; the trace records the compressed residual
    e and wall time per iteration plus the one-off compression time.  Stops
    when e's relative change falls below ``opts.tol`` or at ``max_iters``.
    """
    opts = opts or SolverOptions()
    if opts.max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    normalize = bool(opts.normalize) if opts.normalize is not None else True

    started = time.perf_counter()
    comp = compress(tensor, rank, rsvd=RsvdParams(rank=rank, seed=opts.seed),
                    threads=opts.threads)
    trace = FitTrace(preprocess_seconds=time.perf_counter() - started,
                     compressed_float_count=comp.float_count())

    h, v, w = initial_factors(tensor.num_cols, tensor.num_slices, rank, opts.seed)
    prev = None
    for _ in range(opts.max_iters):
        tick = time.perf_counter()
        rotations = update_rotations(comp, h, v, w)
        h, v, w = update_factors(comp, rotations, h, v, w, normalize=normalize)
        e = convergence_metric(comp, rotations, h, v, w)
        trace.objective.append(e)
        trace.seconds.append(time.perf_counter() - tick)
        if prev is not None and (prev == 0.0 or abs(prev - e) <= opts.tol * prev):
            trace.converged = True
            break
        prev = e

    q = [a @ (rot.Z @ rot.P.T) for a, rot in zip(comp.slice_bases, rotations)]
    return Parafac2Factors(H=h, V=v, W=w, Q=q), trace
