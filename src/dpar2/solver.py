"""Alternating updates that never leave the compressed space.

After compression every slice is A_k F_k diag(E) D^T with A_k and D
column-orthonormal, so the whole fit runs on R x R blocks, each step one
batched array operation over the (K, R, R) stack of slices:

* Rotations: the Procrustes factor for slice k needs the truncated SVD of
  X_k V S_k H^T = A_k T_k with T_k = F_k (E D^T V) S_k H^T.  Since A_k has
  orthonormal columns, the R x R SVD T_k = Z_k Sig_k P_k^T gives the
  optimal Q_k = A_k Z_k P_k^T without forming it.

* The projected cores Y_k = Q_k^T X_k = (P_k Z_k^T F_k) E D^T are also
  never materialized: the baseline's :func:`~dpar2.baseline.als_sweep`
  runs on the (K, R, R) stack Theta_k E with D as column basis, so its
  right-hand sides (MTTKRP products) are small contractions.

* Convergence is measured as e = sum_k ||Theta_k E D^T - H S_k V^T||_F^2,
  which equals the residual against the compressed slices because the
  Frobenius norm ignores the orthonormal left factors A_k Z_k.

The rotations run one contiguous chunk of slices per worker, planned by
``scheduler.contiguous_runs``, through ``scheduler.map_stacks`` and the
ALS baseline's Procrustes kernel :func:`~dpar2.baseline.procrustes_svd`.
Each worker also builds its chunk's Theta_k, and the returned
:class:`RotationStack` carries Theta to the sweep and the metric, so it
is formed once per iteration.  Every R x R matrix is factorized on its
own, so no result depends on the thread count.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baseline import als_sweep, procrustes_svd, rhs_mode1, rhs_mode2, rhs_mode3
from .compress import CompressedTensor, compress
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, iterate
from .linalg import RsvdParams, fix_signs, gram
from .scheduler import contiguous_runs, map_stacks
from .tensor import IrregularTensor


@dataclass
class RotationStack:
    """Procrustes pieces of all slices, T_k = Z[k] diag(Sig[k]) P[k]^T,
    and their rotated cores Theta[k] = P[k] Z[k]^T F_k.

    ``Z``, ``P`` (orthogonal) and ``Theta`` are (K, R, R) stacks and ``Sig``
    is (K, R); ``rots[k]`` and iteration yield each slice's own pieces.
    """

    Z: np.ndarray
    P: np.ndarray
    Sig: np.ndarray
    Theta: np.ndarray

    def __getitem__(self, k):
        return RotationStack(self.Z[k], self.P[k], self.Sig[k], self.Theta[k])

    def __iter__(self):
        return map(RotationStack, self.Z, self.P, self.Sig, self.Theta)


def update_rotations(comp: CompressedTensor, h, v, w, threads=None):
    """Solve every slice's orthogonal Procrustes problem in R x R space.

    The slices are split into one contiguous chunk per worker of
    ``threads`` (see ``scheduler``).  Each worker factorizes its chunk with
    :func:`~dpar2.baseline.procrustes_svd` and builds the chunk's Theta_k,
    which the returned stack carries.  Every matrix is factorized on its
    own, so the result is bit-identical at any thread count, and a failure
    names the lowest failing slice.
    """
    core_cols = comp.weights[:, None] * (comp.col_basis.T @ v)  # E D^T V, shared by all slices
    cores = comp.core_stack()

    def solve(ks):
        run = slice(ks[0], ks[-1] + 1)
        zc, sig, pt = procrustes_svd(cores[run], core_cols, h, w[run])
        z, p = fix_signs(zc, np.ascontiguousarray(pt.transpose(0, 2, 1)))
        return z, p, sig, (p @ z.transpose(0, 2, 1)) @ cores[run]

    parts = map_stacks(solve, *contiguous_runs(comp.num_slices, threads))
    return RotationStack(*(np.concatenate(piece) for piece in zip(*parts)))


def rotated_cores(comp: CompressedTensor, rotations):
    """Stack of Theta_k = P_k Z_k^T F_k, shape (K, R, R), formed from Z and P.

    Theta_k E D^T is the projected core slice Y_k.  The reference formula
    for ``rotations.Theta``, which every kernel below reads instead.
    """
    return (rotations.P @ rotations.Z.transpose(0, 2, 1)) @ comp.core_stack()


def _scaled_cores(comp, rotations):
    """Theta_k E of every slice: the cores of the sweep against D."""
    return rotations.Theta * comp.weights


def mttkrp_mode1(comp, rotations, w, v):
    """R x R right-hand side for the H solve: Y_(1) (W kr V).

    Column r reduces to (sum_k W[k, r] Theta_k) (E D^T V)[:, r].
    """
    return rhs_mode1(_scaled_cores(comp, rotations), comp.col_basis, w, v)


def mttkrp_mode2(comp, rotations, w, h):
    """J x R right-hand side for the V solve: Y_(2) (W kr H).

    Column r reduces to D E sum_k W[k, r] Theta_k^T H[:, r].
    """
    return rhs_mode2(_scaled_cores(comp, rotations), comp.col_basis, w, h)


def mttkrp_mode3(comp, rotations, v, h):
    """K x R right-hand side for the W solve: Y_(3) (V kr H).

    Entry (k, r) is the bilinear form H[:, r]^T Theta_k (E D^T V)[:, r].
    """
    return rhs_mode3(_scaled_cores(comp, rotations), comp.col_basis, v, h)


def update_factors(comp, rotations, h, v, w, normalize=True, threads=None):
    """One alternating sweep over H, V, W in compressed space.

    The shared :func:`~dpar2.baseline.als_sweep` on Theta_k E with D as
    column basis: a Gauss-Seidel pass over the projected cores.
    ``threads`` is accepted for call compatibility and unused.
    """
    return als_sweep(_scaled_cores(comp, rotations), comp.col_basis, h, v, w, normalize)


def convergence_metric(comp, rotations, h, v, w, threads=None):
    """e = sum_k ||Theta_k E D^T - H S_k V^T||_F^2, computed in R x R.

    Splitting V = D C + V_perp with C = D^T V splits each residual into
    orthogonal parts, so e = sum_k ||Theta_k E - H S_k C^T||^2 plus
    sum(H^T H o G_perp o W^T W) with G_perp = V_perp^T V_perp.
    ``threads`` is accepted for call compatibility and unused.
    """
    c = comp.col_basis.T @ v
    v_perp = v - comp.col_basis @ c
    resid = _scaled_cores(comp, rotations) - (h * w[:, None, :]) @ c.T
    outside = gram(h) * gram(v_perp) * gram(w)
    return float(np.sum(resid * resid)) + float(np.sum(outside))


def fit_dpar2(tensor: IrregularTensor, rank, opts: SolverOptions | None = None):
    """Compress once, then alternate rotations and factor sweeps in R x R space.

    Returns ``(factors, trace)``; the trace records the compressed residual
    e and wall time per iteration plus the one-off compression time; it
    stops by the rule of :func:`~dpar2.factors.iterate`.
    """
    opts = opts or SolverOptions()
    started = time.perf_counter()
    comp = compress(tensor, rank, rsvd=RsvdParams(rank=rank, seed=opts.seed),
                    threads=opts.threads)
    trace = FitTrace(preprocess_seconds=time.perf_counter() - started,
                     compressed_float_count=comp.float_count())

    def step(h, v, w, _):
        rotations = update_rotations(comp, h, v, w, opts.threads)
        h, v, w = update_factors(comp, rotations, h, v, w)
        with np.errstate(over="ignore", invalid="ignore"):  # iterate checks the objective
            objective = convergence_metric(comp, rotations, h, v, w)
        return (h, v, w, rotations), objective

    initial = initial_factors(tensor.num_cols, tensor.num_slices, rank, opts.seed)
    h, v, w, rotations = iterate(step, (*initial, None), opts, trace)

    # U_k = Z_k P_k^T for every slice in one stacked product; Q_k = A_k U_k.
    u = rotations.Z @ rotations.P.transpose(0, 2, 1)
    q = [a @ u_k for a, u_k in zip(comp.slice_bases, u)]
    return Parafac2Factors(H=h, V=v, W=w, Q=q), trace
