"""DPar2: PARAFAC2-ALS on the compressed slices.

Compression leaves every slice as A_k F_k diag(E) D^T with A_k and D
column-orthonormal.  Rotating slice k by Q_k = A_k Z_k P_k^T projects it
to Y_k = Q_k^T X_k = Theta_k B^T, with the R x R block
Theta_k = P_k Z_k^T F_k and the J x R column basis B = D diag(E).  So
DPar2 is ALS on the blocks F_k with column basis B, each of its three
steps one batched operation over the (K, R, R) stack of slices:

* :func:`update_rotations`: the Procrustes target X_k V S_k H^T is A_k T_k
  with T_k = F_k (B^T V) S_k H^T, and A_k has orthonormal columns, so the
  R x R SVD T_k = Z_k Sig_k P_k^T gives the optimal Q_k without forming
  it.  Each worker of ``scheduler.contiguous_runs`` factorizes one
  contiguous chunk with the baseline's
  :func:`~dpar2.baseline.procrustes_svd` and builds the chunk's Theta_k;
  the returned :class:`RotationStack` carries Theta to the next two
  steps, so it is formed once per iteration.
* :func:`update_factors`: the baseline's :func:`~dpar2.baseline.als_sweep`
  on Theta with basis B, whose right-hand sides (MTTKRP products) are
  small contractions; Y_k is never formed.
* :func:`convergence_metric`: e = sum_k ||Theta_k B^T - H S_k V^T||_F^2,
  which equals the residual against the compressed slices because the
  Frobenius norm ignores the orthonormal left factors.

Every R x R matrix is factorized on its own, so no result depends on
the thread count.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .baseline import als_sweep, model_rows, procrustes_svd, rhs_mode1, rhs_mode2, rhs_mode3
from .compress import CompressedTensor, compress
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, iterate
from .linalg import RsvdParams
from .scheduler import contiguous_runs, map_stacks
from .tensor import IrregularTensor


@dataclass(eq=False, repr=False)
class RotationStack:
    """Procrustes pieces of all slices, T_k = Z[k] diag(Sig[k]) P[k]^T,
    and their rotated cores Theta[k] = P[k] Z[k]^T F_k.

    ``Z``, ``P`` (orthogonal) and ``Theta`` are (K, R, R) stacks and ``Sig``
    is (K, R), as the stacked SVD returns them: Theta and Z P^T do not
    depend on the SVD's signs, so none is fixed.  ``rots[k]`` and
    iteration yield each slice's own pieces.
    """

    Z: np.ndarray
    P: np.ndarray
    Sig: np.ndarray
    Theta: np.ndarray

    def __getitem__(self, k):
        return RotationStack(self.Z[k], self.P[k], self.Sig[k], self.Theta[k])

    def __iter__(self):
        return (RotationStack(*parts) for parts in zip(self.Z, self.P, self.Sig, self.Theta))


def _basis(comp):
    """B = D diag(E), J x R: the column basis of every projected slice."""
    return comp.col_basis * comp.weights


def update_rotations(comp: CompressedTensor, h, v, w, threads=None):
    """Solve every slice's orthogonal Procrustes problem in R x R space.

    Each worker of ``threads`` factorizes one contiguous chunk of slices
    and builds its Theta_k from the SVD's factors as it returns them.  The
    result is bit-identical at any thread count, and a failure names the
    lowest failing slice.
    """
    core_cols = _basis(comp).T @ v  # E D^T V, shared by all slices
    cores = comp.core_stack()
    z, p, theta = (np.empty(cores.shape) for _ in range(3))
    sig = np.empty(cores.shape[:2])

    def solve(ks):
        run = slice(ks[0], ks[-1] + 1)
        z[run], sig[run], pt = procrustes_svd(cores[run], core_cols, h, w[run])
        p[run] = pt.transpose(0, 2, 1)
        np.matmul(p[run] @ z[run].transpose(0, 2, 1), cores[run], out=theta[run])

    map_stacks(solve, *contiguous_runs(comp.num_slices, threads))
    return RotationStack(z, p, sig, theta)


def rotated_cores(comp: CompressedTensor, rotations):
    """Stack of Theta_k = P_k Z_k^T F_k, shape (K, R, R), formed from Z and P.

    Theta_k (D diag(E))^T is the projected core slice Y_k.  The reference
    formula for ``rotations.Theta``, which every kernel below reads instead,
    and it has Theta's bits.
    """
    return (rotations.P @ rotations.Z.transpose(0, 2, 1)) @ comp.core_stack()


def mttkrp_mode1(comp, rotations, w, v):
    """R x R right-hand side for the H solve: Y_(1) (W kr V).

    Column r reduces to (sum_k W[k, r] Theta_k) (E D^T V)[:, r].
    """
    return rhs_mode1(rotations.Theta, _basis(comp), w, v)


def mttkrp_mode2(comp, rotations, w, h):
    """J x R right-hand side for the V solve: Y_(2) (W kr H).

    Column r reduces to D E sum_k W[k, r] Theta_k^T H[:, r].
    """
    return rhs_mode2(rotations.Theta, _basis(comp), w, h)


def mttkrp_mode3(comp, rotations, v, h):
    """K x R right-hand side for the W solve: Y_(3) (V kr H).

    Entry (k, r) is the bilinear form H[:, r]^T Theta_k (E D^T V)[:, r].
    """
    return rhs_mode3(rotations.Theta, _basis(comp), v, h)


def update_factors(comp, rotations, h, v, w, normalize=True, threads=None):
    """One alternating sweep over H, V, W in compressed space.

    The shared :func:`~dpar2.baseline.als_sweep` on the stack Theta_k with
    column basis D diag(E): a Gauss-Seidel pass over the projected cores.
    ``threads`` is accepted for call compatibility and unused.
    """
    return als_sweep(rotations.Theta, _basis(comp), h, v, w, normalize)


def convergence_metric(comp, rotations, h, v, w, threads=None):
    """e = sum_k ||Theta_k E D^T - H S_k V^T||_F^2, computed in R x R.

    With D^T D = I each square expands into three terms,

        e = sum_k ||Theta_k E||^2 - 2 <W, M_3> + sum_k ||H S_k V^T||^2,

    where M_3 = :func:`mttkrp_mode3` is the W solve's right-hand side, so
    sum_r W[k, r] M_3[k, r] = <Y_k, H S_k V^T>.  The first term is read off
    Theta and E^2, the last off :func:`~dpar2.baseline.model_rows`, the
    model term of the ALS objective too.  Near an exact fit the terms
    cancel to about eps * sum_k ||Theta_k E||^2, so a finite e is clamped
    at 0; one that overflowed is returned non-finite, with no warning.
    ``threads`` is accepted for call compatibility and unused.
    """
    theta = rotations.Theta
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.einsum("kir,kir->r", theta, theta) @ np.square(comp.weights)
        m3 = mttkrp_mode3(comp, rotations, v, h)
        model = model_rows(h, v, w)
        e = float(data) - 2.0 * float(np.sum(w * m3)) + float(np.sum(model * model))
    return max(e, 0.0) if math.isfinite(e) else e


def fit_dpar2(tensor: IrregularTensor, rank, opts: SolverOptions | None = None):
    """Compress once, then run ALS on the compressed slices in R x R space.

    Each iteration is :func:`update_rotations`, :func:`update_factors` and
    :func:`convergence_metric`.  Returns ``(factors, trace)``; the trace
    records the compressed residual e and wall time per iteration plus the
    one-off compression time; it stops by the rule of
    :func:`~dpar2.factors.iterate`.
    """
    opts = opts or SolverOptions()
    started = time.perf_counter()
    comp = compress(tensor, rank, rsvd=RsvdParams(rank=rank, seed=opts.seed),
                    threads=opts.threads)
    trace = FitTrace(preprocess_seconds=time.perf_counter() - started,
                     compressed_float_count=comp.float_count())

    def step(h, v, w, _):
        rotations = update_rotations(comp, h, v, w, opts.threads)
        h, v, w = update_factors(comp, rotations, h, v, w, normalize=True)
        return (h, v, w, rotations), convergence_metric(comp, rotations, h, v, w)

    initial = initial_factors(tensor.num_cols, tensor.num_slices, rank, opts.seed)
    h, v, w, rotations = iterate(step, (*initial, None), opts, trace)

    # U_k = Z_k P_k^T for every slice in one stacked product; Q_k = A_k U_k.
    u = rotations.Z @ rotations.P.transpose(0, 2, 1)
    q = [a @ u_k for a, u_k in zip(comp.slice_bases, u)]
    return Parafac2Factors(H=h, V=v, W=w, Q=q), trace
