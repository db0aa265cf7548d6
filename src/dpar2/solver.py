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
  Frobenius norm ignores the orthonormal left factors A_k Z_k P_k^T.
  Expanding each square, and using D^T D = I, gives three terms,

      e = sum_k ||Theta_k E||^2 - 2 <W, M_3> + <H^T H o V^T V, W^T W>,

  where M_3 = Y_(3) (V kr H) is the W solve's right-hand side: entry
  (k, r) is H[:, r]^T Theta_k E D^T V[:, r], so sum_r W[k, r] M_3[k, r]
  is <Y_k, H S_k V^T>.  The sweep forms M_3 with the final H and V
  anyway (the identity CP-ALS codes use to read the fit off the last
  MTTKRP), so the objective costs one pass over the (K, R, R) stack for
  the first term and K x R^2 work for the last, which is formed as
  ||W (R_V kr H)^T||^2 from the triangular factor of V = Q_V R_V rather
  than from Gram matrices.  The terms cancel near an exact fit, so e
  carries a rounding error of about eps * sum_k ||Theta_k E||^2 and is
  clamped at 0.  Components that grow large and cancel each other (a
  two-factor degeneracy) add about eps * ||W|| * ||H S_k V^T|| more; a
  Gram-matrix last term would add eps * ||W||^2.

The rotations run one contiguous chunk of slices per worker, planned by
``scheduler.contiguous_runs``, through ``scheduler.map_stacks`` and the
ALS baseline's Procrustes kernel :func:`~dpar2.baseline.procrustes_svd`.
Each worker also builds its chunk's Theta_k from the raw SVD factors, and
the returned :class:`RotationStack` carries Theta to the sweep and the
objective, so it is formed once per iteration.  Neither Theta_k nor
Z_k P_k^T depends on the SVD's signs, so the sign convention is applied
only where Z or P is read: once per fit, for the Q_k.  Every R x R matrix
is factorized on its own, so no result depends on the thread count.
"""
from __future__ import annotations

import math
import time

import numpy as np

from .baseline import als_sweep, procrustes_svd, rhs_mode1, rhs_mode2, rhs_mode3
from .compress import CompressedTensor, compress
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, iterate
from .linalg import RsvdParams, fix_signs, khatri_rao
from .scheduler import contiguous_runs, map_stacks
from .tensor import IrregularTensor


class RotationStack:
    """Procrustes pieces of all slices, T_k = Z[k] diag(Sig[k]) P[k]^T,
    and their rotated cores Theta[k] = P[k] Z[k]^T F_k.

    ``Z``, ``P`` (orthogonal) and ``Theta`` are (K, R, R) stacks and ``Sig``
    is (K, R); ``rots[k]`` and iteration yield each slice's own pieces.
    ``z`` and ``p`` are the raw SVD factors: the first read of ``Z`` or
    ``P`` applies :func:`~dpar2.linalg.fix_signs` to the whole stack and
    keeps the result.  A flip negates the same column of both, so Theta
    and Z P^T keep every bit; ``signs_fixed`` says the factors already
    carry the convention.
    """

    def __init__(self, z, p, sig, theta, signs_fixed=False):
        self._z, self._p, self._signs_fixed = z, p, signs_fixed
        self.Sig, self.Theta = sig, theta

    def _factors(self):
        if not self._signs_fixed:
            self._z, self._p = fix_signs(self._z, self._p)
            self._signs_fixed = True
        return self._z, self._p

    @property
    def Z(self):
        return self._factors()[0]

    @property
    def P(self):
        return self._factors()[1]

    def __getitem__(self, k):
        z, p = self._factors()
        return RotationStack(z[k], p[k], self.Sig[k], self.Theta[k], signs_fixed=True)

    def __iter__(self):
        z, p = self._factors()
        return (RotationStack(*parts, signs_fixed=True) for parts in zip(z, p, self.Sig, self.Theta))


def update_rotations(comp: CompressedTensor, h, v, w, threads=None):
    """Solve every slice's orthogonal Procrustes problem in R x R space.

    The slices are split into one contiguous chunk per worker of
    ``threads`` (see ``scheduler``).  Each worker factorizes its chunk with
    :func:`~dpar2.baseline.procrustes_svd` and builds the chunk's Theta_k
    from the raw SVD factors, writing its run of the returned stack; the
    sign convention waits until ``Z`` or ``P`` is read.  Every matrix is
    factorized on its own, so the result is bit-identical at any thread
    count, and a failure names the lowest failing slice.
    """
    core_cols = comp.weights[:, None] * (comp.col_basis.T @ v)  # E D^T V, shared by all slices
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

    Theta_k E D^T is the projected core slice Y_k.  The reference formula
    for ``rotations.Theta``, which every kernel below reads instead; built
    from the sign-fixed Z and P, it has Theta's bits.
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
    return als_sweep(_scaled_cores(comp, rotations), comp.col_basis, h, v, w, normalize)[:3]


def convergence_metric(comp, rotations, h, v, w, threads=None):
    """e = sum_k ||Theta_k E D^T - H S_k V^T||_F^2, computed in R x R.

    Expanded as sum_k ||Theta_k E||^2 - 2 <W, M_3> + <H^T H o V^T V, W^T W>
    with M_3 = :func:`mttkrp_mode3` (see the module docstring), and clamped
    at 0.  It forms M_3 itself with the same kernel the sweep's W solve
    uses, so after :func:`update_factors` it has the bits of the objective
    ``fit_dpar2`` reads off its sweep.  ``threads`` is accepted for call
    compatibility and unused.
    """
    scaled = _scaled_cores(comp, rotations)
    return _objective(scaled, rhs_mode3(scaled, comp.col_basis, v, h), h, v, w)


def _objective(scaled, m3, h, v, w):
    """The three-term e from the cores Theta_k E and the W solve's M_3.

    The last term is sum_k ||H S_k V^T||^2 = ||W (R kr H)^T||^2 with R the
    triangular factor of V = QR, so no Gram matrix is formed.  A finite
    value is clamped at 0, since near an exact fit the terms cancel to
    rounding error; one that overflowed stays non-finite.
    """
    model = w @ khatri_rao(np.linalg.qr(v, mode="r"), h).T
    e = float(np.sum(scaled * scaled)) - 2.0 * float(np.sum(w * m3)) + float(np.sum(model * model))
    return max(e, 0.0) if math.isfinite(e) else e


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
        # The public steps update_rotations, update_factors and
        # convergence_metric, with Theta_k E and M_3 formed once.
        rotations = update_rotations(comp, h, v, w, opts.threads)
        scaled = _scaled_cores(comp, rotations)
        h, v, w, m3 = als_sweep(scaled, comp.col_basis, h, v, w, normalize=True)
        with np.errstate(over="ignore", invalid="ignore"):  # iterate checks the objective
            objective = _objective(scaled, m3, h, v, w)
        return (h, v, w, rotations), objective

    initial = initial_factors(tensor.num_cols, tensor.num_slices, rank, opts.seed)
    h, v, w, rotations = iterate(step, (*initial, None), opts, trace)

    # U_k = Z_k P_k^T for every slice in one stacked product; Q_k = A_k U_k.
    u = rotations.Z @ rotations.P.transpose(0, 2, 1)
    q = [a @ u_k for a, u_k in zip(comp.slice_bases, u)]
    return Parafac2Factors(H=h, V=v, W=w, Q=q), trace
