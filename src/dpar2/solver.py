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

The rotations run on the worker threads, one contiguous chunk of slices
per worker, and each worker also builds its chunk's Theta_k, so Theta is
formed once per iteration and shared by the sweep and the metric.  Every
R x R matrix is factorized on its own, so no result depends on the
thread count.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baseline import als_sweep, rhs_mode1, rhs_mode2, rhs_mode3
from .compress import CompressedTensor, compress
from .errors import NumericFailure
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, iterate
from .linalg import RsvdParams, fix_signs, gram
from .scheduler import contiguous_chunks, parallel_slice_map, resolve_threads
from .tensor import IrregularTensor


# Fewest R x R target floats worth a worker of the rotation pass.  Smaller
# chunks lose more to starting the workers and to their GIL-held small
# products than the extra core saves: on a 2-core host, 200 targets of
# 10 x 10 took as long in two chunks as in one, and 400 took 1.2-1.4x less.
_MIN_CHUNK_FLOATS = 1 << 14


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

    The slices are split into one contiguous chunk per worker thread
    (``threads``, resolved as everywhere else, but at most one worker per
    2^14 target floats), and each worker factorizes its chunk as one
    stacked SVD.  Every matrix is factorized on its own, so the result is
    bit-identical at any thread count.
    """
    return _rotate(comp, h, v, w, threads)[0]


def _rotate(comp, h, v, w, threads):
    """Rotations of every slice and the matching Theta stack, in one pass.

    Each worker also builds its chunk's Theta_k = P_k Z_k^T F_k while the
    pieces are at hand, so the solver forms Theta once per iteration.
    """
    core_cols = comp.weights[:, None] * (comp.col_basis.T @ v)  # E D^T V, shared by all slices
    cores = comp.core_stack()
    z, p, theta = (np.empty_like(cores) for _ in range(3))
    sig = np.empty(cores.shape[:2])
    workers = min(resolve_threads(threads), max(1, cores.size // _MIN_CHUNK_FLOATS))
    chunks = contiguous_chunks(comp.num_slices, workers)

    def solve(c):
        first = chunks[c][0]
        part = slice(first, chunks[c][-1] + 1)
        t = ((cores[part] @ core_cols) * w[part, None, :]) @ h.T
        finite = np.isfinite(t).all(axis=(1, 2))
        if not finite.all():
            raise NumericFailure("rotation target is not finite",
                                 slice_index=first + int(np.argmin(finite)))
        try:
            zc, sig[part], pt = np.linalg.svd(t, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericFailure("rotation SVD did not converge") from exc
        z[part], p[part] = fix_signs(zc, np.ascontiguousarray(pt.transpose(0, 2, 1)))
        theta[part] = (p[part] @ z[part].transpose(0, 2, 1)) @ cores[part]

    parallel_slice_map(solve, len(chunks), threads=workers)
    return RotationStack(Z=z, P=p, Sig=sig), theta


def rotated_cores(comp: CompressedTensor, rotations):
    """Stack of Theta_k = P_k Z_k^T F_k, shape (K, R, R).

    Theta_k E D^T is the projected core slice Y_k; every kernel below
    contracts against this stack instead of the J-sized cores.
    """
    return (rotations.P @ rotations.Z.transpose(0, 2, 1)) @ comp.core_stack()


def _scaled_cores(comp, rotations):
    """Theta_k E of every slice: the cores of the sweep against D."""
    return rotated_cores(comp, rotations) * comp.weights


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
    return _metric(comp, _scaled_cores(comp, rotations), h, v, w)


def _metric(comp, scaled, h, v, w):
    c = comp.col_basis.T @ v
    v_perp = v - comp.col_basis @ c
    resid = scaled - (h * w[:, None, :]) @ c.T
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
        rotations, theta = _rotate(comp, h, v, w, opts.threads)
        scaled = theta * comp.weights
        h, v, w = als_sweep(scaled, comp.col_basis, h, v, w, normalize=True)
        return (h, v, w, rotations), _metric(comp, scaled, h, v, w)

    initial = initial_factors(tensor.num_cols, tensor.num_slices, rank, opts.seed)
    h, v, w, rotations = iterate(step, (*initial, None), opts, trace)

    # U_k = Z_k P_k^T for every slice in one stacked product; Q_k = A_k U_k.
    u = rotations.Z @ rotations.P.transpose(0, 2, 1)
    q = [a @ u_k for a, u_k in zip(comp.slice_bases, u)]
    return Parafac2Factors(H=h, V=v, W=w, Q=q), trace
