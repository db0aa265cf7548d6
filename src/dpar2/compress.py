"""Two-stage randomized compression of an irregular tensor.

Stage 1 sketches every slice independently: X_k ~ A_k B_k C_k^T with A_k
(I_k x R) column-orthonormal.  Stage 2 concatenates the small right parts
M = [C_1 B_1 | ... | C_K B_K] (J x KR) and sketches once more,
M ~ D diag(E) F^T, leaving

    X_k ~ A_k F_k diag(E) D^T

where F_k is the k-th (R x R) block of F (KR x R).  Only A_k, D, E, F are
kept: sum(I_k) R + K R^2 + J R + R floats in total.

Each worker sketches the slices it owns as stacks of equal row count, one
batched randomized SVD per stack.  BLAS products and NumPy's linalg
gufuncs release the GIL; the Python overhead of every call holds it.
Stacking turns thousands of tiny calls into a few large ones, so the
workers' products and factorizations overlap: it is what lets a second
worker add speed on many small slices.  Each sketch reads its slice three
times: one cache-blocked sweep for the power step, summing (A_b S)^T A_b
over row blocks of about 2^15 floats, then the range sketch and the
projection Q^T A (see ``linalg.randomized_svd``).  Per-slice sketch seeds
derive from (seed, k) only, a slice's row blocks depend only on its
shape, and a stack factorizes each matrix as it would alone, so the bits
never depend on the work partition or thread count and equal per-slice
``randomized_svd`` calls.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericFailure
from .linalg import RsvdParams, derived_seed, randomized_svd
from .scheduler import greedy_partition, parallel_slice_map, resolve_threads
from .tensor import IrregularTensor, check_rank


@dataclass
class CompressedTensor:
    """Compact factors: per-slice bases, shared column basis, weights, cores."""

    rank: int
    slice_bases: list  # A_k, each I_k x R, column-orthonormal
    col_basis: np.ndarray  # D, J x R, column-orthonormal
    weights: np.ndarray  # E, length R, nonnegative descending
    cores: np.ndarray  # F, KR x R stacked blocks, orthonormal columns

    @property
    def num_slices(self):
        return len(self.slice_bases)

    def core_block(self, k):
        """The R x R block F_k coupling slice k to the shared basis."""
        r = self.rank
        return self.cores[k * r : (k + 1) * r]

    def core_stack(self):
        """All blocks as one (K, R, R) view."""
        return self.cores.reshape(self.num_slices, self.rank, self.rank)

    def float_count(self):
        """Stored float64 count: sum(I_k) R + K R^2 + J R + R."""
        return (
            sum(a.size for a in self.slice_bases)
            + self.cores.size
            + self.col_basis.size
            + self.weights.size
        )


# Stage-1 stacks hold at most this many floats: enough slices to amortize
# NumPy's per-call overhead on small slices, few enough that copying them
# into the stack stays cheap.  A larger slice is a stack of one, a view.
_STACK_FLOATS = 1 << 18


def _stage1_stacks(plan, row_counts, cols):
    """Each worker's slices grouped by row count into stacks.

    Returns the stacks (lists of slice indices) and, per worker, the
    indices of its stacks.
    """
    stacks, groups = [], []
    for owned in plan.sets:
        by_rows = {}
        for k in owned:
            by_rows.setdefault(row_counts[k], []).append(k)
        mine = []
        for rows, ks in by_rows.items():
            size = max(1, _STACK_FLOATS // (rows * cols))
            for start in range(0, len(ks), size):
                mine.append(len(stacks))
                stacks.append(ks[start : start + size])
        groups.append(mine)
    return stacks, groups


def compress(tensor: IrregularTensor, rank, rsvd: RsvdParams | None = None, threads=None):
    """Compress ``tensor`` at ``rank`` with two randomized-SVD stages.

    ``rsvd`` supplies the seed of both stages (its rank field is overridden
    by ``rank``); the concatenated stage draws from ``derived_seed(seed,
    K)``.  The slices are split over the ``threads`` workers by
    ``greedy_partition``, and each worker sketches its slices as stacks of
    equal row count, because each call's Python overhead holds the GIL and
    only a few large calls leave a second worker room.  The thread count
    does not change the values: every slice gets the bits of
    ``randomized_svd(x_k, seed=derived_seed(seed, k))``.
    """
    check_rank(tensor, rank)
    row_counts = tensor.row_counts
    base = rsvd if rsvd is not None else RsvdParams(rank=rank)
    params = replace(base, rank=rank)
    threads = resolve_threads(threads)
    plan = greedy_partition(row_counts, threads)
    stacks, groups = _stage1_stacks(plan, row_counts, tensor.num_cols)

    def sketch(i):
        ks = stacks[i]
        if len(ks) == 1:
            x = tensor.slices[ks[0]][None]
        else:
            x = np.stack([tensor.slices[k] for k in ks])
        try:
            return randomized_svd(x, params, seeds=[derived_seed(base.seed, k) for k in ks])
        except NumericFailure as exc:
            if exc.slice_index is None:  # the factorization does not say which matrix
                raise NumericFailure(f"{exc.reason} in the stack of slices {ks}") from exc
            raise NumericFailure(exc.reason, slice_index=ks[exc.slice_index]) from exc

    stage1 = parallel_slice_map(sketch, len(stacks), threads=threads, groups=groups)

    bases = [None] * tensor.num_slices
    rights = [None] * tensor.num_slices
    for ks, trip in zip(stacks, stage1):
        right = trip.V * trip.S[:, None, :]
        for g, k in enumerate(ks):
            bases[k] = trip.U[g]
            rights[k] = right[g]
    # J x KR concatenation of the slice right parts C_k B_k, in slice order.
    merged = np.concatenate(rights, axis=1)
    shared = randomized_svd(merged, replace(params, seed=derived_seed(base.seed, tensor.num_slices)))

    return CompressedTensor(
        rank=rank,
        slice_bases=bases,
        col_basis=shared.U,
        weights=shared.S,
        cores=np.ascontiguousarray(shared.V),
    )


def reconstruct_slice(comp: CompressedTensor, k):
    """Materialize slice k as A_k (F_k (diag(E) D^T)); cost O(I_k J R)."""
    if not 0 <= k < comp.num_slices:
        raise IndexError(f"slice index {k} out of range [0, {comp.num_slices})")
    small = comp.core_block(k) @ (comp.weights[:, None] * comp.col_basis.T)
    return comp.slice_bases[k] @ small
