"""Two-stage randomized compression of an irregular tensor.

Stage 1 sketches every slice independently: X_k ~ A_k B_k C_k^T with A_k
(I_k x R) column-orthonormal.  Stage 2 concatenates the small right parts
M = [C_1 B_1 | ... | C_K B_K] (J x KR) and sketches once more,
M ~ D diag(E) F^T, leaving

    X_k ~ A_k F_k diag(E) D^T

where F_k is the k-th (R x R) block of F (KR x R).  Only A_k, D, E, F are
kept: sum(I_k) R + K R^2 + J R + R floats in total.

One ``scheduler.equal_height_stacks`` call cuts the tensor into stacks
of equal row count, each a view of the tensor's height-ordered buffer, and
splits them over the workers; each stack is one batched randomized SVD on
that view, run by ``scheduler.map_stacks``, which names the lowest failing
slice at any thread count.  BLAS products
and NumPy's linalg gufuncs release the GIL; the Python overhead of every
call holds it.  Stacking turns thousands of tiny calls into a few large
ones, so the workers' products and factorizations overlap: it is what
lets a second worker add speed on many small slices.  Each sketch reads
its slice four times: twice for the power step (A S)^T A, then the range
sketch and the projection Q^T A (see ``linalg.randomized_svd``).
Per-slice sketch seeds derive from (seed, k) only, and a stack
factorizes each matrix as it would alone, so the bits never depend on
the work partition or thread count and equal per-slice
``randomized_svd`` calls.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IndexOutOfRangeError
from .factors import as_integer
from .linalg import RsvdParams, derived_seed, randomized_svd
from .scheduler import equal_height_stacks, map_stacks
from .tensor import IrregularTensor, check_rank


@dataclass(eq=False, repr=False)
class CompressedTensor:
    """Compact factors: per-slice bases, shared column basis, weights, cores.
    Compared by identity, with a short repr, as
    :class:`~dpar2.factors.Parafac2Factors`."""

    rank: int
    slice_bases: list  # A_k, each I_k x R, column-orthonormal
    col_basis: np.ndarray  # D, J x R, column-orthonormal
    weights: np.ndarray  # E, length R, nonnegative descending
    cores: np.ndarray  # F, KR x R stacked blocks, orthonormal columns

    @property
    def num_slices(self):
        return len(self.slice_bases)

    def core_block(self, k):
        """The R x R block F_k coupling slice k, an integer in [0, K), to the shared basis."""
        k = as_integer("k", k)
        if not 0 <= k < self.num_slices:
            raise IndexOutOfRangeError(f"slice index {k} out of range [0, {self.num_slices})")
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


def compress(tensor: IrregularTensor, rank, rsvd: RsvdParams | None = None, threads=None):
    """Compress ``tensor`` at ``rank`` with two randomized-SVD stages.

    ``rsvd`` supplies the seed of both stages (its rank field is overridden
    by ``rank``); the concatenated stage draws from ``derived_seed(seed,
    K)``.  ``equal_height_stacks`` cuts the slices into stacks of equal
    row count and splits them over the ``threads`` workers, one sketch per
    stack, on the stack's view of the tensor (no copy).  The thread count
    changes neither the values nor the slice a failure names: every slice gets the bits of
    ``randomized_svd(x_k, seed=derived_seed(seed, k))``.
    """
    check_rank(tensor, rank)
    base = rsvd if rsvd is not None else RsvdParams(rank=rank)
    params = replace(base, rank=rank)
    stacks, groups = equal_height_stacks(tensor.row_counts, tensor.num_cols, threads)

    bases = [None] * tensor.num_slices
    rights = [None] * tensor.num_slices

    def sketch(ks):
        seeds = [derived_seed(base.seed, k) for k in ks]
        trip = randomized_svd(tensor.stack(ks), params, seeds=seeds)
        for k, u, right in zip(ks, trip.U, trip.V * trip.S[:, None, :]):
            bases[k], rights[k] = u, right

    map_stacks(sketch, stacks, groups)
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
    small = comp.core_block(k) @ (comp.weights[:, None] * comp.col_basis.T)
    return comp.slice_bases[k] @ small
