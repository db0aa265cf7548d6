"""Work partitioning and the package's one thread runner.

Slices of an irregular tensor have unequal row counts, so naive contiguous
chunking can leave one worker with most of the rows.  ``greedy_partition``
balances load with longest-processing-time-first assignment.
``equal_height_stacks`` is the one call that plans a stacked pass: it
resolves the thread count, partitions the slices greedily and groups each
worker's slices by row count, so compression and ALS make one batched call
per stack.  ``map_stacks`` runs every threaded pass, by stack or by slice
(``parallel_slice_map``): every slice runs, then the lowest failing slice's
error is raised.  Results land in per-slice slots and reduce in ascending
slice order afterwards, so the outcome, errors included, is the same for
any thread count.

These worker threads are the package's only parallelism: importing the
package sets numpy's bundled OpenBLAS to one thread for the whole process
(``pin_blas_threads``), so BLAS calls never start threads of their own on
top of the workers, and results do not depend on ``OPENBLAS_NUM_THREADS``.
"""
from __future__ import annotations

import ctypes
import glob
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure


@dataclass
class PartitionPlan:
    """Assignment of slice indices to worker sets with their row loads."""

    sets: list = field(default_factory=list)
    loads: list = field(default_factory=list)


def greedy_partition(row_counts, workers):
    """Longest-first greedy assignment of slices to ``workers`` sets.

    Slices are visited in descending row count (ties by ascending slice
    index) and each goes to the currently lightest set (ties by lowest set
    index).  The resulting load spread never exceeds the largest single
    slice: ``max(loads) - min(loads) <= max(row_counts)``.
    """
    counts = list(row_counts)
    if len(counts) < 1:
        raise ValueError("need at least one slice")
    if workers < 1:
        raise ValueError("need at least one worker")
    if any(c < 1 for c in counts):
        raise ValueError("row counts must be positive")
    order = sorted(range(len(counts)), key=lambda k: (-counts[k], k))
    sets = [[] for _ in range(workers)]
    loads = [0] * workers
    for k in order:
        t = min(range(workers), key=loads.__getitem__)
        sets[t].append(k)
        loads[t] += counts[k]
    return PartitionPlan(sets=sets, loads=loads)


# Stacks hold at most this many floats: enough slices to amortize NumPy's
# per-call overhead on small slices, few enough that copying them into the
# stack stays cheap.  A larger slice is a stack of one, a view.
_STACK_FLOATS = 1 << 18


def equal_height_stacks(row_counts, cols, threads=None):
    """The plan of a stacked pass: the slices split over the ``threads``
    workers (see ``resolve_threads``) by ``greedy_partition``, and each
    worker's slices grouped by row count into stacks.

    Returns the stacks (lists of slice indices, ascending within a stack)
    and, per worker, the indices of its stacks.  A stack holds at most
    ``_STACK_FLOATS`` floats of slices ``cols`` wide, and at least one slice.
    """
    stacks, groups = [], []
    for owned in greedy_partition(row_counts, resolve_threads(threads)).sets:
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


def contiguous_chunks(n, parts):
    """Split range(n) into at most ``parts`` contiguous runs of near-equal length."""
    if parts < 1:
        raise ValueError("need at least one part")
    parts = min(parts, n) if n > 0 else 1
    base, extra = divmod(n, parts)
    chunks = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


def resolve_threads(threads=None):
    """Worker count: explicit argument, else DPAR2_THREADS, else cpu count."""
    if threads is not None:
        t = int(threads)
        if t < 1:
            raise ValueError("threads must be >= 1")
        return t
    env = os.environ.get("DPAR2_THREADS")
    if env:
        try:
            t = int(env)
        except ValueError:
            t = 0
        if t < 1:
            raise ValueError(f"DPAR2_THREADS must be an integer >= 1, got {env!r}")
        return t
    return os.cpu_count() or 1


def parallel_slice_map(fn, num_slices, threads=None, groups=None):
    """Evaluate ``fn(k)`` for ``k in range(num_slices)`` across worker threads.

    :func:`map_stacks` with every slice a stack of its own.  ``groups``
    (index lists, e.g. ``PartitionPlan.sets``) gives one worker per
    non-empty group; by default the slices are chunked contiguously over
    ``resolve_threads(threads)`` workers, the only use of ``threads``.
    """
    if groups is None:
        groups = contiguous_chunks(num_slices, resolve_threads(threads))
    return map_stacks(lambda _, ks: fn(ks[0]), None, [[k] for k in range(num_slices)], groups)


def map_stacks(fn, slices, stacks, groups):
    """``fn(x, ks)`` for every stack ``ks`` of ``stacks``, in stack order;
    worker i runs the stacks ``groups[i]``, the first non-empty group on the
    calling thread and each other one on a thread of its own.

    ``x`` holds the stack's slices: None if ``slices`` is, a view for a
    stack of one or a contiguous run of an array ``slices``, else their
    ``np.stack``.  A :class:`NumericFailure` at position i of ``x`` names
    slice ``ks[i]``; one with no position names the stack by its size and
    lowest and highest slice (a stack of one, its slice) and counts as its
    lowest slice, as any other error does.  Every stack runs and every
    worker is joined, then an interrupt or exit (not an ``Exception``; it
    also ends its worker) is raised, else the lowest slice's failure.
    """
    results = [None] * len(stacks)
    failures = {}  # slice -> error; the stacks are disjoint, so the workers need no lock

    def run(group):
        for i in group:
            ks = stacks[i]
            try:
                if slices is None:
                    x = None
                elif len(ks) == 1:
                    x = slices[ks[0]][None]
                elif isinstance(slices, np.ndarray) and ks[-1] - ks[0] == len(ks) - 1:
                    x = slices[ks[0] : ks[-1] + 1]
                else:
                    x = np.stack([slices[k] for k in ks])
                results[i] = fn(x, ks)
            except NumericFailure as exc:
                k = ks[exc.slice_index or 0] if len(ks) > 1 else ks[0]
                if exc.slice_index is None and len(ks) > 1:
                    failures[k] = NumericFailure(f"{exc.reason} in the stack of {len(ks)} "
                                                 f"slices (lowest {ks[0]}, highest {ks[-1]})")
                else:
                    failures[k] = NumericFailure(exc.reason, slice_index=k)
                failures[k].__cause__ = exc
            except BaseException as exc:  # noqa: BLE001 - raised below
                failures[ks[0]] = exc
                if not isinstance(exc, Exception):
                    return

    first, *rest = [g for g in groups if g] or [[]]
    workers = [threading.Thread(target=run, args=(group,)) for group in rest]
    try:
        for worker in workers:
            worker.start()
        run(first)
    finally:
        for worker in workers:
            if worker.ident is not None:  # it started
                worker.join()
    if failures:  # an interrupt or exit before any error, then the lowest slice
        raise min(failures.items(), key=lambda item: (isinstance(item[1], Exception), item[0]))[1]
    return results


def _openblas_libraries():
    """Paths of the OpenBLAS libraries bundled with the numpy wheel."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    return sorted(glob.glob(os.path.join(libs, "*openblas*")))


def openblas_function(name):
    """The C function ``name`` of numpy's bundled OpenBLAS, or None if absent."""
    for path in _openblas_libraries():
        try:
            fn = getattr(ctypes.CDLL(path), name, None)
        except OSError:
            continue
        if fn is not None:
            return fn
    return None


def pin_blas_threads():
    """Set numpy's bundled OpenBLAS to one thread; False when it is not found.

    Runs once, when the package is imported.  The pin is process-wide on
    purpose: scoping it to parallel regions leaves BLAS threads spinning
    between them, and the thread count changes the bits some BLAS calls
    return, so every entry point and direct kernel call must see the same
    count.
    """
    setter = openblas_function("scipy_openblas_set_num_threads64_")
    if setter is None:
        return False
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)
    return True


pin_blas_threads()
