"""Work planning and the package's one thread runner.

Every threaded pass runs on min(``resolve_threads(threads)``, K) workers,
K being the stacks, runs or R x R blocks it splits.  That rule is
``_workers``, and only the three planners call it.  ``equal_height_stacks``
plans ``compress``, ``fit_baseline`` and planted ``generate`` over the
whole tensor: it cuts each run of equal height in ``height_order``, the
layout of every tensor's buffer, into stacks, each one view and one
batched call, and ``greedy_partition`` balances their row loads over the
workers.
``contiguous_runs`` plans ``update_rotations``, ``load_archive`` and
uniform ``generate``: one contiguous run of slices per worker.
``parallel_slice_map`` splits ``fitness`` the same way and calls ``fn(k)``
per slice.  ``map_stacks`` runs every pass, calling ``fn(ks)`` per stack:
every slice runs, then the lowest failing slice's error is raised.
Results land in per-stack slots and reduce in slice order afterwards, so
the outcome, errors included, is the same for any thread count.

A pass runs its first group on the calling thread and hands each other
group to an idle worker, a daemon thread kept between passes; only when
none is idle does it start one.  A worker takes one group at a time and
rejoins the idle stack when its group is done, so a pass never waits on a
busy worker (a pass started inside a group, or two passes at once), and
there are never more workers than were ever busy at once.  A forked child
starts with none: the parent's threads do not exist in it.

These worker threads are the package's only parallelism: importing the
package sets numpy's bundled OpenBLAS to one thread for the whole process
(``pin_blas_threads``), so BLAS calls never start threads of their own on
top of the workers, and results do not depend on ``OPENBLAS_NUM_THREADS``.
"""
from __future__ import annotations

import ctypes
import glob
import itertools
import os
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure
from .factors import as_integer


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
# per-call overhead on small slices, few enough that many small slices still
# make stacks for every worker and each call's temporaries stay small.
_STACK_FLOATS = 1 << 18


def _workers(threads, count):
    """The worker rule of every pass: min(``resolve_threads(threads)``,
    ``count``), and one worker, the calling thread, for no work at all."""
    return max(1, min(resolve_threads(threads), count))


def height_order(row_counts):
    """The slices in layout order, by (row count, index): the order of every
    tensor's buffer, so each run of equal height in it is contiguous."""
    return sorted(range(len(row_counts)), key=row_counts.__getitem__)


def equal_height_stacks(row_counts, cols, threads=None):
    """The plan of a stacked pass: each run of equal height in
    ``height_order`` cut into stacks of at most ``_STACK_FLOATS`` floats of
    slices ``cols`` wide (and at least one slice), each one view of the
    tensor; then the stacks split over the workers by ``greedy_partition``
    on their row loads.  Returns the stacks and the groups, each a
    worker's stack indices."""
    stacks = []
    for rows, run in itertools.groupby(height_order(row_counts), key=row_counts.__getitem__):
        run = list(run)
        size = max(1, _STACK_FLOATS // (rows * cols))
        stacks += [run[start : start + size] for start in range(0, len(run), size)]
    loads = [len(ks) * row_counts[ks[0]] for ks in stacks]
    return stacks, greedy_partition(loads, _workers(threads, len(stacks))).sets


def contiguous_runs(n, threads=None):
    """The plan of a pass over runs: range(n) split into one contiguous run
    per worker, returned as ``map_stacks``' stacks and groups."""
    runs = contiguous_chunks(n, _workers(threads, n))
    return runs, [[i] for i in range(len(runs))]


def contiguous_chunks(n, parts):
    """Split range(n) into ``parts`` contiguous runs of near-equal length."""
    if parts < 1:
        raise ValueError("need at least one part")
    base, extra = divmod(n, parts)
    starts = [i * base + min(i, extra) for i in range(parts + 1)]  # the first `extra` one longer
    return [list(range(a, b)) for a, b in zip(starts, starts[1:])]


def resolve_threads(threads=None):
    """Worker count: an explicit integer, else DPAR2_THREADS, else cpu count."""
    if threads is not None:
        threads = as_integer("threads", threads)
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return threads
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
    non-empty group; by default each worker takes one contiguous run of
    the slices, the only use of ``threads``.
    """
    if groups is None:
        groups = contiguous_chunks(num_slices, _workers(threads, num_slices))
    return map_stacks(lambda ks: fn(ks[0]), [[k] for k in range(num_slices)], groups)


def map_stacks(fn, stacks, groups):
    """``fn(ks)`` for every stack ``ks`` of ``stacks``, in stack order;
    worker i runs the stacks ``groups[i]``, the first non-empty group on the
    calling thread and each other one on a worker thread of its own, an
    idle one if there is one (see the module docstring).  ``fn`` finds
    the stack's data itself, e.g. as ``IrregularTensor.stack(ks)``.

    A :class:`NumericFailure` at position i names slice ``ks[i]``; one with
    no position names the stack by its size and lowest and highest slice (a
    stack of one, its slice) and counts as its lowest slice, as any other
    error does.  Every stack runs and every group finishes, then an
    interrupt or exit (not an ``Exception``; it also ends its group) is
    raised, else the lowest slice's failure.  When this returns, no worker
    holds ``fn`` or a result.
    """
    results = [None] * len(stacks)
    failures = {}  # slice -> error; the stacks are disjoint, so the workers need no lock

    def run(group):
        for i in group:
            ks = stacks[i]
            try:
                results[i] = fn(ks)
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
    done = queue.SimpleQueue()  # one item per finished group
    handed = 0
    try:
        for group in rest:
            try:
                inbox = _idle.pop()
            except IndexError:  # every worker is busy: add one
                inbox = queue.SimpleQueue()
                threading.Thread(target=_serve, args=(inbox,), daemon=True).start()
            inbox.put((run, group, done))
            handed += 1
        run(first)
    finally:
        for _ in range(handed):
            done.get()
    if failures:  # an interrupt or exit before any error, then the lowest slice
        raise min(failures.items(), key=lambda item: (isinstance(item[1], Exception), item[0]))[1]
    return results


# Inboxes of the idle workers, used as a stack: the worker that went idle
# last takes the next group.  list.pop and list.append are atomic, so
# taking a worker and putting one back need no lock.
_idle = []


def _serve(inbox):
    """Body of a worker: run each group posted to ``inbox``.  The pass's
    runner is dropped before the worker rejoins ``_idle``, and the worker
    rejoins it before it reports the group done, so when a pass returns
    its workers hold nothing of it and can all take the next pass."""
    while True:
        run, group, done = inbox.get()
        run(group)  # records every error itself, so the worker never dies
        del run, group
        _idle.append(inbox)
        done.put(None)


def _forget_workers():
    """In a forked child: the parent's workers were not copied into it."""
    global _idle
    _idle = []


os.register_at_fork(after_in_child=_forget_workers)


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
