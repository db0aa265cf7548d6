"""Partitioning, parallel-loop determinism and BLAS thread pin checks."""
import ctypes
import gc
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar2
from dpar2 import cli
from dpar2.errors import NumericFailure
from dpar2.scheduler import (
    _STACK_FLOATS,
    contiguous_chunks,
    equal_height_stacks,
    greedy_partition,
    height_order,
    map_stacks,
    openblas_function,
    parallel_slice_map,
    resolve_threads,
)

SRC = str(Path(dpar2.__file__).resolve().parents[1])


def run_python(args, blas_threads):
    """Run ``python args`` with the package importable and OpenBLAS at ``blas_threads``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestGreedyPartition:
    def test_hand_traced_example(self):
        plan = greedy_partition([5, 4, 3, 3, 2], 2)
        assert sorted(plan.loads) == [8, 9]
        by_load = {plan.loads[i]: sorted(plan.sets[i]) for i in range(2)}
        assert by_load[8] == [0, 3]  # rows 5 and 3
        assert by_load[9] == [1, 2, 4]  # rows 4, 3, 2

    def test_single_worker_gets_everything(self):
        plan = greedy_partition([3, 1, 4], 1)
        assert len(plan.sets) == 1
        assert sorted(plan.sets[0]) == [0, 1, 2]
        assert plan.loads == [8]

    def test_equal_counts_divide_evenly(self):
        plan = greedy_partition([2] * 8, 4)
        assert plan.loads == [4, 4, 4, 4]

    def test_more_workers_than_slices(self):
        plan = greedy_partition([7, 7], 5)
        assert sorted(plan.loads, reverse=True) == [7, 7, 0, 0, 0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            greedy_partition([], 2)
        with pytest.raises(ValueError):
            greedy_partition([1, 2], 0)
        with pytest.raises(ValueError):
            greedy_partition([1, 0], 2)
        # True made a one-worker plan and 2.0 failed as a TypeError in range().
        for workers in (True, 2.0):
            with pytest.raises(ValueError, match="workers must be an integer"):
                greedy_partition([3, 2], workers)

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 500), min_size=1, max_size=60),
        workers=st.integers(1, 9),
    )
    def test_partition_exactness_and_balance(self, counts, workers):
        plan = greedy_partition(counts, workers)
        seen = sorted(k for group in plan.sets for k in group)
        assert seen == list(range(len(counts)))
        for i, group in enumerate(plan.sets):
            assert plan.loads[i] == sum(counts[k] for k in group)
        assert max(plan.loads) - min(plan.loads) <= max(counts)


class TestEqualHeightStacks:
    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.lists(st.sampled_from([1, 7, 30, 70, 600]), min_size=1, max_size=60),
        cols=st.sampled_from([3, 2000, 5000]),
        workers=st.integers(1, 4),
    )
    def test_stacks_are_balanced_runs_of_the_layout(self, counts, cols, workers):
        stacks, groups = equal_height_stacks(counts, cols, workers)
        assert sorted(k for ks in stacks for k in ks) == list(range(len(counts)))
        order = height_order(counts)
        assert order == sorted(range(len(counts)), key=lambda k: (counts[k], k))
        for ks in stacks:
            assert len({counts[k] for k in ks}) == 1
            assert len(ks) == 1 or len(ks) * counts[ks[0]] * cols <= _STACK_FLOATS
            start = order.index(ks[0])
            assert order[start : start + len(ks)] == ks  # one view of the layout
        assert sorted(i for g in groups for i in g) == list(range(len(stacks)))
        assert len(groups) == min(workers, len(stacks)) and all(groups)
        loads = [sum(len(stacks[i]) * counts[stacks[i][0]] for i in g) for g in groups]
        assert max(loads) - min(loads) <= max(len(ks) * counts[ks[0]] for ks in stacks)

    def test_plans_no_worker_past_the_last_slice(self):
        # Planning 300 000 workers for 3 slices cost O(K * threads).  The
        # three equal slices fit one stack, which is halved until each of
        # the min(threads, K) = 3 workers has a stack of its own.
        stacks, groups = equal_height_stacks([5, 5, 5], 3, threads=300_000)
        assert stacks == [[0], [1], [2]]
        assert groups == [[0], [1], [2]]

    def test_small_equal_slices_give_every_worker_a_stack(self):
        # 2000 slices of 10 x 10 fit one stack of 200 000 floats, which one
        # worker ran at any thread count.  Cutting it into near-equal pieces
        # gives each worker a stack, and a stack factorizes each slice as it
        # would alone, so no pass changes a bit.
        stacks, groups = equal_height_stacks([10] * 2000, 10, threads=2)
        assert stacks == [list(range(1000)), list(range(1000, 2000))]
        assert groups == [[0], [1]]
        stacks, _ = equal_height_stacks([10] * 2000, 10, threads=3)
        assert [len(ks) for ks in stacks] == [667, 667, 666]

        tensor = dpar2.generate(dpar2.SyntheticSpec(rows=10, cols=10, num_slices=2000, seed=3))
        runs = []
        for threads in (1, 2, 3):
            comp = dpar2.compress(tensor, 3, threads=threads)
            factors, trace = dpar2.fit_baseline(
                tensor, 3, dpar2.SolverOptions(max_iters=3, tol=0.0, threads=threads))
            arrays = [*comp.slice_bases, comp.col_basis, comp.weights, comp.cores,
                      factors.H, factors.V, factors.W, *factors.Q]
            runs.append([a.tobytes() for a in arrays]
                        + [e.hex() for e in trace.objective]
                        + [dpar2.fitness(tensor, factors, threads=threads).hex()])
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestContiguousChunks:
    def test_covers_range_in_order(self):
        chunks = contiguous_chunks(10, 3)
        assert [k for c in chunks for k in c] == list(range(10))
        assert {len(c) for c in chunks} <= {3, 4}

    def test_empty_range(self):
        assert sum(contiguous_chunks(0, 4), []) == []


class TestParallelSliceMap:
    def test_zero_slices_is_noop(self):
        assert parallel_slice_map(lambda k: k, 0, threads=4) == []

    def test_matches_serial_for_any_thread_count(self):
        rng = np.random.Generator(np.random.PCG64(0))
        data = rng.standard_normal((16, 40))

        def work(k):
            return float(data[k] @ data[k])

        serial = [work(k) for k in range(16)]
        for threads in (1, 2, 8):
            got = parallel_slice_map(work, 16, threads=threads)
            assert got == serial  # bit-identical, slot-per-slice

    def test_reduction_identical_across_thread_counts(self):
        rng = np.random.Generator(np.random.PCG64(1))
        data = rng.standard_normal(33)
        totals = set()
        for threads in (1, 2, 8):
            parts = parallel_slice_map(lambda k: float(data[k]) * 1e-3, 33, threads=threads)
            totals.add(float(np.add.reduce(np.asarray(parts))))
        assert len(totals) == 1

    def test_error_carries_slice_and_aborts(self):
        def work(k):
            if k == 5:
                raise RuntimeError("boom at 5")
            return k

        with pytest.raises(RuntimeError, match="boom at 5"):
            parallel_slice_map(work, 12, threads=3)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("partition", ["contiguous", "greedy"])
    def test_lowest_of_two_failing_slices_is_raised(self, threads, partition):
        # Slice 5 is the largest, so the greedy plan visits it first, and it
        # fails at once while the slices before slice 2 take a while.
        counts = [1, 1, 1, 1, 1, 10, 1, 1]
        groups = greedy_partition(counts, threads).sets if partition == "greedy" else None

        def work(k):
            if k in (2, 5):
                raise RuntimeError(f"boom at {k}")
            time.sleep(0.01)
            return k

        with pytest.raises(RuntimeError, match="boom at 2"):
            parallel_slice_map(work, len(counts), threads=threads, groups=groups)

    @settings(max_examples=50, deadline=None)
    @given(counts=st.lists(st.integers(1, 10), min_size=1, max_size=30), data=st.data())
    def test_every_slice_runs_then_the_lowest_failure_is_raised(self, counts, data):
        bad = data.draw(st.sets(st.integers(0, len(counts) - 1), min_size=1))
        for threads in (1, 2, 3):
            for groups in (None, greedy_partition(counts, threads).sets):
                ran = []

                def work(k):
                    if k in bad:
                        raise RuntimeError(f"boom at {k}")
                    ran.append(k)

                with pytest.raises(RuntimeError, match=f"^boom at {min(bad)}$"):
                    parallel_slice_map(work, len(counts), threads=threads, groups=groups)
                assert sorted(ran) == [k for k in range(len(counts)) if k not in bad]

    def test_custom_groups(self):
        plan_sets = [[2, 0], [1]]
        got = parallel_slice_map(lambda k: k * k, 3, threads=2, groups=plan_sets)
        assert got == [0, 1, 4]


class TestMapStacks:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_results_come_back_in_stack_order(self, threads):
        # One worker per group; a single group runs inline.
        groups = {1: [[3, 1, 0, 2]], 2: [[3, 1], [0, 2]], 3: [[3, 1], [0], [2]]}[threads]
        stacks = [[1, 2, 3], [0, 4], [4], [0]]
        got = map_stacks(lambda ks: ks, stacks, groups)
        assert got == stacks

    @settings(max_examples=50, deadline=None)
    @given(counts=st.lists(st.sampled_from([3, 4, 5]), min_size=1, max_size=40),
           data=st.data())
    def test_raises_the_lowest_failing_slice(self, counts, data):
        bad = data.draw(st.sets(st.integers(0, len(counts) - 1), min_size=1))
        def fail(ks):
            named = [i for i, k in enumerate(ks) if k in bad]
            if named:
                raise NumericFailure("bad slice", slice_index=named[0])

        for threads in (1, 2, 3):
            stacks, groups = equal_height_stacks(counts, 2, threads)
            with pytest.raises(NumericFailure) as err:
                map_stacks(fail, stacks, groups)
            assert err.value.slice_index == min(bad)
            assert str(err.value) == f"bad slice (slice {min(bad)})"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_unnamed_failure_names_its_stack(self, threads):
        # The unnamed failure counts as slice 3, below the named slice 4.
        def fail(ks):
            if 3 in ks:
                raise NumericFailure("no convergence")
            if 4 in ks:
                raise NumericFailure("bad slice", slice_index=ks.index(4))

        stacks = [[0, 1], [2, 4], [3, 5]]
        groups = [[0, 1, 2]] if threads == 1 else [[0, 1], [2]]
        named = r"^no convergence in the stack of 2 slices \(lowest 3, highest 5\)$"
        with pytest.raises(NumericFailure, match=named) as err:
            map_stacks(fail, stacks, groups)
        assert err.value.slice_index is None

    def test_unnamed_failure_of_a_large_stack_stays_short(self):
        # Two stacks of 1001 and 1000 (5, 5) cores; the message names the
        # failing one by its size and its lowest and highest slice.
        def fail(ks):
            if len(ks) == 1000:
                raise NumericFailure("rotation SVD did not converge")

        stacks = [list(range(1001)), list(range(1001, 2001))]
        with pytest.raises(NumericFailure) as err:
            map_stacks(fail, stacks, [[0], [1]])
        assert str(err.value) == ("rotation SVD did not converge in the stack of 1000 slices "
                                  "(lowest 1001, highest 2000)")

    def test_unnamed_failure_of_a_stack_of_one_names_its_slice(self):
        def fail(ks):
            raise NumericFailure("no convergence")

        with pytest.raises(NumericFailure, match=r"^no convergence \(slice 4\)$") as err:
            map_stacks(fail, [[4], [5]], [[1, 0]])
        assert err.value.slice_index == 4


class TestOneRunner:
    @pytest.mark.parametrize("groups", [[[0, 1]], [[0], [1]]], ids=["one-group", "two-groups"])
    def test_lowest_slice_wins_across_error_kinds(self, groups):
        # Slice 0 fails numerically and slice 1 with an ordinary error; both
        # runners raise slice 0's error under either grouping.
        def fail(k):
            if k == 0:
                raise NumericFailure("not finite")
            raise ValueError("bad slice 1")

        with pytest.raises(NumericFailure, match=r"^not finite \(slice 0\)$"):
            map_stacks(lambda ks: fail(ks[0]), [[0], [1]], groups)
        with pytest.raises(NumericFailure, match=r"^not finite \(slice 0\)$"):
            parallel_slice_map(fail, 2, groups=groups)

    def test_each_group_but_the_first_starts_one_thread(self):
        ran = set()  # the threads that ran the pass's stacks
        slices = np.arange(6 * 2 * 2, dtype=float).reshape(6, 2, 2)
        stacks = [[0, 1], [2], [3, 4], [5]]

        def total(ks):
            ran.add(threading.get_ident())
            return slices[ks].sum(axis=(1, 2)).tolist()

        def fail(ks):
            ran.add(threading.get_ident())
            if 3 in ks:
                raise NumericFailure("bad core", slice_index=ks.index(3))
            if 5 in ks:
                raise ValueError("bad slice 5")
            return total(ks)

        outcomes = set()
        for groups, others in (([[0, 1, 2, 3]], 0), ([[0, 2], [1, 3]], 1),
                               ([[0], [1, 3], [], [2]], 2)):
            ran.clear()
            got = map_stacks(total, stacks, groups)
            assert threading.get_ident() in ran and len(ran) - 1 == others
            ran.clear()
            with pytest.raises(NumericFailure) as err:
                map_stacks(fail, stacks, groups)
            assert threading.get_ident() in ran and len(ran) - 1 == others
            outcomes.add((repr(got), str(err.value), err.value.slice_index))
        assert outcomes == {(repr([[6.0, 22.0], [38.0], [54.0, 70.0], [86.0]]),
                             "bad core (slice 3)", 3)}

    @pytest.mark.parametrize("groups", [[[1, 2], [0]], [[0], [1, 2]]],
                             ids=["calling-thread", "worker-thread"])
    def test_interrupt_is_raised_after_every_worker_is_joined(self, groups):
        # Slice 1 is interrupted, which ends its worker before slice 2; the
        # slow slice 0 finishes first, and its lower error does not win.
        ran = []

        def work(k):
            if k == 1:
                raise KeyboardInterrupt
            time.sleep(0.2)
            ran.append(k)
            raise ValueError(f"bad slice {k}")

        with pytest.raises(KeyboardInterrupt):
            parallel_slice_map(work, 3, groups=groups)
        assert ran == [0]


class TestWorkerRule:
    # A pass over K slices runs on min(threads, K) threads: its first
    # worker is the calling thread, and no worker plans past the last slice.
    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize("name", ["fitness", "uniform-generate", "load_archive"])
    def test_pass_starts_one_thread_per_worker_but_the_first(self, tmp_path, monkeypatch,
                                                              name, threads):
        rng = np.random.Generator(np.random.PCG64(0))
        tensor = dpar2.IrregularTensor([rng.standard_normal((r, 3)) for r in (4, 2, 3, 5, 1)])
        factors = dpar2.Parafac2Factors(H=np.eye(1), V=np.ones((3, 1)), W=np.ones((5, 1)),
                                        Q=[np.ones((r, 1)) for r in tensor.row_counts])
        path = tmp_path / "t.irt"
        dpar2.save_archive(tensor, path)
        run = {
            "fitness": lambda: dpar2.fitness(tensor, factors, threads=threads),
            "uniform-generate": lambda: dpar2.generate(
                dpar2.SyntheticSpec(rows=3, cols=2, num_slices=5), threads=threads),
            "load_archive": lambda: dpar2.load_archive(path, threads=threads),
        }[name]
        ran = record_stack_threads(monkeypatch)
        run()
        assert threading.get_ident() in ran and len(ran) - 1 == min(threads, 5) - 1


def record_stack_threads(monkeypatch):
    """Make every pass record the threads that run its stacks, in the set
    returned; ``map_stacks`` is replaced where the passes look it up."""
    ran = set()
    real = map_stacks

    def spy(fn, stacks, groups):
        def recorded(ks):
            ran.add(threading.get_ident())
            return fn(ks)

        return real(recorded, stacks, groups)

    for module in (dpar2.baseline, dpar2.scheduler, dpar2.tensor):
        monkeypatch.setattr(module, "map_stacks", spy)
    return ran


def finish_in_time(call, timeout=60.0):
    """``call()`` on a thread of its own, which must end within ``timeout``
    seconds; its result, or its error raised here."""
    out = []

    def target():
        try:
            out.append((True, call()))
        except BaseException as exc:  # noqa: BLE001 - raised below
            out.append((False, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the pass did not finish"
    ok, value = out[0]
    if not ok:
        raise value
    return value


class TestWorkerPool:
    # Workers outlive their passes: a pass hands each group but the first
    # to an idle worker, and starts a thread only when none is idle.
    def test_next_pass_reuses_the_idle_workers(self):
        ran = []

        def record(ks):
            ran.append((ks[0], threading.get_ident()))

        groups = [[0], [1], [2]]
        idents = []
        for _ in range(3):
            ran.clear()
            map_stacks(record, [[0], [1], [2]], groups)
            idents.append({ident for k, ident in ran if k > 0})
        assert len(idents[0]) == 2 and threading.get_ident() not in idents[0]
        assert idents[1] == idents[0] and idents[2] == idents[0]

    @pytest.mark.parametrize("groups", [[[0, 1]], [[0], [1]]], ids=["calling-thread", "worker"])
    def test_finished_pass_leaves_no_reference(self, groups):
        class Payload:
            pass

        captured, slices = Payload(), np.zeros((2, 3))
        alive = [weakref.ref(captured), weakref.ref(slices)]

        def fn(ks):
            result = Payload()
            result.owner = captured
            result.data = slices[ks[0]].sum()
            alive.append(weakref.ref(result))
            return result

        got = map_stacks(fn, [[0], [1]], groups)
        assert [r.owner for r in got] == [captured, captured]
        del fn, captured, slices, got
        gc.collect()
        assert len(alive) == 4 and [ref() for ref in alive] == [None] * 4

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_with_no_workers(self):
        # The parent's idle worker does not exist in the child: a child
        # that handed it a group would wait forever.
        slices = np.arange(4.0).reshape(4, 1, 1)

        def total(ks):
            return float(slices[ks].sum())

        stacks, groups = [[0, 1], [2, 3]], [[0], [1]]
        assert map_stacks(total, stacks, groups) == [1.0, 5.0]
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = map_stacks(total, stacks, groups) == [1.0, 5.0]
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if ended[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's pass did not finish")
        assert os.waitstatus_to_exitcode(ended[1]) == 0

    def test_pass_inside_a_group_waits_on_no_busy_worker(self):
        # Both outer groups run an inner pass of two groups, and all four
        # inner groups must run at once to pass the barrier.
        barrier = threading.Barrier(4, timeout=30)

        def inner(ks):
            barrier.wait()
            return ks[0]

        def outer(ks):
            return [ks[0], map_stacks(inner, [[0], [1]], [[0], [1]])]

        got = finish_in_time(lambda: map_stacks(outer, [[0], [1]], [[0], [1]]))
        assert got == [[0, [0, 1]], [1, [0, 1]]]

    def test_two_passes_at_once_wait_on_no_busy_worker(self):
        # Two user threads each run a pass of three groups; all six groups
        # must run at once to pass the barrier.
        barrier = threading.Barrier(6, timeout=30)

        def work(ks):
            barrier.wait()
            return float(slices[ks].sum())

        slices = np.arange(3.0).reshape(3, 1, 1)

        def two_passes():
            got = []
            passes = [threading.Thread(target=lambda: got.append(
                map_stacks(work, [[0], [1], [2]], [[0], [1], [2]]))) for _ in range(2)]
            for p in passes:
                p.start()
            for p in passes:
                p.join()
            return got

        assert finish_in_time(two_passes) == [[0.0, 1.0, 2.0]] * 2

    def test_concurrent_passes_under_fast_switching(self):
        # More workers than cores and a short switch interval: every stack's
        # result lands in its own slot, and the idle stack grows by no more
        # than the workers busy at once (4 passes of 3 groups, 2 each).
        before = len(dpar2.scheduler._idle)
        slices = np.arange(12.0).reshape(12, 1, 1)
        stacks = [[k] for k in range(12)]
        groups = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
        wrong = []

        def many():
            for _ in range(100):
                got = map_stacks(lambda ks: float(slices[ks].sum()) * 2, stacks, groups)
                if got != [2.0 * k for k in range(12)]:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            users = [threading.Thread(target=many, daemon=True) for _ in range(4)]
            for user in users:
                user.start()
            for user in users:
                user.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(user.is_alive() for user in users) and wrong == []
        assert len(dpar2.scheduler._idle) <= max(before, 8)


class TestResolveThreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("DPAR2_THREADS", "6")
        assert resolve_threads(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("DPAR2_THREADS", "6")
        assert resolve_threads(None) == 6

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("DPAR2_THREADS", raising=False)
        assert resolve_threads(None) >= 1

    def test_default_is_the_cpus_this_process_may_run_on(self, monkeypatch):
        # Under a one-CPU affinity mask the default was the machine's CPU count.
        monkeypatch.delenv("DPAR2_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_threads(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity masks
        assert resolve_threads(None) == 64

    @pytest.mark.parametrize("threads", [1, 3, np.int64(2), np.uint8(1)])
    def test_accepts_python_and_numpy_integers(self, threads):
        got = resolve_threads(threads)
        assert got == threads and type(got) is int

    @pytest.mark.parametrize("threads", [1.5, 2.0, True, False, "2", np.float64(2.0)])
    def test_rejects_a_count_that_is_not_an_integer(self, threads):
        # Truncating 1.5 to 1 would quietly run one worker.
        with pytest.raises(ValueError, match="threads must be an integer"):
            resolve_threads(threads)
        with pytest.raises(ValueError, match="threads must be an integer"):
            dpar2.fit_dpar2(dpar2.IrregularTensor([np.eye(3)]), 1,
                            dpar2.SolverOptions(threads=threads))

    def test_rejects_nonpositive(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_threads(0)
        for env in ("0", "abc", "1.5"):
            monkeypatch.setenv("DPAR2_THREADS", env)
            with pytest.raises(ValueError, match=f"DPAR2_THREADS .*{env!r}"):
                resolve_threads(None)


# Child script: replace the OpenBLAS library lookup, then import the package,
# pin and fit.  Prints the BLAS thread count, read through the real library,
# before and after.
NO_PIN_CHILD = """
import _ctypes, ctypes, glob, sys
import numpy as np
real = glob.glob(sys.argv[2])
getter = getattr(ctypes.CDLL(real[0]), "scipy_openblas_get_num_threads64_", None) if real else None
count = getter if getter else (lambda: "absent")
before = count()
found = {"none": [], "no_symbol": [_ctypes.__file__],
         "missing": ["/nonexistent/libopenblas.so"]}[sys.argv[1]]
glob.glob = lambda *args, **kwargs: list(found)
import dpar2
from dpar2.tensor import SyntheticSpec, generate
assert dpar2.scheduler.pin_blas_threads() is False
tensor = generate(SyntheticSpec(rows=12, cols=8, num_slices=4, mode="planted_parafac2",
                                true_rank=2, seed=1))
factors, _ = dpar2.fit_dpar2(tensor, 2, dpar2.SolverOptions(max_iters=5, threads=2))
assert all(np.isfinite(q).all() for q in factors.Q)
print(before, count())
"""


class TestBlasPin:
    def blas_threads(self):
        getter = openblas_function("scipy_openblas_get_num_threads64_")
        if getter is None:
            pytest.skip("numpy's OpenBLAS exposes no scipy_openblas_get_num_threads64_")
        getter.restype = ctypes.c_int
        return getter()

    def test_import_pins_blas_to_one_thread(self):
        self.blas_threads()  # skips when the symbol is absent
        out = run_python(["-c", "import ctypes, dpar2; "
                          "g = dpar2.scheduler.openblas_function("
                          "'scipy_openblas_get_num_threads64_'); "
                          "g.restype = ctypes.c_int; print(g())"], blas_threads=2)
        assert out.strip() == "1"
        assert self.blas_threads() == 1

    @pytest.mark.parametrize("lookup", ["none", "no_symbol", "missing"])
    def test_pin_is_a_no_op_without_library_or_symbol(self, lookup):
        pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                               "numpy.libs", "*openblas*")
        before, after = run_python(["-c", NO_PIN_CHILD, lookup, pattern],
                                   blas_threads=2).split()
        assert after == before  # nothing was pinned

    def test_output_bytes_independent_of_blas_threads(self, tmp_path):
        # Large enough that OpenBLAS splits some products across threads
        # when it is allowed more than one.
        archive = tmp_path / "blas.irt"
        assert cli.main(["generate", "--I", "400", "--J", "200", "--K", "12",
                         "--mode", "planted", "--rank", "10", "--noise", "0.2",
                         "--seed", "5", "--out", str(archive)]) == 0
        dirs = []
        for blas in (1, 2):
            for threads in (1, 2):
                outdir = tmp_path / f"b{blas}t{threads}"
                run_python(["-m", "dpar2.cli", "decompose", str(archive), "--rank", "10",
                            "--tol", "0", "--max-iters", "10", "--threads", str(threads),
                            "--out-factors", str(outdir)], blas_threads=blas)
                dirs.append(outdir)
        names = sorted(p.name for p in dirs[0].iterdir() if p.name != "manifest.json")
        assert names
        for d in dirs[1:]:
            for name in names:
                assert (d / name).read_bytes() == (dirs[0] / name).read_bytes(), (d.name, name)
