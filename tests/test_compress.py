"""Two-stage compression: accuracy, size accounting, determinism."""
import importlib
from dataclasses import replace

import numpy as np
import pytest

from dpar2 import baseline, scheduler
from dpar2.baseline import fit_baseline, procrustes_svd
from dpar2.compress import compress, reconstruct_slice
from dpar2.errors import IndexOutOfRangeError, NumericFailure, RankTooLargeError
from dpar2.factors import SolverOptions
from dpar2.linalg import RsvdParams, derived_seed, randomized_svd
from dpar2.scheduler import PartitionPlan, greedy_partition
from dpar2.tensor import (
    MODE_PLANTED,
    IrregularTensor,
    SyntheticSpec,
    generate,
    load_archive,
    save_archive,
)


def planted(seed=0, rows=24, cols=12, k=6, rank=3, noise=0.0):
    return generate(SyntheticSpec(rows=rows, cols=cols, num_slices=k,
                                  mode=MODE_PLANTED, true_rank=rank,
                                  noise_level=noise, seed=seed))


def total_residual(tensor, comp):
    num = sum(np.linalg.norm(tensor.slices[k] - reconstruct_slice(comp, k)) ** 2
              for k in range(tensor.num_slices))
    den = tensor.total_sq_norm()
    return np.sqrt(num / den)


class TestAccuracy:
    def test_rank_one_single_slice_exact(self):
        rng = np.random.Generator(np.random.PCG64(1))
        u = rng.standard_normal(9)
        v = rng.standard_normal(6)
        x = 3.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        t = IrregularTensor([x])
        comp = compress(t, 1, threads=1)
        assert np.linalg.norm(reconstruct_slice(comp, 0) - x) <= 1e-8

    def test_exact_rank_tensor_is_lossless(self):
        t = planted(seed=3, rank=3)
        comp = compress(t, 3, threads=1)
        assert total_residual(t, comp) <= 1e-6

    def test_zero_slice_reconstructs_small(self):
        t = IrregularTensor([np.zeros((5, 4)), np.eye(4)])
        comp = compress(t, 2, threads=1)
        assert np.linalg.norm(reconstruct_slice(comp, 0)) <= 1e-10

    def test_stage2_near_optimal(self):
        # the concatenated sketch stays within 1.5x of the best rank-R error
        # for the actual stage-2 input, rebuilt here with the same seeds
        t = planted(seed=4, rank=4, noise=0.3)
        rank = 2
        comp = compress(t, rank, threads=1)
        stage1 = [
            randomized_svd(t.slices[k], RsvdParams(rank=rank, seed=derived_seed(0, k)))
            for k in range(t.num_slices)
        ]
        merged = np.concatenate([trip.V * trip.S for trip in stage1], axis=1)
        exact = np.linalg.svd(merged, compute_uv=False)
        best = np.sqrt(float((exact[rank:] ** 2).sum()))
        got = np.linalg.norm(merged - merged_from(comp))
        assert got <= max(1.5 * best, 1e-12)

    def test_orthonormal_pieces(self):
        t = planted(seed=5, rank=3, noise=0.2)
        comp = compress(t, 3, threads=1)
        for a in comp.slice_bases:
            assert np.linalg.norm(a.T @ a - np.eye(3)) <= 1e-10
        assert np.linalg.norm(comp.col_basis.T @ comp.col_basis - np.eye(3)) <= 1e-10
        assert np.linalg.norm(comp.cores.T @ comp.cores - np.eye(3)) <= 1e-10
        assert (comp.weights >= 0).all()
        assert (np.diff(comp.weights) <= 1e-12).all()


def merged_from(comp):
    """Rebuild the stage-2 input's sketch D E F^T for comparison."""
    return (comp.col_basis * comp.weights) @ comp.cores.T


class TestSizeAccounting:
    def test_float_count_formula(self):
        t = planted(seed=6, rows=30, cols=14, k=5, rank=4)
        comp = compress(t, 2, threads=1)
        rows = sum(t.row_counts)
        want = rows * 2 + 5 * 2 * 2 + 14 * 2 + 2
        assert comp.float_count() == want

    def test_compression_beats_raw_when_cols_dominate(self):
        t = generate(SyntheticSpec(rows=50, cols=200, num_slices=8, seed=7))
        comp = compress(t, 5, threads=1)
        raw = sum(x.size for x in t.slices)
        assert raw / comp.float_count() > 10.0


class TestDeterminism:
    def test_plan_and_threads_do_not_change_bits(self, monkeypatch):
        t = planted(seed=8, rows=20, cols=10, k=7, rank=3, noise=0.1)
        ref = compress(t, 3, threads=1)
        variants = [compress(t, 3, threads=n) for n in (2, 4, 7)]
        # The plan follows from the thread count; a shuffled one (stacks
        # dealt in reverse over three sets) must not change the bits either.
        def shuffled(rows, workers):
            order = list(range(len(rows)))[::-1]
            return PartitionPlan(sets=[order[i::3] for i in range(3)])

        monkeypatch.setattr(scheduler, "greedy_partition", shuffled)
        variants.append(compress(t, 3, threads=2))
        for other in variants:
            assert other.col_basis.tobytes() == ref.col_basis.tobytes()
            assert other.weights.tobytes() == ref.weights.tobytes()
            assert other.cores.tobytes() == ref.cores.tobytes()
            for a, b in zip(other.slice_bases, ref.slice_bases):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("plan_workers", [None, 4])
    def test_stacks_match_per_slice_sketches(self, threads, plan_workers, monkeypatch):
        # Repeated and mixed row counts; at 4000 columns the 30-row slices
        # split into several stacks and the 70-row slice alone exceeds a
        # stack's size.  With plan_workers set, the stacks are split over
        # that many sets whatever the thread count.
        rows = [30, 7, 70, 30, 30, 12, 7, 30]
        rng = np.random.Generator(np.random.PCG64(15))
        t = IrregularTensor([rng.standard_normal((r, 4000)) for r in rows])
        if plan_workers is not None:
            monkeypatch.setattr(scheduler, "greedy_partition",
                                lambda counts, n: greedy_partition(counts, plan_workers))
        comp = compress(t, 3, rsvd=RsvdParams(rank=3, seed=21), threads=threads)

        stage1 = [randomized_svd(x, RsvdParams(rank=3, seed=derived_seed(21, k)))
                  for k, x in enumerate(t.slices)]
        merged = np.concatenate([trip.V * trip.S for trip in stage1], axis=1)
        shared = randomized_svd(merged, RsvdParams(rank=3, seed=derived_seed(21, len(rows))))
        for got, trip in zip(comp.slice_bases, stage1):
            assert got.tobytes() == trip.U.tobytes()
        assert comp.col_basis.tobytes() == shared.U.tobytes()
        assert comp.weights.tobytes() == shared.S.tobytes()
        assert comp.cores.tobytes() == shared.V.tobytes()

    def test_mixed_tall_slices_match_per_slice_sketches(self):
        # Three heights, stacks of two 500-row slices: every thread count
        # gives each slice its own sketch's bits.
        rows = [500, 400, 500, 170, 500, 400, 500]
        rng = np.random.Generator(np.random.PCG64(22))
        t = IrregularTensor([rng.standard_normal((r, 200)) for r in rows])
        params = RsvdParams(rank=4, seed=23)
        runs = [compress(t, 4, rsvd=params, threads=n) for n in (1, 2, 3)]
        for k, x in enumerate(t.slices):
            alone = randomized_svd(x, replace(params, seed=derived_seed(23, k)))
            for comp in runs:
                assert comp.slice_bases[k].tobytes() == alone.U.tobytes()
        for comp in runs[1:]:
            assert comp.col_basis.tobytes() == runs[0].col_basis.tobytes()
            assert comp.weights.tobytes() == runs[0].weights.tobytes()
            assert comp.cores.tobytes() == runs[0].cores.tobytes()

    def test_seed_changes_bits(self):
        t = planted(seed=9, noise=0.2)
        a = compress(t, 2, rsvd=RsvdParams(rank=2, seed=0), threads=1)
        b = compress(t, 2, rsvd=RsvdParams(rank=2, seed=1), threads=1)
        assert a.col_basis.tobytes() != b.col_basis.tobytes()


class TestErrorsAndEdges:
    def test_rank_exceeding_slice_names_offender(self):
        t = IrregularTensor([np.ones((6, 5)), np.ones((2, 5)), np.ones((6, 5))])
        with pytest.raises(RankTooLargeError, match="slice 1"):
            compress(t, 3, threads=1)

    def test_rank_zero(self):
        t = IrregularTensor([np.ones((8, 3))])
        with pytest.raises(RankTooLargeError, match="rank must be >= 1, got 0"):
            compress(t, 0, threads=1)

    def test_rank_above_cols(self):
        t = IrregularTensor([np.ones((8, 3))])
        with pytest.raises(RankTooLargeError):
            compress(t, 4, threads=1)

    def test_reconstruct_bad_index(self):
        t = planted(seed=10)
        comp = compress(t, 2, threads=1)
        with pytest.raises(IndexError):
            reconstruct_slice(comp, 99)

    @pytest.mark.parametrize("k, error", [
        (7, IndexOutOfRangeError), (-1, IndexOutOfRangeError), (True, ValueError), (1.0, ValueError),
    ])
    def test_core_block_checks_its_index(self, k, error):
        # core_block(7) and core_block(-1) returned an empty (0, R) block,
        # reconstruct_slice(comp, True) returned slice 1, and 1.0 failed with
        # a TypeError from slicing.
        comp = compress(planted(seed=10, k=3), 2, threads=1)
        with pytest.raises(error):
            comp.core_block(k)
        with pytest.raises(error):
            reconstruct_slice(comp, k)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_slice_is_a_numeric_failure_naming_it(self):
        # Finite input, but squaring 1e200 in the power step overflows.
        t = planted(seed=14)
        huge = IrregularTensor([x * 1e200 if k == 2 else x for k, x in enumerate(t.slices)])
        with pytest.raises(NumericFailure, match="slice 2") as err:
            compress(huge, 2, threads=1)
        assert err.value.slice_index == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflow_inside_a_stack_names_the_slice(self, threads):
        # Five equal-height slices: one stack at threads=1, stacks [0, 2, 4]
        # and [1, 3] at threads=2; slice 2 is in the middle of either.
        rng = np.random.Generator(np.random.PCG64(16))
        slices = [rng.standard_normal((10, 6)) for _ in range(5)]
        slices[2] = slices[2] * 1e200
        with pytest.raises(NumericFailure, match="slice 2") as err:
            compress(IrregularTensor(slices), 2, threads=threads)
        assert err.value.slice_index == 2

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_overflow_in_two_stacks_names_the_lowest_slice(self, threads):
        # Rows 9, 6, 9, 6, 6, 9: at threads 1 and 2 slice 5 sits in a stack
        # that comes before slice 3's ([0, 2, 5] before [1, 3, 4], and [0, 5]
        # first), so naming the first failing stack named slice 5.
        rng = np.random.Generator(np.random.PCG64(17))
        slices = [rng.standard_normal((rows, 5)) for rows in (9, 6, 9, 6, 6, 9)]
        slices[3], slices[5] = slices[3] * 1e200, slices[5] * 1e200
        with pytest.raises(NumericFailure, match=r"\(slice 3\)") as err:
            compress(IrregularTensor(slices), 2, threads=threads)
        assert err.value.slice_index == 3

    def test_failed_factorization_names_the_stack(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        t = IrregularTensor([np.eye(6)[:, :4] + k for k in range(3)])
        stack = r"^sketch factorization failed in the stack of 3 slices \(lowest 0, highest 2\)$"
        with pytest.raises(NumericFailure, match=stack):
            compress(t, 2, threads=1)

    def test_core_block_layout(self):
        t = planted(seed=11, k=4, rank=3)
        comp = compress(t, 3, threads=1)
        stack = comp.core_stack()
        for k in range(4):
            assert np.shares_memory(comp.core_block(k), comp.cores)
            assert np.allclose(stack[k], comp.core_block(k))


def stack_sources(tmp_path, source):
    """A tensor of several stacks made by ``source``, one of every builder."""
    if source == "uniform":
        return generate(SyntheticSpec(rows=6, cols=5, num_slices=7, seed=3), threads=2)
    if source == "planted":
        return generate(SyntheticSpec(rows=12, cols=5, num_slices=9, mode=MODE_PLANTED,
                                      true_rank=2, noise_level=0.1, seed=3))
    rng = np.random.Generator(np.random.PCG64(40))
    made = IrregularTensor([rng.standard_normal((r, 5)) for r in (9, 6, 9, 6, 6, 9, 12)])
    if source == "constructor":
        return made
    save_archive(made, tmp_path / "t.irt")
    return load_archive(tmp_path / "t.irt", threads=2)


class TestStacksAreViews:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("source", ["constructor", "load_archive", "uniform", "planted"])
    def test_kernels_get_views_of_the_tensor(self, tmp_path, monkeypatch, source, threads):
        # Every stack handed to the stage-1 sketch and to ALS's Procrustes
        # kernel is the tensor's own memory, with the bytes of np.stack.
        t = stack_sources(tmp_path, source)
        handed = []

        def spy(real):
            def record(x, *args, **kwargs):
                handed.append(x)
                return real(x, *args, **kwargs)
            return record

        # dpar2.compress is the function, so the module is looked up by name.
        monkeypatch.setattr(importlib.import_module("dpar2.compress"), "randomized_svd",
                            spy(randomized_svd))
        monkeypatch.setattr(baseline, "procrustes_svd", spy(procrustes_svd))
        compress(t, 2, threads=threads)
        fit_baseline(t, 2, SolverOptions(max_iters=2, tol=0.0, threads=threads))
        stacks = [x for x in handed if x.ndim == 3]
        assert len(handed) - len(stacks) == 1  # stage 2's J x KR matrix
        covered = []
        for x in stacks:
            ks = [k for k, s in enumerate(t.slices) if np.shares_memory(x, s)]
            assert ks and x.tobytes() == np.stack([t.slices[k] for k in ks]).tobytes()
            covered += ks
        assert sorted(covered) == sorted(list(range(t.num_slices)) * 3)  # 1 sketch, 2 ALS passes
