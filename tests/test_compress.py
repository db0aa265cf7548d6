"""Two-stage compression: accuracy, size accounting, determinism, persistence."""
import numpy as np
import pytest

from dpar2.compress import (
    CompressedTensor,
    compress,
    load_compressed,
    reconstruct_slice,
    save_compressed,
)
from dpar2.errors import ArchiveFormatError, NumericFailure, RankTooLargeError
from dpar2.linalg import RsvdParams
from dpar2.scheduler import greedy_partition
from dpar2.tensor import MODE_PLANTED, IrregularTensor, SyntheticSpec, generate


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
        from dpar2.linalg import derived_seed, randomized_svd

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
    def test_plan_and_threads_do_not_change_bits(self):
        t = planted(seed=8, rows=20, cols=10, k=7, rank=3, noise=0.1)
        ref = compress(t, 3, threads=1)
        shuffled_plan = greedy_partition(t.row_counts, 3)
        variants = [
            compress(t, 3, threads=4),
            compress(t, 3, plan=shuffled_plan, threads=2),
            compress(t, 3, plan=greedy_partition(t.row_counts, 7), threads=7),
        ]
        for other in variants:
            assert other.col_basis.tobytes() == ref.col_basis.tobytes()
            assert other.weights.tobytes() == ref.weights.tobytes()
            assert other.cores.tobytes() == ref.cores.tobytes()
            for a, b in zip(other.slice_bases, ref.slice_bases):
                assert a.tobytes() == b.tobytes()

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

    def test_rank_above_cols(self):
        t = IrregularTensor([np.ones((8, 3))])
        with pytest.raises(RankTooLargeError):
            compress(t, 4, threads=1)

    def test_reconstruct_bad_index(self):
        t = planted(seed=10)
        comp = compress(t, 2, threads=1)
        with pytest.raises(IndexError):
            reconstruct_slice(comp, 99)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_slice_is_a_numeric_failure_naming_it(self):
        # Finite input, but squaring 1e150 in the power iteration overflows.
        t = planted(seed=14)
        huge = IrregularTensor([x * 1e150 if k == 2 else x for k, x in enumerate(t.slices)])
        with pytest.raises(NumericFailure, match="slice 2") as err:
            compress(huge, 2, threads=1)
        assert err.value.slice_index == 2

    def test_core_block_layout(self):
        t = planted(seed=11, k=4, rank=3)
        comp = compress(t, 3, threads=1)
        stack = comp.core_stack()
        for k in range(4):
            assert np.shares_memory(comp.core_block(k), comp.cores)
            assert np.allclose(stack[k], comp.core_block(k))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        t = planted(seed=12, noise=0.05)
        comp = compress(t, 3, threads=1)
        path = tmp_path / "c.irc"
        save_compressed(comp, path)
        back = load_compressed(path)
        assert back.rank == comp.rank
        assert back.col_basis.tobytes() == comp.col_basis.tobytes()
        assert back.weights.tobytes() == comp.weights.tobytes()
        assert back.cores.tobytes() == comp.cores.tobytes()
        for a, b in zip(back.slice_bases, comp.slice_bases):
            assert a.tobytes() == b.tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.irc"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ArchiveFormatError):
            load_compressed(p)

    def test_truncated(self, tmp_path):
        t = planted(seed=13)
        comp = compress(t, 2, threads=1)
        p = tmp_path / "c.irc"
        save_compressed(comp, p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(ArchiveFormatError):
            load_compressed(p)
