"""Tensor container, synthetic generators, and archive round-trips."""
import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar2
from dpar2.baseline import residual_terms
from dpar2.errors import ArchiveFormatError, NonFiniteInputError, ShapeMismatchError
from dpar2.factors import sha256_file
from dpar2.scheduler import greedy_partition
from dpar2.tensor import (
    MODE_PLANTED,
    MODE_UNIFORM,
    IrregularTensor,
    SyntheticSpec,
    generate,
    load_archive,
    load_csv_dir,
    save_archive,
)


def small_tensor(seed=0, counts=(3, 5, 2), cols=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    return IrregularTensor([rng.standard_normal((c, cols)) for c in counts])


class TestContainer:
    def test_properties(self):
        t = small_tensor()
        assert t.num_slices == 3
        assert t.num_cols == 4
        assert t.row_counts == [3, 5, 2]

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(ShapeMismatchError, match="slice 1"):
            IrregularTensor([np.ones((2, 3)), np.ones((2, 4))])

    def test_empty_and_non_2d_rejected(self):
        with pytest.raises(ShapeMismatchError):
            IrregularTensor([])
        with pytest.raises(ShapeMismatchError):
            IrregularTensor([np.ones(3)])
        with pytest.raises(ShapeMismatchError):
            IrregularTensor([np.ones((0, 3))])

    def test_non_finite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteInputError):
            IrregularTensor([bad])

    def test_slices_are_read_only(self):
        t = small_tensor()
        with pytest.raises(ValueError):
            t.slices[0][0, 0] = 1.0


class TestArchive:
    def test_minimal_round_trip(self, tmp_path):
        t = IrregularTensor([np.array([[7.0]])])
        path = tmp_path / "one.irt"
        save_archive(t, path)
        back = load_archive(path)
        assert back.num_slices == 1
        assert back.slices[0].tobytes() == t.slices[0].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_bit_exact(self, tmp_path_factory, data):
        k = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(1, 6))
        counts = data.draw(st.lists(st.integers(1, 7), min_size=k, max_size=k))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.Generator(np.random.PCG64(seed))
        t = IrregularTensor([rng.standard_normal((c, cols)) for c in counts])
        path = tmp_path_factory.mktemp("rt") / "t.irt"
        save_archive(t, path)
        back = load_archive(path)
        assert back.row_counts == t.row_counts
        for a, b in zip(back.slices, t.slices):
            assert a.tobytes() == b.tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.irt"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ArchiveFormatError, match="magic"):
            load_archive(p)

    def test_truncated_payload(self, tmp_path):
        t = small_tensor()
        p = tmp_path / "t.irt"
        save_archive(t, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-9])
        with pytest.raises(ArchiveFormatError, match="truncated"):
            load_archive(p)

    def test_trailing_garbage(self, tmp_path):
        t = small_tensor()
        p = tmp_path / "t.irt"
        save_archive(t, p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(ArchiveFormatError, match="trailing"):
            load_archive(p)

    def test_non_finite_payload(self, tmp_path):
        t = small_tensor()
        p = tmp_path / "t.irt"
        save_archive(t, p)
        blob = bytearray(p.read_bytes())
        blob[12 + 4 : 12 + 12] = np.array([np.nan]).tobytes()
        p.write_bytes(bytes(blob))
        with pytest.raises(ArchiveFormatError):
            load_archive(p)


class TestCsvDir:
    def test_loads_sorted_slices(self, tmp_path):
        np.savetxt(tmp_path / "slice_0001.csv", np.full((2, 3), 2.0), delimiter=",")
        np.savetxt(tmp_path / "slice_0000.csv", np.full((4, 3), 1.0), delimiter=",")
        t = load_csv_dir(tmp_path)
        assert t.row_counts == [4, 2]
        assert np.allclose(t.slices[0], 1.0)

    def test_single_row_file(self, tmp_path):
        np.savetxt(tmp_path / "slice_0000.csv", np.array([[1.0, 2.0]]), delimiter=",")
        t = load_csv_dir(tmp_path)
        assert t.slices[0].shape == (1, 2)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ArchiveFormatError, match="no slice"):
            load_csv_dir(tmp_path)


class TestGenerate:
    def test_uniform_shapes_and_range(self):
        t = generate(SyntheticSpec(rows=6, cols=5, num_slices=4, seed=1))
        assert t.row_counts == [6, 6, 6, 6]
        assert all((x >= 0).all() and (x < 1).all() for x in t.slices)

    def test_deterministic(self):
        spec = SyntheticSpec(rows=8, cols=6, num_slices=3, mode=MODE_PLANTED,
                             true_rank=2, noise_level=0.1, seed=9)
        a = generate(spec)
        b = generate(spec)
        for x, y in zip(a.slices, b.slices):
            assert x.tobytes() == y.tobytes()

    def test_planted_row_counts_in_half_range(self):
        spec = SyntheticSpec(rows=40, cols=10, num_slices=30, mode=MODE_PLANTED,
                             true_rank=3, seed=4)
        t = generate(spec)
        assert all(20 <= c <= 40 for c in t.row_counts)
        assert len(set(t.row_counts)) > 1  # irregular with overwhelming probability

    def test_planted_noise_scale_is_relative(self):
        clean = generate(SyntheticSpec(rows=30, cols=12, num_slices=5, mode=MODE_PLANTED,
                                       true_rank=3, noise_level=0.0, seed=5))
        noisy = generate(SyntheticSpec(rows=30, cols=12, num_slices=5, mode=MODE_PLANTED,
                                       true_rank=3, noise_level=0.2, seed=5))
        for x, y in zip(clean.slices, noisy.slices):
            ratio = np.linalg.norm(y - x) / np.linalg.norm(x)
            assert abs(ratio - 0.2) <= 1e-12

    def test_planted_exact_rank(self):
        t = generate(SyntheticSpec(rows=20, cols=10, num_slices=4, mode=MODE_PLANTED,
                                   true_rank=3, seed=6))
        for x in t.slices:
            s = np.linalg.svd(x, compute_uv=False)
            assert s[3] <= 1e-10 * s[0]

    def test_planted_recoverable_by_baseline(self):
        spec = SyntheticSpec(rows=30, cols=15, num_slices=8, mode=MODE_PLANTED,
                             true_rank=3, seed=7)
        t = generate(spec)
        factors, _ = dpar2.fit_baseline(t, 3, dpar2.SolverOptions(max_iters=32, tol=0.0))
        assert dpar2.fitness(t, factors) >= 0.999

    def test_rank_too_large_rejected(self):
        with pytest.raises(dpar2.errors.RankTooLargeError):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, mode=MODE_PLANTED,
                                   true_rank=5))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, mode="banana"))

    @pytest.mark.parametrize("mode", [MODE_UNIFORM, MODE_PLANTED])
    def test_bad_thread_count_rejected(self, mode):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, mode=mode), threads=0)


UNIFORM_SPEC = SyntheticSpec(rows=13, cols=7, num_slices=6, seed=21)
PLANTED_SPEC = SyntheticSpec(rows=14, cols=8, num_slices=5, mode=MODE_PLANTED, true_rank=2,
                             noise_level=0.1, seed=21)
# sha256 of save_archive(generate(spec)), recorded when every slice was
# drawn serially from one stream.
PINNED_DIGESTS = {
    MODE_UNIFORM: "dc115a44ed63198affcb464a122ac6578b08a1f24c04cbc7ca01d1503f14d30b",
    MODE_PLANTED: "c992a200a46acda35c753357f326233837eac5ffb71339345b1696437a9b4596",
}


class TestGenerationAcrossThreads:
    @pytest.mark.parametrize("threads", [1, 2, 9])
    @pytest.mark.parametrize("spec", [UNIFORM_SPEC, PLANTED_SPEC], ids=["uniform", "planted"])
    def test_archive_matches_the_serial_stream(self, tmp_path, spec, threads):
        path = tmp_path / "t.irt"
        save_archive(generate(spec, threads=threads), path)
        assert sha256_file(path) == PINNED_DIGESTS[spec.mode]

    def test_uniform_bytes_and_norms_do_not_depend_on_threads(self):
        k = UNIFORM_SPEC.num_slices
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers switch often, so an overlap would show
        try:
            one, *others = [generate(UNIFORM_SPEC, threads=n) for n in (1, 2, k + 3)]
        finally:
            sys.setswitchinterval(interval)
        for t in others:
            assert [x.tobytes() for x in t.slices] == [x.tobytes() for x in one.slices]
            assert [x.hex() for x in t.sq_norms] == [x.hex() for x in one.sq_norms]
            assert not any(x.flags.writeable for x in t.slices)

    def test_uniform_builds_one_generator_per_worker(self, monkeypatch):
        made = []
        real = np.random.PCG64

        def counting(seed):
            made.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "PCG64", counting)
        generate(SyntheticSpec(rows=3, cols=2, num_slices=40, seed=5), threads=2)
        assert len(made) == 3  # the serial stream, then one per worker


def irregular_tensor(seed=0, counts=(7, 1, 12, 3, 9, 12, 2, 5), cols=6):
    rng = np.random.Generator(np.random.PCG64(seed))
    return IrregularTensor([rng.standard_normal((c, cols)) for c in counts])


def write_archive(path, cols, slices_bytes, num_slices=None):
    """An IRT1 archive from raw (row count, payload) pairs; K defaults to their number."""
    k = len(slices_bytes) if num_slices is None else num_slices
    blob = b"IRT1" + struct.pack("<II", k, cols)
    for rows, payload in slices_bytes:
        blob += struct.pack("<I", rows) + payload
    path.write_bytes(blob)
    return path


class TestParallelLoad:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_round_trip_bit_exact_at_any_thread_count(self, tmp_path, threads):
        t = irregular_tensor()
        path = tmp_path / "t.irt"
        save_archive(t, path)
        back = load_archive(path, threads=threads)
        assert back.row_counts == t.row_counts
        for a, b in zip(back.slices, t.slices):
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        assert [x.hex() for x in back.sq_norms] == [x.hex() for x in t.sq_norms]

    def test_plans_no_worker_past_the_last_slice(self, tmp_path, monkeypatch):
        planned = []

        def spy(row_counts, workers):
            planned.append(workers)
            return greedy_partition(row_counts, workers)

        monkeypatch.setattr(dpar2.tensor, "greedy_partition", spy)
        t = irregular_tensor(counts=(4, 2, 3))
        path = tmp_path / "t.irt"
        save_archive(t, path)
        back = load_archive(path, threads=300_000)
        assert planned == [3]
        for a, b in zip(back.slices, t.slices):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_lowest_non_finite_slice_is_named(self, tmp_path, threads):
        t = irregular_tensor()
        bad = [x.copy() for x in t.slices]
        bad[2][1, 3] = np.nan
        bad[5][0, 0] = np.inf
        path = write_archive(tmp_path / "bad.irt", 6,
                             [(x.shape[0], x.astype("<f8").tobytes()) for x in bad])
        with pytest.raises(ArchiveFormatError, match="slice 2 contains non-finite values"):
            load_archive(path, threads=threads)

    def test_truncated_inside_payload(self, tmp_path):
        payload = np.ones((4, 3)).tobytes()
        path = write_archive(tmp_path / "t.irt", 3, [(4, payload), (4, payload[:-5])])
        with pytest.raises(ArchiveFormatError, match="truncated payload in slice 1"):
            load_archive(path, threads=2)

    def test_truncated_inside_header(self, tmp_path):
        payload = np.ones((4, 3)).tobytes()
        path = write_archive(tmp_path / "t.irt", 3, [(4, payload)], num_slices=2)
        path.write_bytes(path.read_bytes() + b"\x04\x00")
        with pytest.raises(ArchiveFormatError, match="truncated at slice 1 header"):
            load_archive(path, threads=2)

    def test_oversized_claim_raises_before_allocating(self, tmp_path):
        # Slice 0 (800 kB) is whole; slice 1 claims 2^32 - 1 rows of 200
        # columns.  Nothing is allocated before the header walk finds it.
        payload = np.ones((500, 200)).tobytes()
        path = write_archive(tmp_path / "t.irt", 200,
                             [(500, payload), (2**32 - 1, b"\x00" * 1600)])
        tracemalloc.start()
        try:
            with pytest.raises(ArchiveFormatError, match="truncated payload in slice 1"):
                load_archive(path, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(payload) // 4

    def test_zero_rows(self, tmp_path):
        path = write_archive(tmp_path / "t.irt", 2,
                             [(1, np.ones((1, 2)).tobytes()), (0, b"")])
        with pytest.raises(ArchiveFormatError, match="slice 1 has zero rows"):
            load_archive(path)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_short_preadv_reads_are_resumed(self, tmp_path, monkeypatch, threads):
        t = irregular_tensor(seed=3)
        path = tmp_path / "t.irt"
        save_archive(t, path)
        real = os.preadv
        calls = []

        def short(fd, buffers, offset):
            calls.append(offset)
            return real(fd, [memoryview(buffers[0])[:7]], offset)

        monkeypatch.setattr(os, "preadv", short)
        back = load_archive(path, threads=threads)
        assert len(calls) >= sum(x.nbytes for x in t.slices) // 7
        for a, b in zip(back.slices, t.slices):
            assert a.tobytes() == b.tobytes()

    def test_file_shrinking_during_read_is_truncation(self, tmp_path, monkeypatch):
        t = irregular_tensor(seed=4)
        path = tmp_path / "t.irt"
        save_archive(t, path)
        monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: 0)
        with pytest.raises(ArchiveFormatError, match="truncated payload in slice 0"):
            load_archive(path, threads=1)


def reference_sq_norms(tensor):
    return [float(np.dot(x.ravel(), x.ravel())) for x in tensor.slices]


def kept_norm_sources(tmp_path):
    spec = SyntheticSpec(rows=30, cols=11, num_slices=9, mode=MODE_PLANTED,
                         true_rank=3, noise_level=0.1, seed=8)
    t = generate(spec)
    path = tmp_path / "t.irt"
    save_archive(t, path)
    return {"in_memory": t, "loaded": load_archive(path, threads=2),
            "generated": generate(SyntheticSpec(rows=30, cols=11, num_slices=9, seed=8),
                                  threads=2)}


class TestKeptNorms:
    @pytest.mark.parametrize("source", ["in_memory", "loaded", "generated"])
    def test_norms_and_total_match_recomputation_bitwise(self, tmp_path, source):
        t = kept_norm_sources(tmp_path)[source]
        ref = reference_sq_norms(t)
        assert [x.hex() for x in t.sq_norms] == [x.hex() for x in ref]
        total = 0  # left-to-right Python sum, as before the norms were kept
        for x in ref:
            total += x
        assert t.total_sq_norm().hex() == float(total).hex()

    @pytest.mark.parametrize("source", ["in_memory", "loaded", "generated"])
    def test_fitness_and_als_objective_match_recomputed_norms(self, tmp_path, source):
        t = kept_norm_sources(tmp_path)[source]
        opts = dpar2.SolverOptions(max_iters=4, tol=0.0)
        factors, trace = dpar2.fit_baseline(t, 3, opts)
        # The same tensor with its norms recomputed from the slices.
        recomputed = IrregularTensor._from_checked(t.slices, reference_sq_norms(t))
        _, ref_trace = dpar2.fit_baseline(recomputed, 3, opts)
        assert [x.hex() for x in trace.objective] == [x.hex() for x in ref_trace.objective]

        x_sq = np.array(reference_sq_norms(t))
        cores = [q.T @ x for q, x in zip(factors.Q, t.slices)]
        grams = [q.T @ q for q in factors.Q]
        resid = float(np.add.reduce(
            residual_terms(x_sq, cores, grams, factors.H, factors.V, factors.W)))
        ref_fit = 1.0 - resid / float(np.add.reduce(x_sq))
        assert dpar2.fitness(t, factors, threads=2).hex() == ref_fit.hex()

    def test_overflowing_finite_slice_is_kept(self, tmp_path):
        big = np.full((3, 4), 1e200)
        t = IrregularTensor([np.ones((2, 4)), big])
        assert t.sq_norms[0] == 8.0 and t.sq_norms[1] == np.inf
        path = tmp_path / "big.irt"
        save_archive(t, path)
        back = load_archive(path, threads=2)
        assert back.slices[1].tobytes() == big.tobytes()
        assert back.sq_norms == t.sq_norms
