"""Tensor container, synthetic generators, and archive round-trips."""
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar2
from dpar2.baseline import residual_terms
from dpar2.errors import ArchiveFormatError, NonFiniteInputError, ShapeMismatchError
from dpar2.factors import sha256_file
from dpar2.scheduler import equal_height_stacks
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

    def test_complex_slice_rejected(self):
        # The float64 copy dropped the imaginary parts with only a ComplexWarning.
        with pytest.raises(ValueError, match="slice 1 is complex"):
            IrregularTensor([np.ones((2, 2)), [[1 + 2j, 3], [4, 5j]]])

    def test_slices_are_read_only(self):
        t = small_tensor()
        with pytest.raises(ValueError):
            t.slices[0][0, 0] = 1.0

    def test_every_shape_is_checked_before_any_value(self):
        bad = np.ones((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ShapeMismatchError, match="slice 1"):
            IrregularTensor([bad, np.ones((2, 4))])

    def test_input_is_copied_not_frozen(self):
        a = np.arange(6.0).reshape(3, 2)
        t = IrregularTensor([a])
        before, norms = t.slices[0].tobytes(), list(t.sq_norms)
        assert a.flags.writeable and not np.shares_memory(a, t.slices[0])
        a[...] = -1.0
        assert t.slices[0].tobytes() == before and t.sq_norms == norms == [55.0]

    def test_stack_is_one_read_only_view_of_a_layout_run(self):
        # Layout order (height, index): slices 0, 2, 3 (3 rows), then 1.
        t = small_tensor(counts=(3, 5, 3, 3))
        x = t.stack([0, 2, 3])
        assert x.shape == (3, 3, 4) and not x.flags.writeable
        assert all(np.shares_memory(x, t.slices[k]) for k in (0, 2, 3))
        assert x.tobytes() == np.stack([t.slices[k] for k in (0, 2, 3)]).tobytes()
        assert t.stack([1]).tobytes() == t.slices[1].tobytes()
        for ks in ([0, 1], [0, 3], [2, 0], [0, 2, 1]):
            with pytest.raises(ValueError, match="not one run"):
                t.stack(ks)


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

    @pytest.mark.parametrize("size", [4, 7, 11])
    def test_truncated_header(self, tmp_path, size):
        p = tmp_path / "t.irt"
        p.write_bytes((b"IRT1" + struct.pack("<II", 1, 1))[:size])
        with pytest.raises(ArchiveFormatError, match="truncated header"):
            load_archive(p)

    @pytest.mark.parametrize("k, cols", [(0, 3), (2, 0)])
    def test_invalid_dimensions(self, tmp_path, k, cols):
        p = tmp_path / "t.irt"
        p.write_bytes(b"IRT1" + struct.pack("<II", k, cols) + struct.pack("<I", 1))
        with pytest.raises(ArchiveFormatError, match=f"invalid dimensions K={k}, J={cols}"):
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


class TestOverwrite:
    @pytest.mark.parametrize("counts", [(2, 1), (3, 5, 2), (9, 8, 7, 6)],
                             ids=["smaller", "same_size", "larger"])
    def test_overwrite_equals_a_fresh_write(self, tmp_path, counts):
        new = small_tensor(seed=1, counts=counts)
        fresh = tmp_path / "fresh.irt"
        save_archive(new, fresh)
        path = tmp_path / "t.irt"
        save_archive(small_tensor(), path)
        inode = path.stat().st_ino
        save_archive(new, path)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_ino == inode
        back = load_archive(path)  # trailing bytes would raise
        assert [x.tobytes() for x in back.slices] == [x.tobytes() for x in new.slices]

    def test_interrupted_overwrite_leaves_bad_magic(self, tmp_path):
        class Unwritable:
            shape = (4, 4)

            def __array__(self, dtype=None, copy=None):
                raise OSError("device gone")

        path = tmp_path / "t.irt"
        save_archive(small_tensor(), path)
        broken = small_tensor(seed=1, counts=(6, 2, 3))
        broken.slices = [broken.slices[0], Unwritable(), broken.slices[2]]
        with pytest.raises(OSError, match="device gone"):
            save_archive(broken, path)
        blob = path.read_bytes()
        assert blob[:4] == bytes(4)
        assert blob[4:16] == struct.pack("<III", 3, 4, 6)  # the new header went in
        with pytest.raises(ArchiveFormatError, match="bad magic"):
            load_archive(path)

    def test_devnull_takes_the_plain_stream(self):
        save_archive(small_tensor(), os.devnull)

    def test_pipe_reads_the_same_bytes_as_a_file(self, tmp_path):
        t = small_tensor()
        fresh = tmp_path / "fresh.irt"
        save_archive(t, fresh)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        save_archive(t, fifo)
        reader.join(timeout=10)
        assert got == [fresh.read_bytes()]

    def test_new_file_gets_the_default_mode(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        path = tmp_path / "t.irt"
        save_archive(small_tensor(), path)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


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

    @pytest.mark.parametrize("mode", [MODE_UNIFORM, MODE_PLANTED])
    @pytest.mark.parametrize("num_slices, cols", [(0, 3), (2, 0)])
    def test_empty_shape_rejected(self, mode, num_slices, cols):
        with pytest.raises(ShapeMismatchError, match="need num_slices >= 1 and cols >= 1"):
            generate(SyntheticSpec(rows=4, cols=cols, num_slices=num_slices, mode=mode))

    def test_planted_rank_above_cols_rejected(self):
        # Rows admit rank 4, the 3 columns do not.
        with pytest.raises(dpar2.errors.RankTooLargeError, match="true_rank 4 not in"):
            generate(SyntheticSpec(rows=6, cols=3, num_slices=2, mode=MODE_PLANTED,
                                   true_rank=4))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, mode="banana"))

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_noise_level_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise_level must be finite and >= 0"):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, mode=MODE_PLANTED,
                                   noise_level=noise))

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_uniform_noise_level_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise_level must be finite and >= 0"):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, noise_level=noise))

    def test_uniform_rejects_a_nonzero_noise_level(self):
        with pytest.raises(ValueError, match="noise_level applies to planted mode only"):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, noise_level=0.1))

    @pytest.mark.parametrize("name, value", [
        ("rows", 2.5),  # became 2 rows
        ("num_slices", True),  # made one slice
        ("cols", 3.0),  # raised TypeError, as did the next two
        ("seed", 1.0),
        ("true_rank", 2.0),
        ("rows", "4"),
    ])
    def test_spec_counts_must_be_integers(self, name, value):
        fields = dict(rows=4, cols=3, num_slices=2, mode=MODE_PLANTED, true_rank=1, seed=0)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SyntheticSpec(**{**fields, name: value})

    @pytest.mark.parametrize("fields, error, message", [
        (dict(num_slices=0), ShapeMismatchError, "need num_slices >= 1 and cols >= 1"),
        (dict(mode="banana"), ValueError, "unknown mode 'banana'"),
        (dict(noise_level=-0.1), ValueError, "noise_level must be finite and >= 0"),
        (dict(noise_level=0.1), ValueError, "noise_level applies to planted mode only"),
        (dict(rows=0), ShapeMismatchError, "row counts must be positive"),
        (dict(mode=MODE_PLANTED, rows=3, true_rank=4), dpar2.errors.RankTooLargeError,
         "rows=3 too small for rank 4"),
        (dict(mode=MODE_PLANTED, true_rank=0), dpar2.errors.RankTooLargeError,
         "true_rank 0 not in"),
        (dict(mode=MODE_PLANTED, true_rank=4), dpar2.errors.RankTooLargeError,
         "true_rank 4 not in"),
    ], ids=["no-slices", "mode", "noise", "uniform-noise", "no-rows", "rows-below-rank",
            "rank-0", "rank-over-cols"])
    def test_spec_checks_its_ranges_when_made(self, fields, error, message):
        # generate checked these, so a bad spec could be made and passed on.
        with pytest.raises(error, match=message):
            SyntheticSpec(**{**dict(rows=6, cols=3, num_slices=2), **fields})

    def test_uniform_mode_ignores_true_rank(self):
        # bench passes its largest rank in uniform mode too.
        assert generate(SyntheticSpec(rows=4, cols=3, num_slices=2, true_rank=9)).num_slices == 2

    def test_spec_keeps_numpy_integers_as_python_ints(self):
        spec = SyntheticSpec(rows=np.int64(4), cols=np.int32(3), num_slices=np.uint8(2),
                             mode=MODE_PLANTED, true_rank=np.int64(2), seed=np.int64(-5))
        fields = (spec.rows, spec.cols, spec.num_slices, spec.true_rank, spec.seed)
        assert fields == (4, 3, 2, 2, -5)
        assert all(type(x) is int for x in fields)
        assert generate(spec).num_slices == 2

    @pytest.mark.parametrize("mode", [MODE_UNIFORM, MODE_PLANTED])
    def test_bad_thread_count_rejected(self, mode):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, mode=mode), threads=0)

    def test_bad_thread_count_fails_before_any_planted_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(dpar2.tensor, "_random_orthonormal", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="threads must be >= 1"):
            generate(SyntheticSpec(rows=4, cols=3, num_slices=2, mode=MODE_PLANTED), threads=0)
        assert drawn == []


UNIFORM_SPEC = SyntheticSpec(rows=13, cols=7, num_slices=6, seed=21)
PLANTED_SPEC = SyntheticSpec(rows=14, cols=8, num_slices=5, mode=MODE_PLANTED, true_rank=2,
                             noise_level=0.1, seed=21)
# sha256 of save_archive(generate(spec)), recorded when every slice was
# drawn serially from one stream.
PINNED_DIGESTS = {
    MODE_UNIFORM: "dc115a44ed63198affcb464a122ac6578b08a1f24c04cbc7ca01d1503f14d30b",
    MODE_PLANTED: "c992a200a46acda35c753357f326233837eac5ffb71339345b1696437a9b4596",
}
# Planted specs whose heights repeat (60 slices of 4..8 rows), so a stack
# holds many slices, with and without noise; their sha256 were recorded
# when each slice was built on its own from one serial stream.
STACKED_SPEC = SyntheticSpec(rows=8, cols=6, num_slices=60, mode=MODE_PLANTED, true_rank=3,
                             noise_level=0.2, seed=21)
STACKED_CLEAN_SPEC = SyntheticSpec(rows=8, cols=6, num_slices=60, mode=MODE_PLANTED,
                                   true_rank=3, seed=21)
STACKED_DIGESTS = {
    STACKED_SPEC: "79000c89fcd313f2cf29f9640f427fcadff522388d2ffcef4173d0a7638790a3",
    STACKED_CLEAN_SPEC: "2cc9b781d783078b8185d066e16644cd94c22896e5201c22219df8a5b90a87bd",
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

    @pytest.mark.parametrize("threads", [1, 2, 9])
    @pytest.mark.parametrize("spec", [STACKED_SPEC, STACKED_CLEAN_SPEC], ids=["noisy", "clean"])
    def test_planted_stacks_match_the_serial_stream(self, tmp_path, spec, threads):
        path = tmp_path / "t.irt"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers switch often, so an overlap would show
        try:
            t = generate(spec, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        save_archive(t, path)
        assert sha256_file(path) == STACKED_DIGESTS[spec]
        assert not any(x.flags.writeable for x in t.slices)

    @pytest.mark.parametrize("spec", [
        STACKED_SPEC,
        SyntheticSpec(rows=9, cols=1, num_slices=40, mode=MODE_PLANTED, seed=3),
        SyntheticSpec(rows=30, cols=12, num_slices=200, mode=MODE_PLANTED, true_rank=4,
                      noise_level=1.5, seed=4),
    ], ids=["stacked", "one-column", "many-stacks"])
    def test_planted_matches_a_slice_by_slice_build(self, spec):
        # The per-slice loop planted generation used before it was stacked.
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        r = spec.true_rank
        rows = rng.integers(max(r, spec.rows // 2, 1), spec.rows + 1, size=spec.num_slices)
        core = np.linalg.qr(rng.standard_normal((r, r)))[0]
        v = np.linalg.qr(rng.standard_normal((spec.cols, r)))[0]
        expected = []
        for i in rows:
            q_k = np.linalg.qr(rng.standard_normal((i, r)))[0]
            s_k = rng.uniform(0.9, 1.1, r) * 3.0 ** np.arange(r) * rng.choice([-1.0, 1.0], r)
            x = (q_k @ (core * s_k)) @ v.T
            noise = rng.standard_normal(x.shape)
            if spec.noise_level > 0.0:
                x += spec.noise_level * np.linalg.norm(x) / np.linalg.norm(noise) * noise
            expected.append(x.tobytes())
        assert [x.tobytes() for x in generate(spec, threads=2).slices] == expected

    def test_planted_builds_each_stack_with_one_qr_on_the_workers(self, monkeypatch):
        calls = []  # (thread, leading shape) of every qr
        real = np.linalg.qr

        def spy(a, *args, **kwargs):
            calls.append((threading.get_ident(), a.shape[:-2]))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        t = generate(STACKED_SPEC, threads=2)
        stacks, groups = equal_height_stacks(t.row_counts, t.num_cols, 2)
        assert len(stacks) > 1 and all(groups)
        assert [shape for _, shape in calls[:2]] == [(), ()]  # H and V, drawn serially
        stacked = calls[2:]
        assert sorted(shape for _, shape in stacked) == sorted((len(ks),) for ks in stacks)
        assert {thread for thread, _ in stacked} - {threading.get_ident()}

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 7, 5), (77, 50, 30), (2, 1000, 200)])
    def test_stack_norms_have_the_bits_of_linalg_norm(self, shape):
        x = np.random.Generator(np.random.PCG64(shape[1])).standard_normal(shape)
        x[0] = 0.0
        norms = dpar2.tensor._norms(x)
        assert norms.shape == (shape[0], 1, 1)
        assert [n.hex() for n in norms.ravel()] == [np.linalg.norm(m).hex() for m in x]

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
        t = irregular_tensor(counts=(4, 2, 3))
        path = tmp_path / "t.irt"
        save_archive(t, path)
        ran = set()  # the threads that checked a loaded slice
        checked = dpar2.tensor._checked_sq_norm

        def spy(x, k):
            ran.add(threading.get_ident())
            return checked(x, k)

        monkeypatch.setattr(dpar2.tensor, "_checked_sq_norm", spy)
        back = load_archive(path, threads=300_000)
        # 3 workers, the first on the calling thread
        assert threading.get_ident() in ran and len(ran) - 1 == 2
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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_preadv_call_reads_inside_one_payload(self, tmp_path, monkeypatch, threads):
        t = irregular_tensor(seed=5)
        path = tmp_path / "t.irt"
        save_archive(t, path)
        payloads, off = [], 12  # [start, end) of each slice's payload in the file
        for x in t.slices:
            payloads.append((off + 4, off + 4 + x.nbytes))
            off += 4 + x.nbytes
        real = os.preadv
        calls = []

        def spy(fd, buffers, offset):
            calls.append((offset, offset + sum(memoryview(b).nbytes for b in buffers)))
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", spy)
        back = load_archive(path, threads=threads)
        inside = [[k for k, (a, b) in enumerate(payloads) if a <= lo and hi <= b]
                  for lo, hi in calls]
        assert all(inside)  # no call reads a row-count header
        assert sorted({ks[0] for ks in inside}) == list(range(len(payloads)))
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
        recomputed = IrregularTensor(t.slices)
        recomputed.sq_norms = reference_sq_norms(t)
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
