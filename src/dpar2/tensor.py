"""Irregular dense tensors: container, synthetic generators, and archive I/O.

A tensor here is an ordered collection of K dense float64 slices X_k of
shape (I_k x J): the row counts vary, the column count is shared.  The
binary archive format ("IRT1") is little-endian and bit-exact:

    magic b"IRT1" | u32 K | u32 J | K * ( u32 I_k | I_k*J float64 row-major )

``load_archive`` walks the headers first, then reads the slices on the
worker threads.  A directory of ``slice_*.csv`` files is accepted as a
human-editable alternative.

Every tensor keeps the ||X_k||_F^2 of its slices.  Each is computed once,
where the slice is checked for NaN and inf: on the worker that read or drew
it, or in the constructor.  Fitness, the ALS objective and ``total_sq_norm`` read
these instead of passing over X again.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ArchiveFormatError,
    NonFiniteInputError,
    RankTooLargeError,
    ShapeMismatchError,
)
from .linalg import _MASK64
from .scheduler import (
    contiguous_chunks,
    greedy_partition,
    map_stacks,
    parallel_slice_map,
    resolve_threads,
)

_MAGIC = b"IRT1"

MODE_UNIFORM = "uniform_random"
MODE_PLANTED = "planted_parafac2"


@dataclass
class IrregularTensor:
    """K dense slices (I_k x J) sharing the column count J.

    Slices are converted to contiguous float64 and marked read-only, so a
    tensor can be shared across worker threads safely.  ``sq_norms`` keeps
    every ||X_k||_F^2, computed once as the slice is checked, so fitness
    and ALS never pass over X again to find them.
    """

    slices: list
    sq_norms: list = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.slices) < 1:
            raise ShapeMismatchError("tensor needs at least one slice")
        cols = None
        frozen = []
        norms = []
        for k, x in enumerate(self.slices):
            arr = np.ascontiguousarray(x, dtype=np.float64)
            if arr.ndim != 2:
                raise ShapeMismatchError(f"slice {k} must be 2-D, got ndim={arr.ndim}")
            if arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ShapeMismatchError(f"slice {k} has empty shape {arr.shape}")
            if cols is None:
                cols = arr.shape[1]
            elif arr.shape[1] != cols:
                raise ShapeMismatchError(
                    f"inconsistent column counts: slice 0 has {cols}, slice {k} has {arr.shape[1]}"
                )
            norms.append(_checked_sq_norm(arr, k))
            arr.setflags(write=False)
            frozen.append(arr)
        self.slices = frozen
        self.sq_norms = norms

    @classmethod
    def _from_checked(cls, slices, sq_norms):
        """A tensor of slices already converted, frozen and checked, with their norms."""
        tensor = cls.__new__(cls)
        tensor.slices = slices
        tensor.sq_norms = sq_norms
        return tensor

    @property
    def num_slices(self):
        return len(self.slices)

    @property
    def num_cols(self):
        return self.slices[0].shape[1]

    @property
    def row_counts(self):
        return [x.shape[0] for x in self.slices]

    def total_sq_norm(self):
        return float(sum(self.sq_norms))


def check_rank(tensor: IrregularTensor, rank):
    """Raise :class:`RankTooLargeError` unless 1 <= rank <= J and every I_k."""
    if rank < 1:
        raise RankTooLargeError(f"rank must be >= 1, got {rank}")
    if rank > tensor.num_cols:
        raise RankTooLargeError(f"rank {rank} exceeds column count {tensor.num_cols}")
    for k, rows in enumerate(tensor.row_counts):
        if rank > rows:
            raise RankTooLargeError(f"rank {rank} exceeds row count {rows} of slice {k}")


def _checked_sq_norm(x, k):
    """||x||_F^2 of slice k, which doubles as its finiteness check.

    NaN or inf anywhere in ``x`` makes the sum non-finite, so the full
    ``np.isfinite`` scan runs only then: it tells such input apart from a
    finite slice whose squares overflow, which is kept with an infinite norm.
    """
    flat = x.ravel()
    with np.errstate(over="ignore"):  # overflow is told apart below
        sq = float(np.dot(flat, flat))
    if not math.isfinite(sq) and not np.isfinite(x).all():
        raise NonFiniteInputError(f"slice {k} contains non-finite values")
    return sq


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic tensor; generation is a pure function of this.

    Every slice gets ``rows`` rows in uniform mode; planted mode draws I_k
    uniformly from [rows//2, rows].  ``true_rank`` and ``noise_level`` only
    apply to planted mode, where each slice is Q_k H S_k V^T plus white
    noise scaled to ``noise_level`` times the slice signal norm.
    """

    rows: int
    cols: int
    num_slices: int
    mode: str = MODE_UNIFORM
    true_rank: int = 1
    noise_level: float = 0.0
    seed: int = 0


def _random_orthonormal(rng, m, n):
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    return q


def _resolve_rows(spec, rng):
    rows = int(spec.rows)
    if spec.mode != MODE_PLANTED:
        if rows < 1:
            raise ShapeMismatchError("row counts must be positive")
        return [rows] * spec.num_slices
    lower = max(spec.true_rank, rows // 2, 1)
    if rows < lower:
        raise RankTooLargeError(f"rows={rows} too small for rank {spec.true_rank}")
    return [int(r) for r in rng.integers(lower, rows + 1, size=spec.num_slices)]


def generate(spec: SyntheticSpec, threads=None):
    """Build the synthetic tensor described by ``spec``.

    All randomness comes from one PCG64 stream seeded with ``spec.seed``
    and is drawn in a fixed order, so equal specs give bit-equal tensors.
    Uniform mode draws its slices on min(``threads``, K) workers (see
    ``resolve_threads``), with the same bytes at any thread count (see
    :func:`_uniform_slices`).  Planted mode draws serially: its normals come
    from a ziggurat that takes a variable number of draws, so where a slice
    starts in the stream is known only once the slices before it are drawn.
    """
    if spec.num_slices < 1 or spec.cols < 1:
        raise ShapeMismatchError("need num_slices >= 1 and cols >= 1")
    if spec.mode not in (MODE_UNIFORM, MODE_PLANTED):
        raise ValueError(f"unknown mode {spec.mode!r}")
    workers = min(resolve_threads(threads), spec.num_slices)
    rng = np.random.Generator(np.random.PCG64(spec.seed & _MASK64))
    rows = _resolve_rows(spec, rng)

    if spec.mode == MODE_UNIFORM:
        return _uniform_slices(spec.seed, rows[0], spec.cols, spec.num_slices, workers)

    r = spec.true_rank
    if r < 1 or r > min(min(rows), spec.cols):
        raise RankTooLargeError(
            f"true_rank {r} not in [1, min(rows, cols)] for rows>={min(rows)}, cols={spec.cols}"
        )
    if spec.noise_level < 0:
        raise ValueError("noise_level must be >= 0")
    core = _random_orthonormal(rng, r, r)
    v = _random_orthonormal(rng, spec.cols, r)
    # Geometrically separated component magnitudes keep the instance easy
    # for alternating solvers: without the separation, cold-started ALS can
    # stall in a swamp for hundreds of iterations even on noiseless data.
    component_scale = 3.0 ** np.arange(r)
    slices = []
    for rows_k in rows:
        q_k = _random_orthonormal(rng, rows_k, r)
        s_k = rng.uniform(0.9, 1.1, r) * component_scale * rng.choice([-1.0, 1.0], r)
        signal = (q_k @ (core * s_k)) @ v.T
        noise = rng.standard_normal(signal.shape)
        if spec.noise_level > 0.0:
            denom = np.linalg.norm(noise)
            scale = spec.noise_level * np.linalg.norm(signal) / denom if denom > 0 else 0.0
            slices.append(signal + scale * noise)
        else:
            slices.append(signal)
    return IrregularTensor(slices)


def _uniform_slices(seed, rows, cols, num_slices, workers):
    """``num_slices`` slices of uniform [0, 1) draws, filled on ``workers`` threads.

    ``Generator.random`` takes exactly one 64-bit PCG64 draw per float64, so
    slice k starts k * rows * cols draws into the stream.  The slices are
    views of one (K, rows, cols) array, split into one contiguous run per
    worker.  Each worker fills its run with one call to a PCG64 of its own,
    advanced once to the run's first slice, so every slice gets the bits
    one serial stream gives it.  One call per run, not per slice, keeps many
    tiny slices from handing the GIL back and forth.  The worker then takes
    each slice's ||X_k||^2, its finiteness check.  The array is allocated
    here and faulted in by the workers.
    """
    stack = np.empty((num_slices, rows, cols))
    runs = contiguous_chunks(num_slices, workers)

    def fill(run, ks):
        bitgen = np.random.PCG64(seed & _MASK64)
        bitgen.advance(ks[0] * rows * cols)
        np.random.Generator(bitgen).random(out=run)
        return [_checked_sq_norm(x, k) for x, k in zip(run, ks)]

    parts = map_stacks(fill, stack, runs, [[i] for i in range(len(runs))])
    stack.setflags(write=False)
    return IrregularTensor._from_checked(list(stack), [sq for part in parts for sq in part])


def save_archive(tensor: IrregularTensor, path):
    """Write the binary archive; round-trips bit-exactly through load_archive.

    Each slice is written from its own little-endian buffer, not a copy.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", tensor.num_slices, tensor.num_cols))
        for x in tensor.slices:
            fh.write(struct.pack("<I", x.shape[0]))
            fh.write(memoryview(np.ascontiguousarray(x, dtype="<f8")).cast("B"))


def load_archive(path, threads=None):
    """Read an IRT1 archive on min(``threads``, K) workers (see ``resolve_threads``).

    The headers are walked first, so a bad magic, dimension or row count,
    a truncated header or payload and trailing bytes all raise before any
    slice is allocated.  Each slice's array is then allocated here (in the
    workers, the allocations measured a higher peak memory on many small
    slices) and filled by a worker with ``os.preadv`` from the file: the
    payload is copied once, peak memory is the tensor's size, and the page
    faults of filling it are shared by the workers (``preadv`` releases the
    GIL).  Right after its read, while the slice is still in cache, the
    worker computes ||X_k||^2, which is also the slice's finiteness check,
    and the tensor keeps it.  NaN or inf raises naming the lowest such
    slice.  The bytes and norms loaded do not depend on the thread count.

    One buffer for the whole file, viewed slice by slice, would not do:
    the 4-byte row-count headers leave every other slice misaligned for
    float64, and numpy copies misaligned operands on every matrix product.
    """
    with open(path, "rb") as fh:
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        head = os.pread(fd, 12, 0)
        if len(head) < 4 or head[:4] != _MAGIC:
            raise ArchiveFormatError(f"{path}: bad magic, not an IRT1 archive")
        if len(head) < 12:
            raise ArchiveFormatError(f"{path}: truncated header")
        num_slices, cols = struct.unpack_from("<II", head, 4)
        if num_slices < 1 or cols < 1:
            raise ArchiveFormatError(f"{path}: invalid dimensions K={num_slices}, J={cols}")
        row_counts, offsets = [], []
        off = 12
        for k in range(num_slices):
            if size < off + 4:
                raise ArchiveFormatError(f"{path}: truncated at slice {k} header")
            (rows,) = struct.unpack("<I", os.pread(fd, 4, off))
            off += 4
            if rows < 1:
                raise ArchiveFormatError(f"{path}: slice {k} has zero rows")
            nbytes = rows * cols * 8
            if size < off + nbytes:
                raise ArchiveFormatError(f"{path}: truncated payload in slice {k}")
            row_counts.append(rows)
            offsets.append(off)
            off += nbytes
        if off != size:
            raise ArchiveFormatError(f"{path}: {size - off} trailing bytes after last slice")
        slices = [np.empty((rows, cols), dtype="<f8") for rows in row_counts]

        def read(k):
            x = slices[k]
            buf = memoryview(x).cast("B")
            done = 0
            while done < len(buf):
                got = os.preadv(fd, [buf[done:]], offsets[k] + done)
                if got == 0:
                    raise ArchiveFormatError(f"{path}: truncated payload in slice {k}")
                done += got
            try:
                sq = _checked_sq_norm(x, k)
            except NonFiniteInputError as exc:
                raise ArchiveFormatError(f"{path}: {exc}") from exc
            x.setflags(write=False)
            return sq

        plan = greedy_partition(row_counts, min(resolve_threads(threads), num_slices))
        sq_norms = parallel_slice_map(read, num_slices, groups=plan.sets)
    return IrregularTensor._from_checked(slices, sq_norms)


def load_csv_dir(path):
    """Load a tensor from a directory of ``slice_*.csv`` files (sorted by name)."""
    files = sorted(Path(path).glob("slice_*.csv"))
    if not files:
        raise ArchiveFormatError(f"{path}: no slice_*.csv files found")
    slices = []
    for f in files:
        arr = np.loadtxt(f, delimiter=",", ndmin=2, dtype=np.float64)
        slices.append(arr)
    return IrregularTensor(slices)
