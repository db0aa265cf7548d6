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
import stat
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
from .scheduler import contiguous_runs, map_stacks

_MAGIC = b"IRT1"
_IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers one preadv call may take

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
            with np.errstate(over="ignore"):  # overflow is told apart in the check
                norms.append(_checked_sq_norm(arr, k))
            arr.setflags(write=False)
            frozen.append(arr)
        self.slices = frozen
        self.sq_norms = norms

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
    Run it under ``np.errstate(over="ignore")``; :func:`_built` enters one per run.
    """
    flat = x.ravel()
    sq = float(np.dot(flat, flat))
    if not math.isfinite(sq) and not np.isfinite(x).all():
        raise NonFiniteInputError(f"slice {k} contains non-finite values")
    return sq


def _built(row_counts, cols, fill, plan):
    """The tensor of slices ``row_counts[k]`` x ``cols``, filled on the workers.

    The slices are aligned views of one little-endian float64 buffer.
    Each worker of ``plan`` (``scheduler.contiguous_runs``) calls
    ``fill(run, ks)``, ``run`` being the flat part of the buffer that holds
    its slices ``ks``, then takes each slice's ||X_k||^2, its finiteness
    check, under one ``np.errstate``.  NaN or inf raises naming the lowest
    such slice.  Unlike the constructor, it copies nothing; the buffer is
    frozen once every run is filled.
    """
    flat = np.empty(sum(row_counts) * cols, dtype="<f8")
    bounds = np.cumsum([0] + row_counts) * cols

    def build(_, ks):
        fill(flat[bounds[ks[0]] : bounds[ks[-1] + 1]], ks)
        with np.errstate(over="ignore"):  # overflow is told apart in the check
            return [_checked_sq_norm(flat[bounds[k] : bounds[k + 1]], k) for k in ks]

    parts = map_stacks(build, None, *plan)
    flat.setflags(write=False)
    tensor = IrregularTensor.__new__(IrregularTensor)
    tensor.slices = [flat[a:b].reshape(rows, cols)
                     for a, b, rows in zip(bounds, bounds[1:], row_counts)]
    tensor.sq_norms = [sq for part in parts for sq in part]
    return tensor


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic tensor; generation is a pure function of this.

    Every slice gets ``rows`` rows in uniform mode; planted mode draws I_k
    uniformly from [rows//2, rows].  ``true_rank`` and ``noise_level`` only
    apply to planted mode, where each slice is Q_k H S_k V^T plus white
    noise scaled to ``noise_level`` times the slice signal norm; uniform
    mode rejects a nonzero ``noise_level``.
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
    Uniform mode draws its slices on the workers of ``threads`` (see
    ``scheduler``), with the same bytes at any thread count (see
    :func:`_uniform_fill`).  Planted mode draws serially: its normals come
    from a ziggurat that takes a variable number of draws, so where a slice
    starts in the stream is known only once the slices before it are drawn.
    Both modes reject a bad ``threads`` and a ``noise_level`` that is not
    finite and >= 0; uniform mode also rejects a nonzero one.
    """
    if spec.num_slices < 1 or spec.cols < 1:
        raise ShapeMismatchError("need num_slices >= 1 and cols >= 1")
    if spec.mode not in (MODE_UNIFORM, MODE_PLANTED):
        raise ValueError(f"unknown mode {spec.mode!r}")
    if not 0.0 <= spec.noise_level < math.inf:
        raise ValueError(f"noise_level must be finite and >= 0, got {spec.noise_level}")
    if spec.noise_level and spec.mode != MODE_PLANTED:
        raise ValueError("noise_level applies to planted mode only")
    plan = contiguous_runs(spec.num_slices, threads)
    rng = np.random.Generator(np.random.PCG64(spec.seed & _MASK64))
    rows = _resolve_rows(spec, rng)

    if spec.mode == MODE_UNIFORM:
        return _built(rows, spec.cols, _uniform_fill(spec.seed, rows[0] * spec.cols), plan)

    r = spec.true_rank
    if r < 1 or r > min(min(rows), spec.cols):
        raise RankTooLargeError(
            f"true_rank {r} not in [1, min(rows, cols)] for rows>={min(rows)}, cols={spec.cols}"
        )
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


def _uniform_fill(seed, slice_floats):
    """The :func:`_built` fill of uniform [0, 1) slices of ``slice_floats`` floats.

    ``Generator.random`` takes exactly one 64-bit PCG64 draw per float64, so
    slice k starts k * ``slice_floats`` draws into the stream.  Each worker
    fills its run with one call to a PCG64 of its own, advanced once to the
    run's first slice, so every slice gets the bits one serial stream gives
    it.  One call per run, not per slice, keeps many tiny slices from
    handing the GIL back and forth.
    """
    def fill(run, ks):
        bitgen = np.random.PCG64(seed & _MASK64)
        bitgen.advance(ks[0] * slice_floats)
        np.random.Generator(bitgen).random(out=run)

    return fill


def save_archive(tensor: IrregularTensor, path):
    """Write the binary archive; round-trips bit-exactly through load_archive.

    An existing file at ``path`` is rewritten in place, not truncated
    first: the magic's four bytes are written as zeros, then the header
    and each slice from its own little-endian buffer (no copy), then the
    file is cut to the written length and the magic goes in last.  The
    overwrite reuses the page-cache pages and disk blocks the file
    already has, where truncating it would free them (and, on ext4, make
    the close start writeback).  A save that stops partway leaves a file
    that ``load_archive`` rejects as "bad magic", never old and new
    slices under a valid header.  Nothing is fsynced, so none of this
    holds across a crash of the machine, and a reader that opened the old
    archive before the save can see its bytes change.  A target that is
    not a regular file (``os.devnull``, a pipe) gets the plain stream,
    magic first.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        in_place = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        fh.write(bytes(len(_MAGIC)) if in_place else _MAGIC)
        fh.write(struct.pack("<II", tensor.num_slices, tensor.num_cols))
        for x in tensor.slices:
            fh.write(struct.pack("<I", x.shape[0]))
            fh.write(memoryview(np.ascontiguousarray(x, dtype="<f8")).cast("B"))
        if in_place:
            fh.truncate()
            fh.seek(0)
            fh.write(_MAGIC)


def load_archive(path, threads=None):
    """Read an IRT1 archive on the workers of ``threads`` (see ``scheduler``).

    The headers are walked first, so a bad magic, dimension or row count,
    a truncated header or payload and trailing bytes all raise before any
    slice is allocated.  The tensor is then made by :func:`_built`: each
    worker reads one contiguous run of the slices, so one run of the file,
    with scatter ``os.preadv`` calls of at most ``SC_IOV_MAX`` buffers.
    The payloads go straight into their slices and each row-count header
    after the first into a 4-byte scratch buffer.  A short read resumes at
    the exact byte it reached.  The payload is copied once, peak memory is
    the tensor's size, and ``preadv`` releases the GIL, so the page faults
    of filling the buffer are shared by the workers.  Once its run is read,
    the worker takes each slice's ||X_k||^2, which is also the slice's
    finiteness check, and the tensor keeps it.  NaN or inf raises naming
    the lowest such slice.  The bytes and norms loaded do not depend on
    the thread count.
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

        def read(run, ks):
            # The run's file bytes as (buffer, slice, is payload) pieces in
            # file order: a header lands in scratch, a payload in its slice.
            scratch = memoryview(bytearray(4))
            payloads = memoryview(run).cast("B")
            pieces, start = [], 0
            for k in ks:
                if k != ks[0]:
                    pieces.append((scratch, k, False))
                end = start + row_counts[k] * cols * 8
                pieces.append((payloads[start:end], k, True))
                start = end
            pos, i = offsets[ks[0]], 0
            while i < len(pieces):
                got = os.preadv(fd, [buf for buf, _, _ in pieces[i : i + _IOV_MAX]], pos)
                if got == 0:
                    _, k, payload = pieces[i]
                    where = f"payload in slice {k}" if payload else f"at slice {k} header"
                    raise ArchiveFormatError(f"{path}: truncated {where}")
                pos += got
                while got:
                    buf, k, payload = pieces[i]
                    if got < len(buf):  # a short read stopped inside this piece
                        pieces[i] = (buf[got:], k, payload)
                        break
                    got -= len(buf)
                    i += 1

        try:
            return _built(row_counts, cols, read, contiguous_runs(num_slices, threads))
        except NonFiniteInputError as exc:
            raise ArchiveFormatError(f"{path}: {exc}") from exc


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
