"""Irregular dense tensors: container, synthetic generators, and archive I/O.

A tensor here is an ordered collection of K dense float64 slices X_k of
shape (I_k x J): the row counts vary, the column count is shared.  The
binary archive format ("IRT1") is little-endian and bit-exact:

    magic b"IRT1" | u32 K | u32 J | K * ( u32 I_k | I_k*J float64 row-major )

``load_archive`` walks the headers first, then reads the slices on the
worker threads.  A directory of ``slice_*.csv`` files is accepted as a
human-editable alternative.

Every tensor is laid out by :func:`_built`: its slices are views of one
buffer in (row count, index) order, so no stacked pass copies a stack.
Each ||X_k||_F^2 is computed once, where the slice is checked for NaN and
inf, and kept; fitness, the ALS objective and ``total_sq_norm`` read these
instead of passing over X again.
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
from .factors import as_integer, as_real
from .linalg import _MASK64
from .scheduler import contiguous_runs, equal_height_stacks, height_order, map_stacks

_MAGIC = b"IRT1"
_IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers one preadv call may take

MODE_UNIFORM = "uniform_random"
MODE_PLANTED = "planted_parafac2"


@dataclass(eq=False, repr=False)
class IrregularTensor:
    """K dense slices (I_k x J) sharing the column count J.

    The constructor checks every slice's shape and rejects a complex one
    (``ValueError``), then copies the slices as float64 through
    :func:`_built`, keeping and changing none of its input.  The slices are
    read-only views of the tensor's buffer, so a tensor can be shared
    across worker threads.  ``sq_norms`` keeps every ||X_k||_F^2.  Compared
    by identity, with a short repr, as :class:`~dpar2.factors.Parafac2Factors`.
    """

    slices: list
    sq_norms: list = field(init=False)

    def __post_init__(self):
        arrays = [np.asarray(x) for x in self.slices]  # made float64 by the copy
        if not arrays:
            raise ShapeMismatchError("tensor needs at least one slice")
        for k, arr in enumerate(arrays):
            if np.iscomplexobj(arr):  # the copy would drop its imaginary part
                raise ValueError(f"slice {k} is complex, got dtype {arr.dtype}")
            if arr.ndim != 2:
                raise ShapeMismatchError(f"slice {k} must be 2-D, got ndim={arr.ndim}")
            if arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ShapeMismatchError(f"slice {k} has empty shape {arr.shape}")
            if arr.shape[1] != arrays[0].shape[1]:
                raise ShapeMismatchError(f"inconsistent column counts: slice 0 has "
                                         f"{arrays[0].shape[1]}, slice {k} has {arr.shape[1]}")

        def copy(tensor, ks):
            for k in ks:
                tensor.slices[k][...] = arrays[k]

        built = _built([x.shape[0] for x in arrays], arrays[0].shape[1], copy, 1)
        vars(self).update(vars(built))  # its slices, norms and layout

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

    def stack(self, ks):
        """Slices ``ks`` as one (len(ks), I, J) view: they must be one run of
        equal height in the layout, as every stack of ``equal_height_stacks``
        is.  Anything else raises ``ValueError``; a stack is never copied."""
        rows, cols = self.slices[ks[0]].shape
        start, end = self._starts[ks[0]], self._starts[ks[0]] + len(ks) * rows * cols
        if (self.slices[ks[-1]].shape[0] != rows
                or [self._starts[k] for k in ks] != list(range(start, end, rows * cols))):
            raise ValueError(f"slices {ks} are not one run of equal height in the layout")
        return self._buffer[start:end].reshape(len(ks), rows, cols)


def check_rank(tensor: IrregularTensor, rank):
    """Raise :class:`RankTooLargeError` unless 1 <= rank <= J and every I_k,
    and ``ValueError`` if ``rank`` is no integer (``factors.as_integer``)."""
    rank = as_integer("rank", rank, 1, RankTooLargeError)
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


def _built(row_counts, cols, fill, threads):
    """The tensor of slices ``row_counts[k]`` x ``cols``, filled on the workers.

    The slices are views of one little-endian float64 buffer placed in
    ``scheduler.height_order``, so every stack of ``equal_height_stacks``
    is one view (:meth:`IrregularTensor.stack`).  Each worker of ``threads``
    fills one run of ``scheduler.contiguous_runs``: ``fill(tensor, ks)`` writes
    slices ``ks`` through ``tensor.slices`` or ``tensor.stack``, then it takes
    each slice's ||X_k||^2, its finiteness check, under one ``np.errstate``.
    NaN or inf raises naming the lowest such slice.  The buffer and slices
    are frozen once every run is filled.
    """
    plan = contiguous_runs(len(row_counts), threads)
    starts, start = [0] * len(row_counts), 0
    for k in height_order(row_counts):
        starts[k], start = start, start + row_counts[k] * cols
    buffer = np.empty(sum(row_counts) * cols, dtype="<f8")
    tensor = IrregularTensor.__new__(IrregularTensor)
    tensor._buffer, tensor._starts = buffer, starts
    tensor.slices = [buffer[a : a + rows * cols].reshape(rows, cols)
                     for a, rows in zip(starts, row_counts)]

    def build(ks):
        fill(tensor, ks)
        with np.errstate(over="ignore"):  # overflow is told apart in the check
            return [_checked_sq_norm(tensor.slices[k], k) for k in ks]

    parts = map_stacks(build, *plan)
    for x in [buffer, *tensor.slices]:
        x.setflags(write=False)
    tensor.sq_norms = [sq for part in parts for sq in part]
    return tensor


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic tensor; generation is a pure function of this.

    Every slice gets ``rows`` rows in uniform mode; planted mode draws I_k
    uniformly from [max(``true_rank``, rows//2), rows].  ``true_rank``
    and ``noise_level`` only apply to planted mode, where each slice is
    Q_k H S_k V^T plus white noise scaled to ``noise_level`` times the
    slice signal norm.

    Every field is checked here, when the spec is made, so :func:`generate`
    checks only its ``threads``.  The counts and ``seed`` must be integers
    (``factors.as_integer``) and ``noise_level`` a finite real >= 0
    (``factors.as_real``), else ``ValueError``; a NumPy scalar is kept as a
    Python number.  ``num_slices`` or ``cols`` below 1 raises
    :class:`ShapeMismatchError`, as does ``rows`` below 1 in uniform mode,
    which also rejects a nonzero ``noise_level`` and ignores ``true_rank``.
    Planted mode raises :class:`RankTooLargeError` unless 1 <=
    ``true_rank`` <= ``rows``, ``cols``.
    """

    rows: int
    cols: int
    num_slices: int
    mode: str = MODE_UNIFORM
    true_rank: int = 1
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("rows", "cols", "num_slices", "true_rank", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.num_slices < 1 or self.cols < 1:
            raise ShapeMismatchError("need num_slices >= 1 and cols >= 1")
        if self.mode not in (MODE_UNIFORM, MODE_PLANTED):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "noise_level", as_real("noise_level", self.noise_level))
        if self.mode == MODE_UNIFORM:
            if self.noise_level:
                raise ValueError("noise_level applies to planted mode only")
            if self.rows < 1:
                raise ShapeMismatchError("row counts must be positive")
            return
        r = self.true_rank
        if self.rows < max(r, 1):
            raise RankTooLargeError(f"rows={self.rows} too small for rank {r}")
        if r < 1 or r > self.cols:
            raise RankTooLargeError(f"true_rank {r} not in [1, min(rows, cols)] "
                                    f"for rows={self.rows}, cols={self.cols}")


def _random_orthonormal(rng, m, n):
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    return q


def _resolve_rows(spec, rng):
    if spec.mode != MODE_PLANTED:
        return [spec.rows] * spec.num_slices
    lower = max(spec.true_rank, spec.rows // 2)
    return [int(r) for r in rng.integers(lower, spec.rows + 1, size=spec.num_slices)]


def generate(spec: SyntheticSpec, threads=None):
    """Build the synthetic tensor described by ``spec``.

    All randomness comes from one PCG64 stream seeded with ``spec.seed``
    and is drawn in a fixed order, so equal specs give bit-equal tensors.
    Uniform mode draws its slices on the workers of ``threads`` (see
    ``scheduler``), with the same bytes at any thread count (see
    :func:`_uniform_fill`).  Planted mode takes two passes (see
    :func:`_planted_fill`): the calling thread draws every slice's numbers
    in slice order, its noise straight into its place in the tensor's
    buffer, since its normals come from a ziggurat that takes a variable
    number of draws, so where a slice starts in the stream is known only
    once the slices before it are drawn; then the workers build the
    signal stack by stack, with the bytes of a slice-by-slice build.
    ``spec`` checked itself when it was made (see :class:`SyntheticSpec`),
    so the one check here is of ``threads`` (``scheduler.resolve_threads``).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed & _MASK64))
    rows = _resolve_rows(spec, rng)
    if spec.mode == MODE_UNIFORM:
        return _built(rows, spec.cols, _uniform_fill(spec.seed, rows[0] * spec.cols), threads)
    return _built(rows, spec.cols, _planted_fill(spec, rows, rng, threads), 1)


def _norms(x):
    """||x_i||_F of each matrix of the stack ``x``, shaped (n, 1, 1), with the
    bits of ``np.linalg.norm(x_i)``: that is sqrt(x_i.ravel() . x_i.ravel()),
    and a stacked (1 x m)(m x 1) ``matmul`` takes each of these dots as
    the one ``ddot`` that ``ndarray.dot`` calls."""
    flat = x.reshape(len(x), 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1))


def _planted_fill(spec, rows, rng, threads):
    """The :func:`_built` fill of a planted tensor: one run on the calling
    thread, in two passes.

    1. Serial draws, in the order of a slice-by-slice build: H and V, then
       per slice its I_k x R normals, magnitudes and signs (kept), and its
       noise, drawn into the slice's place in the buffer.
    2. On the workers of ``threads``, per stack of ``equal_height_stacks``:
       one stacked ``qr`` of the normals gives the Q_k and one stacked
       (Q_k (H * s_k)) V^T the signals; each slice's noise is scaled in place
       by c = ``noise_level`` ||signal|| / ||noise|| (0 for zero noise), then
       the signal added.  The stacked calls factorize, multiply and take
       norms of each matrix as a single call would, and IEEE addition
       commutes, so each slice holds the bits of signal + c * noise.  With
       no noise the signal overwrites it.
    """
    r, cols = spec.true_rank, spec.cols
    stacks, groups = equal_height_stacks(rows, cols, threads)  # a bad thread count fails here
    core = _random_orthonormal(rng, r, r)
    v = _random_orthonormal(rng, cols, r)
    # Geometrically separated component magnitudes keep the instance easy
    # for alternating solvers: without the separation, cold-started ALS can
    # stall in a swamp for hundreds of iterations even on noiseless data.
    component_scale = 3.0 ** np.arange(r)
    signs = np.array([-1.0, 1.0])  # indexed by integers(0, 2): the draws of choice([-1.0, 1.0])

    def fill(tensor, ks):
        normals = [None] * len(rows)
        scales = np.empty((len(rows), r))
        for k in ks:
            normals[k] = rng.standard_normal((rows[k], r))
            scales[k] = rng.uniform(0.9, 1.1, r) * component_scale * signs[rng.integers(0, 2, r)]
            rng.standard_normal(out=tensor.slices[k])

        def build(stack):
            x = tensor.stack(stack)
            q, _ = np.linalg.qr(np.stack([normals[k] for k in stack]))
            basis = q @ (core * scales[stack, None, :])
            if spec.noise_level == 0.0:
                np.matmul(basis, v.T, out=x)
                return
            signal = basis @ v.T
            denom = _norms(x)
            x *= np.divide(spec.noise_level * _norms(signal), denom,
                           out=np.zeros_like(denom), where=denom > 0)
            x += signal

        map_stacks(build, stacks, groups)

    return fill


def _uniform_fill(seed, slice_floats):
    """The :func:`_built` fill of uniform [0, 1) slices of ``slice_floats`` floats.

    ``Generator.random`` takes exactly one 64-bit PCG64 draw per float64, so
    slice k starts k * ``slice_floats`` draws into the stream.  Each worker
    fills its run with one call to a PCG64 of its own, advanced once to the
    run's first slice, so every slice gets the bits one serial stream gives
    it.  All slices share one height, so a run is one view of the buffer,
    and one call per run, not per slice, keeps many tiny slices from
    handing the GIL back and forth.
    """
    def fill(tensor, ks):
        bitgen = np.random.PCG64(seed & _MASK64)
        bitgen.advance(ks[0] * slice_floats)
        np.random.Generator(bitgen).random(out=tensor.stack(ks))

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
    The payloads go straight into their slices' places in the tensor's
    height-ordered buffer, and each row-count header after the first into
    a 4-byte scratch buffer.  A short read resumes at the exact byte it
    reached.  The payload is copied once, peak memory is
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

        def read(tensor, ks):
            # The run's file bytes as (buffer, slice, is payload) pieces in
            # file order: a header after the first lands in scratch, a
            # payload in its slice.
            scratch = memoryview(bytearray(4))
            pieces = [piece for k in ks for piece in (
                (scratch, k, False), (memoryview(tensor.slices[k]).cast("B"), k, True))][1:]
            pos, i = offsets[ks[0]], 0
            while i < len(pieces):
                got = os.preadv(fd, [buf for buf, _, _ in pieces[i : i + _IOV_MAX]], pos)
                if got == 0:
                    _, k, payload = pieces[i]
                    raise ArchiveFormatError(f"{path}: truncated " + (
                        f"payload in slice {k}" if payload else f"at slice {k} header"))
                pos += got
                while got:
                    buf, k, payload = pieces[i]
                    if got < len(buf):  # a short read stopped inside this piece
                        pieces[i] = (buf[got:], k, payload)
                        break
                    got -= len(buf)
                    i += 1

        try:
            return _built(row_counts, cols, read, threads)
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
