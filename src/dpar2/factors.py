"""Shared factor containers, solver options, and factor-set disk I/O.

Both solvers produce the same model: X_k ~ U_k S_k V^T with U_k = Q_k H,
where Q_k has orthonormal columns, H is a square R x R matrix shared across
slices, S_k = diag(W[k, :]) and V is the shared column factor.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArchiveFormatError, NumericFailure, ShapeMismatchError


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by both solvers, checked when they are made.

    ``max_iters`` must be >= 1 and ``tol`` finite and >= 0; anything else
    raises ``ValueError`` here, so a bad value fails before any work, and
    the options cannot be changed afterwards.  ``threads=None`` defers to
    DPAR2_THREADS or the CPU count.
    """

    max_iters: int = 32
    tol: float = 1e-6
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass
class FitTrace:
    """Per-iteration objective values and wall times for one fit."""

    objective: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    preprocess_seconds: float = 0.0
    converged: bool = False
    compressed_float_count: int | None = None

    @property
    def iterations(self):
        return len(self.objective)


@dataclass
class Parafac2Factors:
    """Fitted factors H (R x R), V (J x R), W (K x R), and per-slice Q_k."""

    H: np.ndarray
    V: np.ndarray
    W: np.ndarray
    Q: list

    @property
    def rank(self):
        return self.H.shape[1]

    @property
    def num_slices(self):
        return len(self.Q)

    def slice_factor(self, k):
        """U_k = Q_k H, the left factor of slice k."""
        return self.Q[k] @ self.H

    def reconstruct_slice(self, k):
        """Model slice (Q_k (H S_k)) V^T."""
        return (self.Q[k] @ (self.H * self.W[k])) @ self.V.T


def iterate(step, state, opts: SolverOptions, trace: FitTrace):
    """Both solvers' iteration loop; returns the last state.

    Runs ``state, objective = step(*state)`` and records each objective and
    its wall time in ``trace``.  Stops after ``max_iters`` steps, or sets
    ``trace.converged`` and stops once the objective changed by at most
    ``tol`` times its previous value (or that value was 0).  An objective
    that is not finite raises :class:`NumericFailure`.
    """
    for _ in range(opts.max_iters):
        started = time.perf_counter()
        state, objective = step(*state)
        if not math.isfinite(objective):
            raise NumericFailure("objective is not finite")
        trace.objective.append(objective)
        trace.seconds.append(time.perf_counter() - started)
        if trace.iterations > 1:
            prev = trace.objective[-2]
            if prev == 0.0 or abs(prev - objective) <= opts.tol * prev:
                trace.converged = True
                break
    return state


def initial_factors(num_cols, num_slices, rank, seed=0):
    """Deterministic starting point: H = I, V = the leading ``rank``
    identity columns, W = ones so every S_k starts as the identity.

    Both solvers check ``rank <= num_cols`` before calling this.  ``seed``
    is accepted for call compatibility and unused.
    """
    return np.eye(rank), np.eye(num_cols, rank), np.ones((num_slices, rank))


def push_col_norms(a, b):
    """Rescale ``a``'s columns to unit 2-norm, multiplying the norms into
    the matching columns of ``b`` so products over both are unchanged.
    Columns with norm below 1e-300 are left alone (factor 1)."""
    norms = np.linalg.norm(a, axis=0)
    safe = np.where(norms < 1e-300, 1.0, norms)
    return a / safe, b * safe


def _write_matrix(path, arr):
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.17g")


def _read_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_factors(factors: Parafac2Factors, outdir, manifest_extra=None):
    """Write H/V/W and every U_k as CSV plus a manifest.json.

    Files are deterministic: the same factors always produce the same bytes.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_matrix(outdir / "H.csv", factors.H)
    _write_matrix(outdir / "V.csv", factors.V)
    _write_matrix(outdir / "W.csv", factors.W)
    for k in range(factors.num_slices):
        _write_matrix(outdir / f"U_{k:04d}.csv", factors.slice_factor(k))
    manifest = {
        "rank": int(factors.rank),
        "num_slices": int(factors.num_slices),
        "num_cols": int(factors.V.shape[0]),
        "row_counts": [int(q.shape[0]) for q in factors.Q],
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class FactorSet:
    """Factors reloaded from disk; U is the list of per-slice left factors."""

    H: np.ndarray
    V: np.ndarray
    W: np.ndarray
    U: list
    manifest: dict


def load_factors(path):
    """Read a directory written by :func:`save_factors`.

    Reads ``U_{k:04d}.csv`` for k below the manifest's ``num_slices``, so
    files left by an earlier, larger save are ignored.  A missing manifest,
    ``num_slices`` or U file raises :class:`ArchiveFormatError` naming it.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise ArchiveFormatError(f"{path}: missing manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    num_slices = manifest.get("num_slices")
    if not isinstance(num_slices, int) or num_slices < 1:
        raise ArchiveFormatError(f"{path}: manifest.json has no positive integer num_slices")
    h = _read_matrix(path / "H.csv")
    v = _read_matrix(path / "V.csv")
    w = _read_matrix(path / "W.csv")
    rank = h.shape[1]
    u = []
    for k in range(num_slices):
        u_path = path / f"U_{k:04d}.csv"
        if not u_path.is_file():
            raise ArchiveFormatError(f"{path}: missing {u_path.name} of the {num_slices} slices")
        u.append(_read_matrix(u_path))
        if u[k].shape[1] != rank:
            raise ShapeMismatchError(f"U file {k} has {u[k].shape[1]} columns, expected {rank}")
    return FactorSet(H=h, V=v, W=w, U=u, manifest=manifest)


def write_csv_rows(path, header, rows):
    """Small CSV writer used by reports; floats are emitted with repr
    precision so equal values always serialize to equal bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(c) for c in row])


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value
