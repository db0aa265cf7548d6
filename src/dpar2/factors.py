"""Shared factor containers, solver options, and factor-set disk I/O.

Both solvers produce the same model: X_k ~ U_k S_k V^T with U_k = Q_k H,
where Q_k has orthonormal columns, H is a square R x R matrix shared across
slices, S_k = diag(W[k, :]) and V is the shared column factor.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArchiveFormatError, NonFiniteInputError, NumericFailure, ShapeMismatchError


def as_integer(name, value, minimum=None, error=ValueError):
    """``value`` as a Python int; a bool, float or str is no integer and
    raises ``ValueError`` naming ``name``, and an integer below ``minimum``
    raises ``error``.  A NumPy integer is converted, since NumPy's would
    overflow in the seed hash."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return value


def as_real(name, value, rule="finite and >= 0", holds=lambda x: 0.0 <= x < math.inf):
    """``value`` as a Python float for which ``holds`` is true, by default
    a finite real >= 0.

    A bool (NumPy's too), str, None or any other non-real, an int beyond
    the float range, and a real outside the rule raise ``ValueError``:
    "``name`` must be ``rule``, got ``value``".  A NumPy scalar is converted.
    """
    real = None
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            real = float(value)
    if real is None or not holds(real):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return real


def as_float_array(name, value):
    """``value`` as a float64 array; complex input raises ``ValueError``
    naming ``name``, since the conversion would drop its imaginary part."""
    if np.iscomplexobj(value):
        raise ValueError(f"{name} is complex, got dtype {np.asarray(value).dtype}")
    return np.asarray(value, dtype=np.float64)


def as_matrix(name, value):
    """``value`` as a finite 2-D float64 array (:func:`as_float_array`); another ndim
    raises :class:`ShapeMismatchError`, NaN or inf :class:`NonFiniteInputError`."""
    value = as_float_array(name, value)
    if value.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got ndim={value.ndim}")
    if not np.isfinite(value).all():
        raise NonFiniteInputError(f"{name} contains non-finite values")
    return value


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by both solvers, checked when they are made.

    ``max_iters`` must be an integer >= 1, ``seed`` an integer and
    ``threads`` None or an integer >= 1 (:func:`as_integer`), and ``tol``
    a finite real >= 0 (:func:`as_real`); a NumPy scalar is kept as a
    Python number.  Anything else raises ``ValueError`` here, so a bad
    value fails before any work, and the options cannot be changed
    afterwards.  ``threads=None`` defers to DPAR2_THREADS or the usable CPUs.
    """

    max_iters: int = 32
    tol: float = 1e-6
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_iters", as_integer("max_iters", self.max_iters, 1))
        object.__setattr__(self, "seed", as_integer("seed", self.seed))
        object.__setattr__(self, "tol", as_real("tol", self.tol))
        if self.threads is not None:
            object.__setattr__(self, "threads", as_integer("threads", self.threads, 1))


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


@dataclass(eq=False, repr=False)
class Parafac2Factors:
    """Fitted factors H (R x R), V (J x R), W (K x R), and per-slice Q_k.
    Compared by identity (``==`` on arrays has no single truth value),
    with a short repr (one of every Q_k runs to megabytes)."""

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
    lines = Path(path).read_text().splitlines()
    if not any(line.strip() for line in lines):  # loadtxt would warn and give (0, 1)
        raise ArchiveFormatError(f"{path}: no values")
    matrix = np.loadtxt(lines, delimiter=",", ndmin=2, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise ArchiveFormatError(f"{path}: non-finite values")
    return matrix


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


@dataclass(eq=False, repr=False)
class FactorSet:
    """Factors reloaded from disk; U is the list of per-slice left factors.
    Compared by identity, with a short repr, as :class:`Parafac2Factors`."""

    H: np.ndarray
    V: np.ndarray
    W: np.ndarray
    U: list
    manifest: dict


def load_factors(path):
    """Read a directory written by :func:`save_factors`.

    Reads ``U_{k:04d}.csv`` for k below the manifest's ``num_slices``, so
    files left by an earlier, larger save are ignored.  A missing manifest,
    ``num_slices`` or U file, a manifest that is no JSON object, or a
    matrix file that is empty or holds NaN or inf, raises
    :class:`ArchiveFormatError` naming it.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise ArchiveFormatError(f"{path}: missing manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    num_slices = manifest.get("num_slices") if isinstance(manifest, dict) else None
    if type(num_slices) is not int or num_slices < 1:  # JSON true is no count
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
    """Small CSV writer used by reports; ``csv`` writes None as an empty cell and
    a float as its shortest repr, so equal values always serialize to equal bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
