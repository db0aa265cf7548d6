"""Factor quality and factor-space exploration.

``fitness`` scores a fitted model against the raw tensor.  The remaining
helpers treat the per-slice left factors U_k as points: a Gaussian-kernel
similarity graph over slices, k-nearest-neighbour queries on it, random
walk with restart for graph-aware ranking, and plain Pearson correlations
between the rows of V for inspecting feature structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import reconstruction_terms
from .errors import (DegenerateInputError, IndexOutOfRangeError, IsolatedNodeError, NumericFailure,
                     ShapeMismatchError)
from .factors import Parafac2Factors, as_integer, as_real
from .tensor import IrregularTensor

DEFAULT_GAMMA = 0.01


def fitness(tensor: IrregularTensor, factors: Parafac2Factors, threads=None):
    """1 - sum_k ||X_k - Xhat_k||_F^2 / sum_k ||X_k||_F^2.

    1 is a perfect fit; 0 means no better than predicting zero.  Raises on
    an all-zero tensor, where the ratio is undefined.  The residual terms
    are :func:`~dpar2.baseline.reconstruction_terms`, which checks the
    factor shapes against the tensor, then forms Q_k^T X_k and Q_k^T Q_k
    stack by stack in the ALS iteration's projection pass, and forms no
    I_k x J array.  Every term of both sums is scaled by 2^-e, 2^e just
    above the largest ||X_k||^2, before the sums are reduced, so each sum
    fits in a float wherever its terms do, and the ratio keeps its bits.  A
    sum that overflows all the same raises :class:`NumericFailure`.
    """
    x_sq = np.array(tensor.sq_norms)
    shift = -int(np.frexp(x_sq.max())[1])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        terms = reconstruction_terms(tensor, factors.Q, factors.H, factors.V, factors.W, threads)
        resid = np.add.reduce(np.ldexp(terms, shift))
        total = np.add.reduce(np.ldexp(x_sq, shift))
    if total == 0.0:
        raise DegenerateInputError("fitness undefined for an all-zero tensor")
    if not np.isfinite([resid, total]).all():
        raise NumericFailure("fitness sums are not finite")
    return float(1.0 - resid / total)


def _checked_gamma(gamma):
    """The kernel width as a float: a finite positive real, not a bool or
    str (``factors.as_real``), or similarities leave (0, 1]."""
    return as_real("gamma", gamma, "finite and > 0", lambda x: 0.0 < x < math.inf)


def similarity(u_a, u_b, gamma=DEFAULT_GAMMA):
    """exp(-gamma ||U_a - U_b||_F^2); 1 iff equal, in (0, 1] always.

    Raises ``ValueError`` unless ``gamma`` is a finite positive real (a
    bool or str is not a width).
    """
    gamma = _checked_gamma(gamma)
    u_a = np.asarray(u_a, dtype=np.float64)
    u_b = np.asarray(u_b, dtype=np.float64)
    if u_a.shape != u_b.shape:
        raise ShapeMismatchError(
            f"cannot compare factors of shapes {u_a.shape} and {u_b.shape}"
        )
    diff = u_a - u_b
    return float(np.exp(-gamma * np.dot(diff.ravel(), diff.ravel())))


@dataclass(eq=False)
class SimilarityGraph:
    """Dense symmetric adjacency over slices; zero diagonal, entries in [0, 1].
    Compared by identity, since ``==`` on arrays has no single truth value."""

    adjacency: np.ndarray
    gamma: float = DEFAULT_GAMMA

    @property
    def num_nodes(self):
        return self.adjacency.shape[0]


def build_similarity_graph(u_list, gamma=DEFAULT_GAMMA):
    """Pairwise Gaussian-kernel similarities between same-shape factors.

    All factors must share one shape; comparing slices with different row
    counts is undefined and raises naming the offending pair.  Every
    squared distance comes from one Gram matrix G of the flattened factors
    as G_aa + G_bb - 2 G_ab.  That expansion cannot resolve a distance
    below its rounding bound d eps (G_aa + G_bb), d the factor size, so
    such a distance is 0 and equal factors score exactly 1.  The upper
    triangle is mirrored so the adjacency is exactly symmetric.  Raises
    ``ValueError`` unless ``gamma`` is a finite positive real (a bool or
    str is not a width).
    """
    gamma = _checked_gamma(gamma)
    if len(u_list) < 1:
        raise ShapeMismatchError("need at least one factor")
    mats = [np.asarray(u, dtype=np.float64) for u in u_list]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ShapeMismatchError(
                f"factor 0 has shape {shape} but factor {i} has {m.shape}; "
                "similarity across different slice shapes is undefined"
            )
    flat = np.stack([m.ravel() for m in mats])
    g = flat @ flat.T
    sq = np.diag(g)
    both = sq[:, None] + sq[None, :]
    dist = both - 2.0 * g
    dist[dist <= flat.shape[1] * np.finfo(np.float64).eps * both] = 0.0
    upper = np.triu(np.exp(-gamma * dist), k=1)
    return SimilarityGraph(adjacency=upper + upper.T, gamma=gamma)


def knn(scores, target, k):
    """Indices of the k highest-scoring nodes other than ``target``.

    ``scores`` is either a 1-D score vector or a SimilarityGraph (its
    target row is used).  Ties break toward the lower index.  ``target``
    and ``k`` must be integers (a bool, float or str raises ``ValueError``),
    ``target`` in [0, n) (else :class:`IndexOutOfRangeError`, an ``IndexError``)
    and ``k`` in [0, n - 1].
    """
    target, k = as_integer("target", target), as_integer("k", k)
    graph = isinstance(scores, SimilarityGraph)
    scores = np.asarray(scores.adjacency if graph else scores, dtype=np.float64)
    n = scores.shape[0]
    if not 0 <= target < n:
        raise IndexOutOfRangeError(f"target {target} out of range [0, {n})")
    if graph:
        scores = scores[target]
    if k < 0 or k > n - 1:
        raise ValueError(f"k must be in [0, {n - 1}], got {k}")
    order = np.lexsort((np.arange(n), -scores))
    ranked = [int(i) for i in order if i != target]
    return ranked[:k]


@dataclass(frozen=True, eq=False)
class RwrParams:
    """Random-walk-with-restart settings, checked when they are made.

    ``query`` must be a probability vector (one-hot for single-node
    queries); :func:`rwr` checks it against the graph.  ``stop_tol=None``
    disables early stopping so exactly ``max_iters`` power steps run;
    otherwise iteration ends once the L1 change falls below the tolerance.
    The other fields are checked here: ``restart`` must be a real in (0, 1)
    and ``stop_tol`` None or a finite real >= 0 (``factors.as_real``), and
    ``max_iters`` an integer >= 1 (``factors.as_integer``); anything else
    raises ``ValueError``, and the settings cannot be changed afterwards.
    They compare and hash by identity, since ``query`` is an array.
    """

    restart: float = 0.15
    max_iters: int = 100
    stop_tol: float | None = 1e-10
    query: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        object.__setattr__(self, "restart", as_real(
            "restart", self.restart, "in (0, 1)", lambda x: 0.0 < x < 1.0))
        object.__setattr__(self, "max_iters", as_integer("max_iters", self.max_iters))
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.stop_tol is not None:
            object.__setattr__(self, "stop_tol", as_real(
                "stop_tol", self.stop_tol, "None or finite and >= 0",
                lambda x: 0.0 <= x < math.inf))


def rwr(graph: SimilarityGraph, params: RwrParams):
    """Stationary scores of r <- (1 - c) A~^T r + c q, started at r = q.

    A~ is the row-normalized adjacency; a zero row (isolated node) makes
    normalization impossible and raises.  Row-stochastic A~ keeps every
    iterate on the probability simplex.  A non-square adjacency raises
    :class:`ShapeMismatchError`, and a non-finite or negative entry
    ``ValueError``.
    """
    a = np.asarray(graph.adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"adjacency must be square, got shape {a.shape}")
    if not (np.isfinite(a) & (a >= 0.0)).all():
        raise ValueError("adjacency entries must be finite and nonnegative")
    n = a.shape[0]
    c = params.restart
    q = np.asarray(params.query, dtype=np.float64)
    if q.shape != (n,):
        raise ShapeMismatchError(f"query has shape {q.shape}, graph has {n} nodes")
    if (q < 0).any() or abs(float(q.sum()) - 1.0) > 1e-12:
        raise ValueError("query must be a probability vector")
    if n == 1:
        return q.copy()
    row_sums = a.sum(axis=1)
    dead = np.flatnonzero(row_sums == 0.0)
    if dead.size:
        raise IsolatedNodeError(f"node {int(dead[0])} has zero total similarity")
    walk = (a / row_sums[:, None]).T
    r = q.copy()
    for _ in range(params.max_iters):
        r_next = (1.0 - c) * (walk @ r) + c * q
        if params.stop_tol is not None and float(np.abs(r_next - r).sum()) < params.stop_tol:
            return r_next
        r = r_next
    return r


def pcc_matrix(v):
    """Pearson correlations between the rows of ``v`` (feature-by-feature).

    A row whose entries are all equal has zero variance, so its
    correlations are undefined: :class:`DegenerateInputError` names the
    first such row.  Every row of a rank-1 V is one.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ShapeMismatchError("need a 2-D matrix with at least two rows")
    flat = np.flatnonzero(v.min(axis=1) == v.max(axis=1))
    if flat.size:
        raise DegenerateInputError(f"row {int(flat[0])} of V has zero variance; "
                                   "its correlations are undefined")
    return np.corrcoef(v)
