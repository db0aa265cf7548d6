"""Fitness, similarity graphs, nearest neighbours, restart walks, correlations."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar2.baseline
from dpar2.analysis import (
    RwrParams,
    SimilarityGraph,
    build_similarity_graph,
    fitness,
    knn,
    pcc_matrix,
    rwr,
    similarity,
)
from dpar2.baseline import fit_baseline, reconstruction_error
from dpar2.errors import (DegenerateInputError, IndexOutOfRangeError, IsolatedNodeError,
                          NonFiniteInputError, NumericFailure, ShapeMismatchError)
from dpar2.factors import Parafac2Factors, SolverOptions
from dpar2.solver import fit_dpar2
from dpar2.tensor import MODE_PLANTED, IrregularTensor, SyntheticSpec, generate


def exact_factors_for(seed=0, rows=(6, 4, 5), cols=7, rank=2):
    rng = np.random.Generator(np.random.PCG64(seed))
    h = rng.standard_normal((rank, rank))
    v = rng.standard_normal((cols, rank))
    w = rng.standard_normal((len(rows), rank))
    qs = []
    for r in rows:
        q, _ = np.linalg.qr(rng.standard_normal((r, rank)))
        qs.append(q)
    factors = Parafac2Factors(H=h, V=v, W=w, Q=qs)
    t = IrregularTensor([factors.reconstruct_slice(k) for k in range(len(rows))])
    return t, factors


class TestFitness:
    def test_exact_fit_scores_one(self):
        t, factors = exact_factors_for(0)
        assert fitness(t, factors) == pytest.approx(1.0, abs=1e-12)

    def test_zero_factors_score_zero(self):
        t, factors = exact_factors_for(1)
        zeros = Parafac2Factors(H=np.zeros_like(factors.H), V=factors.V,
                                W=factors.W, Q=factors.Q)
        assert fitness(t, zeros) == pytest.approx(0.0, abs=1e-12)

    def test_matches_elementwise_oracle(self):
        t = generate(SyntheticSpec(rows=12, cols=8, num_slices=4, mode=MODE_PLANTED,
                                   true_rank=2, noise_level=0.4, seed=2))
        factors, _ = fit_baseline(t, 2, SolverOptions(max_iters=4))
        num = 0.0
        den = 0.0
        for k in range(4):
            x = t.slices[k]
            model = (factors.Q[k] @ (factors.H * factors.W[k])) @ factors.V.T
            for i in range(x.shape[0]):
                for j in range(x.shape[1]):
                    num += (x[i, j] - model[i, j]) ** 2
                    den += x[i, j] ** 2
        assert fitness(t, factors) == pytest.approx(1.0 - num / den, abs=1e-12)

    def test_all_zero_tensor_rejected(self):
        t = IrregularTensor([np.zeros((3, 4)), np.zeros((2, 4))])
        _, factors = exact_factors_for(3, rows=(3, 2), cols=4)
        with pytest.raises(DegenerateInputError):
            fitness(t, factors)

    def test_total_norm_that_overflows_is_rescaled(self):
        # Every ||X_k||^2 is finite but their sum is not: the score was 1.0,
        # after an overflow warning.  Scaling X and H by 2^-510 is exact, so
        # the score must equal the scaled problem's bit for bit.
        rng = np.random.default_rng(0)
        unit = IrregularTensor([rng.random((rows, 8)) for rows in (12, 9, 15)])
        t = IrregularTensor([x * 10.0**153.125 for x in unit.slices])
        assert t.total_sq_norm() == np.inf
        factors, _ = fit_baseline(t, 2, SolverOptions(threads=1))
        small = IrregularTensor([np.ldexp(x, -510) for x in t.slices])
        score = fitness(t, factors)
        assert score == fitness(small, replace(factors, H=np.ldexp(factors.H, -510)))
        unit_factors, _ = fit_baseline(unit, 2, SolverOptions(threads=1))
        assert score == pytest.approx(fitness(unit, unit_factors), abs=1e-12)

    def test_residual_sum_that_overflows_is_rescaled(self):
        # Each ||X_k||^2 is 1.6e308 and the residual terms are finite, but
        # their sum is not: each term is scaled before the reduce, so the
        # score keeps the bits of the same fit at a quarter of the scale.
        rng = np.random.default_rng(1)
        unit = [rng.standard_normal((rows, 8)) for rows in (12, 9, 15)]
        t = IrregularTensor([x * np.sqrt(4e307 / np.sum(x * x)) for x in unit])
        factors, _ = fit_dpar2(t, 1, SolverOptions(max_iters=10, threads=1))
        doubled = IrregularTensor([2.0 * x for x in t.slices])
        score = fitness(doubled, replace(factors, W=2.0 * factors.W))
        assert score == fitness(t, factors)
        assert float.hex(score) == "0x1.92560c1a9ce24p-3"

    def test_slice_norm_that_overflows_raises(self):
        t, factors = exact_factors_for(0)
        huge = IrregularTensor([x * 1e160 for x in t.slices])
        with pytest.raises(NumericFailure, match="fitness sums are not finite"):
            fitness(huge, factors)

    def test_slice_count_mismatch(self):
        t, factors = exact_factors_for(4)
        short = IrregularTensor(list(t.slices[:2]))
        with pytest.raises(ShapeMismatchError):
            fitness(short, factors)

    def test_swapped_slice_factors_name_the_slice(self, monkeypatch):
        t, factors = exact_factors_for(5, rows=(6, 4))
        swapped = Parafac2Factors(H=factors.H, V=factors.V, W=factors.W,
                                  Q=factors.Q[::-1])
        monkeypatch.setattr(dpar2.baseline, "map_stacks", no_pass_over_x)
        with pytest.raises(ShapeMismatchError, match="Q_0 has 4 rows, but slice 0 has 6"):
            fitness(t, swapped)
        with pytest.raises(ShapeMismatchError, match="slice 0"):
            reconstruction_error(t, swapped.Q, factors.H, factors.V, factors.W)

    def test_wrong_v_rows(self, monkeypatch):
        t, factors = exact_factors_for(6, cols=7)
        short_v = Parafac2Factors(H=factors.H, V=factors.V[:5], W=factors.W, Q=factors.Q)
        monkeypatch.setattr(dpar2.baseline, "map_stacks", no_pass_over_x)
        with pytest.raises(ShapeMismatchError, match="V has 5 rows, tensor has 7 columns"):
            fitness(t, short_v)
        with pytest.raises(ShapeMismatchError, match="V has 5 rows"):
            reconstruction_error(t, factors.Q, factors.H, short_v.V, factors.W)

    @pytest.mark.parametrize("name", ["Q_1", "V", "W", "H"])
    def test_wrong_factor_shape_names_the_factor(self, monkeypatch, name):
        t, f = exact_factors_for(7)
        q = list(f.Q)
        q[1] = np.hstack([q[1], q[1][:, :1]])  # R + 1 columns
        wrong = replace(f, **{"Q_1": {"Q": q},
                              "V": {"V": np.hstack([f.V, f.V[:, :1]])},  # R + 1 columns
                              "W": {"W": np.vstack([f.W, f.W[:1]])},  # K + 1 rows
                              "H": {"H": np.vstack([f.H, f.H[:1]])}}[name])  # (R + 1) x R
        monkeypatch.setattr(dpar2.baseline, "map_stacks", no_pass_over_x)
        with pytest.raises(ShapeMismatchError, match=f"{name} has shape"):
            fitness(t, wrong)
        with pytest.raises(ShapeMismatchError, match=f"{name} has shape"):
            reconstruction_error(t, wrong.Q, wrong.H, wrong.V, wrong.W)


def no_pass_over_x(*args, **kwargs):
    raise AssertionError("shapes must be checked before the pass over X")


def non_orthonormal_case():
    rng = np.random.Generator(np.random.PCG64(9))
    rows, cols, rank = (8, 3, 11), 6, 2
    factors = Parafac2Factors(H=rng.standard_normal((rank, rank)),
                              V=rng.standard_normal((cols, rank)),
                              W=rng.standard_normal((len(rows), rank)),
                              Q=[rng.standard_normal((r, rank)) for r in rows])
    return IrregularTensor([rng.standard_normal((r, cols)) for r in rows]), factors


def noisy_fit_case():
    t = generate(SyntheticSpec(rows=12, cols=8, num_slices=4, mode=MODE_PLANTED,
                               true_rank=2, noise_level=0.4, seed=2))
    return t, fit_baseline(t, 2, SolverOptions(max_iters=4))[0]


@pytest.mark.parametrize("case", [non_orthonormal_case, exact_factors_for, noisy_fit_case],
                         ids=["non_orthonormal_q", "exact_fit", "noisy_fit"])
def test_fitness_matches_materialized_residual(case):
    t, factors = case()
    direct = sum(np.linalg.norm(x - factors.reconstruct_slice(k)) ** 2
                 for k, x in enumerate(t.slices))
    got = fitness(t, factors, threads=2)
    assert got <= 1.0
    assert abs(got - (1.0 - direct / t.total_sq_norm())) <= 1e-9


class TestSimilarity:
    def test_identical_factors_score_one(self):
        u = np.arange(12.0).reshape(4, 3)
        assert similarity(u, u.copy()) == 1.0

    def test_closed_form(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        # ||a - b||_F^2 = 4
        assert similarity(a, b, gamma=0.5) == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_symmetry_and_range(self):
        rng = np.random.Generator(np.random.PCG64(5))
        a, b = rng.standard_normal((2, 5, 3))
        s = similarity(a, b)
        assert s == similarity(b, a)
        assert 0.0 < s <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            similarity(np.zeros((2, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf, True, np.True_])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        # gamma -1 scored 1.213 and nan scored nan, outside (0, 1]; True
        # scored as gamma 1.0.
        mats = [np.zeros((2, 2)), np.ones((2, 2))]
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            similarity(*mats, gamma=gamma)
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            build_similarity_graph(mats, gamma=gamma)

    def test_graph_structure(self):
        rng = np.random.Generator(np.random.PCG64(6))
        mats = [rng.standard_normal((4, 2)) for _ in range(6)]
        graph = build_similarity_graph(mats, gamma=0.3)
        adj = graph.adjacency
        assert adj.shape == (6, 6)
        assert np.allclose(adj, adj.T)
        assert np.all(np.diag(adj) == 0.0)
        assert adj[1, 4] == pytest.approx(similarity(mats[1], mats[4], 0.3), rel=1e-14)

    def test_graph_matches_pairwise_similarity(self):
        # At this magnitude the Gram expansion's rounding error is several
        # ulps of ||a||^2, yet a duplicated factor must still score exactly 1.
        for seed in range(8):
            rng = np.random.Generator(np.random.PCG64(seed))
            mats = [10.0 * rng.standard_normal((11, 11)) for _ in range(12)]
            mats[10] = mats[6].copy()
            adj = build_similarity_graph(mats).adjacency
            assert adj[6, 10] == 1.0 and adj[10, 6] == 1.0, seed
            for i in range(12):
                for j in range(12):
                    want = 0.0 if i == j else similarity(mats[i], mats[j])
                    assert adj[i, j] == pytest.approx(want, rel=1e-12, abs=0.0), (seed, i, j)

    def test_graph_of_no_factors_is_rejected(self):
        with pytest.raises(ShapeMismatchError, match="need at least one factor"):
            build_similarity_graph([])

    def test_graph_cross_shape_error_names_pair(self):
        mats = [np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((4, 2))]
        with pytest.raises(ShapeMismatchError, match="factor 2"):
            build_similarity_graph(mats)


class TestKnn:
    def test_excludes_target_and_orders_by_score(self):
        scores = np.array([0.1, 0.9, 0.9, 0.4, 1.0])
        assert knn(scores, target=4, k=3) == [1, 2, 3]

    def test_tie_breaks_toward_lower_index(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert knn(scores, target=2, k=3) == [0, 1, 3]

    def test_graph_input_uses_target_row(self):
        adj = np.array([[0.0, 0.8, 0.2], [0.8, 0.0, 0.6], [0.2, 0.6, 0.0]])
        graph = SimilarityGraph(adjacency=adj)
        assert knn(graph, target=2, k=2) == [1, 0]

    def test_zero_k_returns_empty(self):
        assert knn(np.array([1.0, 2.0]), target=0, k=0) == []

    def test_bounds_checks(self):
        with pytest.raises(ValueError):
            knn(np.array([1.0, 2.0]), target=0, k=2)
        with pytest.raises(IndexError):
            knn(np.array([1.0, 2.0]), target=5, k=1)

    @pytest.mark.parametrize("target", [99, -1])
    def test_graph_target_out_of_range_is_checked_before_the_row_is_read(self, target):
        # 99 raised numpy's "index 99 is out of bounds", and -1 read the
        # last row, before the range check.
        for scores in (np.array([0.1, 0.9, 0.5]), ring_graph(3)):
            with pytest.raises(IndexOutOfRangeError, match=rf"target {target} out of range \[0, 3\)"):
                knn(scores, target, 1)

    @pytest.mark.parametrize("scores, error", [
        (np.ones((3, 3)), ShapeMismatchError),  # failed inside np.lexsort
        (np.float64(1.0), ShapeMismatchError),  # a bare IndexError
        (SimilarityGraph(adjacency=np.ones((3, 4))), ShapeMismatchError),
        (SimilarityGraph(adjacency=np.ones(3)), ShapeMismatchError),
        (np.array([0.1, np.nan, 0.5]), NonFiniteInputError),  # ranked without an error
        (SimilarityGraph(adjacency=np.array([[0.0, np.inf], [1.0, 0.0]])), NonFiniteInputError),
    ], ids=["2-D scores", "0-D scores", "non-square graph", "1-D graph", "nan score",
            "inf in the target row"])
    def test_scores_are_checked_for_shape_then_finiteness(self, scores, error):
        with pytest.raises(error):
            knn(scores, target=0, k=1)

    def test_complex_scores_raise(self):
        # [1+5j, 2, 0.5] ranked as [1, 2, 0.5], with only a ComplexWarning.
        with pytest.raises(ValueError, match="^scores is complex"):
            knn(np.array([1 + 5j, 2, 0.5]), 2, 2)

    def test_bool_k_is_no_count(self):
        # True counted as one neighbour.
        graph = ring_graph(3)
        with pytest.raises(ValueError, match="k must be an integer"):
            knn(graph, 0, True)

    def test_float_k_is_no_count(self):
        # 1.5 failed as a TypeError in the slice of the ranking.
        graph = ring_graph(3)
        with pytest.raises(ValueError, match="k must be an integer"):
            knn(graph, 0, 1.5)

    def test_bool_target_is_no_node(self):
        # True stood for node 1 in a score vector, and indexed a graph's
        # adjacency as a mask, failing as "out of range [0, 1)".
        for scores in (np.array([0.1, 0.9, 0.5]), ring_graph(3)):
            with pytest.raises(ValueError, match="target must be an integer"):
                knn(scores, True, 1)

    def test_numpy_integer_k_counts(self):
        assert knn(np.array([0.1, 0.9, 0.5]), target=0, k=np.int64(1)) == [1]

    def test_matches_full_sort_oracle(self):
        rng = np.random.Generator(np.random.PCG64(8))
        scores = rng.random(100)
        got = knn(scores, target=17, k=99)
        pairs = sorted(
            ((-scores[i], i) for i in range(100) if i != 17),
        )
        want = [i for _, i in pairs]
        assert got == want


def ring_graph(n, weight=1.0):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = weight
        adj[(i + 1) % n, i] = weight
    return SimilarityGraph(adjacency=adj)


def rwr_closed_form(graph, restart, query):
    """Direct linear solve of (I - (1-c) A~^T) r = c q."""
    a = graph.adjacency
    walk = (a / a.sum(axis=1)[:, None]).T
    n = a.shape[0]
    return np.linalg.solve(np.eye(n) - (1.0 - restart) * walk, restart * query)


class TestRwr:
    def test_single_node_returns_query(self):
        graph = SimilarityGraph(adjacency=np.zeros((1, 1)))
        out = rwr(graph, RwrParams(query=np.array([1.0])))
        assert out.tolist() == [1.0]

    def test_two_node_closed_form(self):
        # One symmetric edge: both rows normalize to swaps, so the stationary
        # point is [1 / (2 - c), (1 - c) / (2 - c)].
        c = 0.15
        graph = SimilarityGraph(adjacency=np.array([[0.0, 0.7], [0.7, 0.0]]))
        out = rwr(graph, RwrParams(restart=c, max_iters=500, stop_tol=None,
                                   query=np.array([1.0, 0.0])))
        want = np.array([1.0 / (2.0 - c), (1.0 - c) / (2.0 - c)])
        assert np.abs(out - want).max() <= 1e-9
        solve = rwr_closed_form(graph, c, np.array([1.0, 0.0]))
        assert np.abs(out - solve).max() <= 1e-9

    def test_matches_linear_solve_on_random_graph(self):
        rng = np.random.Generator(np.random.PCG64(9))
        n = 12
        adj = rng.random((n, n))
        adj = (adj + adj.T) / 2
        np.fill_diagonal(adj, 0.0)
        graph = SimilarityGraph(adjacency=adj)
        q = np.zeros(n)
        q[3] = 1.0
        out = rwr(graph, RwrParams(max_iters=500, stop_tol=None, query=q))
        want = rwr_closed_form(graph, 0.15, q)
        assert np.abs(out - want).max() <= 1e-12

    def test_iterates_stay_on_simplex(self):
        graph = ring_graph(7, weight=0.4)
        q = np.zeros(7)
        q[0] = 1.0
        for iters in (1, 3, 10, 50):
            out = rwr(graph, RwrParams(max_iters=iters, stop_tol=None, query=q))
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            assert (out >= 0).all()

    def test_early_stop_matches_exhaustive_run(self):
        graph = ring_graph(5)
        q = np.zeros(5)
        q[2] = 1.0
        eager = rwr(graph, RwrParams(max_iters=100, stop_tol=1e-10, query=q))
        full = rwr(graph, RwrParams(max_iters=2000, stop_tol=None, query=q))
        assert np.abs(eager - full).max() <= 1e-8

    def test_isolated_node_raises(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        with pytest.raises(IsolatedNodeError, match="node 2"):
            rwr(SimilarityGraph(adjacency=adj), RwrParams(query=np.array([1.0, 0.0, 0.0])))

    @pytest.mark.parametrize("adj, error", [
        (np.ones((2, 3)), ShapeMismatchError),
        (np.array([[0.0, np.nan], [1.0, 0.0]]), ValueError),
        (np.array([[0.0, np.inf], [1.0, 0.0]]), ValueError),
        (np.array([[0.0, -0.5], [1.0, 0.0]]), ValueError),
    ], ids=["non-square", "nan", "inf", "negative"])
    def test_rejects_malformed_adjacency(self, adj, error):
        # A NaN returned [nan, nan], a negative entry was normalized as a
        # weight, and a non-square adjacency failed inside numpy.
        with pytest.raises(error):
            rwr(SimilarityGraph(adjacency=adj), RwrParams(query=np.array([1.0, 0.0])))

    def test_rejects_bad_restart_and_query(self):
        graph = ring_graph(3)
        with pytest.raises(ValueError):
            rwr(graph, RwrParams(restart=0.0, query=np.array([1.0, 0.0, 0.0])))
        with pytest.raises(ValueError):
            rwr(graph, RwrParams(query=np.array([0.5, 0.2, 0.2])))
        with pytest.raises(ValueError, match="query must be a probability vector"):
            rwr(graph, RwrParams(query=np.array([np.nan, 1.0, 0.0])))  # gave NaN scores
        with pytest.raises(ShapeMismatchError):
            rwr(graph, RwrParams(query=np.array([1.0, 0.0])))

    def test_complex_query_raises(self):
        # [1+1j, 0] walked as [1, 0], with only a ComplexWarning.
        with pytest.raises(ValueError, match="^query is complex"):
            rwr(ring_graph(2), RwrParams(query=np.array([1 + 1j, 0])))

    @pytest.mark.parametrize("iters", [0, -3])
    def test_rejects_fewer_than_one_step(self, iters):
        # Zero steps returned the query itself as the scores.
        for graph, q in ((ring_graph(3), np.array([1.0, 0.0, 0.0])),
                         (SimilarityGraph(adjacency=np.zeros((1, 1))), np.array([1.0]))):
            with pytest.raises(ValueError, match="max_iters must be >= 1"):
                rwr(graph, RwrParams(max_iters=iters, query=q))

    def test_bool_max_iters_raises(self):
        # True ran one power step.
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            RwrParams(max_iters=True)

    def test_float_max_iters_raises(self):
        # 2.5 failed as a TypeError in range() only once the walk started.
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            RwrParams(max_iters=2.5)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
    def test_stop_tol_must_be_finite_and_non_negative(self, tol):
        # NaN and -1.0 silently turned early stopping off.
        with pytest.raises(ValueError, match="stop_tol must be None or finite and >= 0"):
            RwrParams(stop_tol=tol)

    def test_checked_settings_are_kept(self):
        params = RwrParams(max_iters=np.int64(7), stop_tol=0.0)
        assert type(params.max_iters) is int and params.max_iters == 7
        assert RwrParams(stop_tol=None).stop_tol is None
        with pytest.raises(AttributeError):
            params.max_iters = 0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 10 ** 6))
    def test_property_agrees_with_solve(self, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        adj = rng.random((n, n)) + 0.01
        adj = (adj + adj.T) / 2
        np.fill_diagonal(adj, 0.0)
        graph = SimilarityGraph(adjacency=adj)
        q = np.zeros(n)
        q[int(rng.integers(n))] = 1.0
        out = rwr(graph, RwrParams(max_iters=400, stop_tol=None, query=q))
        want = rwr_closed_form(graph, 0.15, q)
        assert np.abs(out - want).max() <= 1e-10


class TestPcc:
    def test_matches_manual_formula(self):
        rng = np.random.Generator(np.random.PCG64(10))
        v = rng.standard_normal((5, 9))
        got = pcc_matrix(v)
        for i in range(5):
            for j in range(5):
                a = v[i] - v[i].mean()
                b = v[j] - v[j].mean()
                want = float(a @ b / np.sqrt((a @ a) * (b @ b)))
                assert got[i, j] == pytest.approx(want, abs=1e-12)

    def test_diagonal_is_one(self):
        v = np.random.default_rng(11).standard_normal((4, 6))
        assert np.allclose(np.diag(pcc_matrix(v)), 1.0)

    def test_needs_two_rows(self):
        with pytest.raises(ShapeMismatchError):
            pcc_matrix(np.ones((1, 5)))

    @pytest.mark.parametrize("v, row", [(np.arange(4.0)[:, None], 0),
                                        ([[1.0, 2.0, 3.0], [0.1, 0.1, 0.1], [2.0, 2.0, 2.0]], 1)],
                             ids=["rank-1", "constant-rows"])
    def test_row_without_variance_is_named(self, v, row):
        # Its correlations are nan; a rank-1 V has only such rows.
        with pytest.raises(DegenerateInputError, match=f"^row {row} of V has zero variance"):
            pcc_matrix(v)
