"""Uncompressed alternating solver: unfoldings, sweep algebra, convergence."""
import importlib

import numpy as np
import pytest

import dpar2
from dpar2.baseline import (
    als_sweep,
    cp_als_step,
    fit_baseline,
    reconstruction_error,
    residual_terms,
    unfold_mode1,
    unfold_mode2,
    unfold_mode3,
)
from dpar2.errors import NonFiniteInputError, NumericFailure, RankTooLargeError
from dpar2.factors import SolverOptions, initial_factors
from dpar2.linalg import khatri_rao, pinv_small, truncated_svd
from dpar2.tensor import MODE_PLANTED, IrregularTensor, SyntheticSpec, generate

baseline_module = importlib.import_module("dpar2.baseline")


def cp_cores(h, v, w):
    """Exact core slices Y_k = H diag(W[k]) V^T."""
    return [(h * w[k]) @ v.T for k in range(w.shape[0])]


def random_factors(seed, rank=3, cols=6, num=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.standard_normal((rank, rank)),
            rng.standard_normal((cols, rank)),
            rng.standard_normal((num, rank)))


class TestUnfoldings:
    def test_mode1_columns_are_core_columns(self):
        h, v, w = random_factors(0)
        cores = cp_cores(h, v, w)
        y1 = unfold_mode1(cores)
        k, j = 2, 4
        assert np.allclose(y1[:, k * v.shape[0] + j], cores[k][:, j])

    def test_mode1_equals_model_times_khatri_rao(self):
        h, v, w = random_factors(1)
        y1 = unfold_mode1(cp_cores(h, v, w))
        assert np.allclose(y1, h @ khatri_rao(w, v).T, atol=1e-12)

    def test_mode2_equals_model_times_khatri_rao(self):
        h, v, w = random_factors(2)
        y2 = unfold_mode2(cp_cores(h, v, w))
        assert np.allclose(y2, v @ khatri_rao(w, h).T, atol=1e-12)

    def test_mode3_equals_model_times_khatri_rao(self):
        h, v, w = random_factors(3)
        y3 = unfold_mode3(cp_cores(h, v, w))
        assert np.allclose(y3, w @ khatri_rao(v, h).T, atol=1e-12)

    def test_mode1_mttkrp_against_triple_loop(self):
        rng = np.random.Generator(np.random.PCG64(4))
        rank, cols, num = 3, 5, 4
        cores = [rng.standard_normal((rank, cols)) for _ in range(num)]
        _, v, w = random_factors(5, rank, cols, num)
        want = np.zeros((rank, rank))
        for r in range(rank):
            for i in range(rank):
                for k in range(num):
                    for j in range(cols):
                        want[i, r] += cores[k][i, j] * w[k, r] * v[j, r]
        got = unfold_mode1(cores) @ khatri_rao(w, v)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestCpStep:
    def test_scalar_closed_form(self):
        # one slice, rank one: the H solve is y w v / (w^2 v^2)
        y = np.array([[5.0, 7.0]])
        v = np.array([[2.0], [1.0]])
        w = np.array([[3.0]])
        h = np.array([[1.0]])
        h2, _, _ = cp_als_step([y], h, v, w)
        want = (5 * 3 * 2 + 7 * 3 * 1) / (9 * 5)
        assert abs(h2[0, 0] - want) <= 1e-12

    def test_exact_model_is_fixed_point(self):
        h, v, w = random_factors(6)
        cores = cp_cores(h, v, w)
        h2, v2, w2 = cp_als_step(cores, h, v, w)
        for k, y in enumerate(cores):
            assert np.linalg.norm((h2 * w2[k]) @ v2.T - y) <= 1e-10

    def test_normalization_preserves_model(self):
        h, v, w = random_factors(7)
        cores = cp_cores(h, v, w)
        h2, v2, w2 = cp_als_step(cores, h, v, w, normalize=True)
        h3, v3, w3 = cp_als_step(cores, h, v, w, normalize=False)
        for k in range(w.shape[0]):
            assert np.allclose((h2 * w2[k]) @ v2.T, (h3 * w3[k]) @ v3.T, atol=1e-9)
        assert np.allclose(np.linalg.norm(h2, axis=0), 1.0)
        assert np.allclose(np.linalg.norm(v2, axis=0), 1.0)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_normal_equations_on_unfoldings(self, normalize):
        # Random cores that no CP model fits exactly, so every solve matters.
        rng = np.random.Generator(np.random.PCG64(13))
        rank, cols, num = 3, 7, 5
        cores = [rng.standard_normal((rank, cols)) for _ in range(num)]
        h, v, w = random_factors(14, rank, cols, num)

        def solve(unfolded, left, right):
            return unfolded @ khatri_rao(left, right) @ np.linalg.inv(
                (left.T @ left) * (right.T @ right))

        def unit_cols(a, b):
            norms = np.linalg.norm(a, axis=0)
            return a / norms, b * norms

        want_h = solve(unfold_mode1(cores), w, v)
        want_w = w
        if normalize:
            want_h, want_w = unit_cols(want_h, want_w)
        want_v = solve(unfold_mode2(cores), want_w, want_h)
        if normalize:
            want_v, want_w = unit_cols(want_v, want_w)
        want_w = solve(unfold_mode3(cores), want_v, want_h)
        got = cp_als_step(cores, h, v, w, normalize=normalize)
        for a, b in zip(got, (want_h, want_v, want_w)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_sweep_is_a_numeric_failure(self):
        # Finite cores whose Gram products overflow fail as numerics, not as
        # bad input; pinv_small called directly still rejects the input.
        h, v, w = random_factors(8)
        cores = [y * 1e160 for y in cp_cores(h, v, w)]
        with pytest.raises(NumericFailure, match="ALS sweep"):
            cp_als_step(cores, h, v, w)
        with pytest.raises(NonFiniteInputError):
            pinv_small(np.full((3, 3), np.inf))


class TestFitBaseline:
    def test_rank_one_exact_model_converges_fast(self):
        rng = np.random.Generator(np.random.PCG64(8))
        v = rng.standard_normal(7)
        slices = []
        for rows in (9, 5, 12):
            q, _ = np.linalg.qr(rng.standard_normal((rows, 1)))
            slices.append(np.outer(q[:, 0] * rng.uniform(1, 2), v))
        t = IrregularTensor(slices)
        factors, trace = fit_baseline(t, 1, SolverOptions(max_iters=10, tol=0.0))
        assert trace.objective[-1] <= 1e-12 * t.total_sq_norm()

    def test_planted_noiseless_recovery(self):
        t = generate(SyntheticSpec(rows=30, cols=15, num_slices=8, mode=MODE_PLANTED,
                                   true_rank=3, seed=1))
        factors, trace = fit_baseline(t, 3, SolverOptions(max_iters=32, tol=0.0))
        assert dpar2.fitness(t, factors) >= 0.999

    def test_objective_non_increasing(self):
        # Random shapes, then degenerate inputs: an all-zero slice, a rank-1
        # slice, R = min(I_k, J), tiny values.
        rng = np.random.Generator(np.random.PCG64(9))
        cases = []
        for _ in range(50):
            counts = rng.integers(3, 10, size=int(rng.integers(2, 5)))
            cols = int(rng.integers(3, 8))
            rank = int(rng.integers(1, min(3, cols) + 1))
            cases.append(([rng.random((int(c), cols)) for c in counts], rank))
        first, last = rng.random((8, 6)), rng.random((9, 6))
        cases += [
            ([first, np.zeros((7, 6)), last], 3),
            ([first, np.outer(rng.random(7), rng.random(6)), last], 3),
            ([rng.random((rows, 4)) for rows in (4, 9, 7)], 4),
            ([x * 1e-150 for x in (first, rng.random((7, 6)), last)], 3),
        ]
        for case, (slices, rank) in enumerate(cases):
            factors, trace = fit_baseline(IrregularTensor(slices), rank,
                                          SolverOptions(max_iters=8, tol=0.0))
            for a in (factors.H, factors.V, factors.W, *factors.Q):
                assert np.isfinite(a).all(), f"case {case}"
            for q in factors.Q:
                assert np.abs(q.T @ q - np.eye(rank)).max() <= 1e-8, f"case {case}"
            # 1e-9 for entries in [0, 1), scaled with the tiny-value case
            slack = 1e-9 * max(np.abs(x).max() for x in slices) ** 2
            diffs = np.diff(trace.objective)
            assert (diffs <= slack).all(), f"case {case}: objective rose by {diffs.max()}"

    def test_orthonormal_q_after_fit(self):
        t = generate(SyntheticSpec(rows=12, cols=8, num_slices=5, mode=MODE_PLANTED,
                                   true_rank=2, noise_level=0.3, seed=2))
        factors, _ = fit_baseline(t, 2, SolverOptions(max_iters=4))
        for q in factors.Q:
            assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-8

    def test_early_stop_on_tolerance(self):
        t = generate(SyntheticSpec(rows=20, cols=10, num_slices=4, mode=MODE_PLANTED,
                                   true_rank=2, seed=3))
        _, loose = fit_baseline(t, 2, SolverOptions(max_iters=32, tol=0.05))
        assert loose.converged
        assert loose.iterations == 2
        _, strict = fit_baseline(t, 2, SolverOptions(max_iters=32, tol=0.0))
        assert not strict.converged
        assert strict.iterations == 32

    def test_rank_too_large(self):
        t = IrregularTensor([np.ones((3, 6)), np.ones((8, 6))])
        with pytest.raises(RankTooLargeError):
            fit_baseline(t, 4)

    def test_rank_above_a_slice_names_it(self):
        t = IrregularTensor([np.ones((8, 6)), np.ones((3, 6)), np.ones((8, 6))])
        with pytest.raises(RankTooLargeError, match="slice 1"):
            fit_baseline(t, 4)

    def test_thread_counts_agree_bitwise(self):
        t = generate(SyntheticSpec(rows=14, cols=9, num_slices=6, mode=MODE_PLANTED,
                                   true_rank=2, noise_level=0.2, seed=5))
        runs = [fit_baseline(t, 2, SolverOptions(max_iters=5, tol=0.0, threads=n))
                for n in (1, 2, 8)]
        ref = runs[0][0]
        for factors, _ in runs[1:]:
            assert factors.H.tobytes() == ref.H.tobytes()
            assert factors.V.tobytes() == ref.V.tobytes()
            assert factors.W.tobytes() == ref.W.tobytes()
            for qa, qb in zip(factors.Q, ref.Q):
                assert qa.tobytes() == qb.tobytes()

    def test_reconstruction_error_matches_direct_sum(self):
        t = generate(SyntheticSpec(rows=10, cols=7, num_slices=3, mode=MODE_PLANTED,
                                   true_rank=2, noise_level=0.5, seed=6))
        factors, trace = fit_baseline(t, 2, SolverOptions(max_iters=3, tol=0.0))
        direct = sum(
            np.linalg.norm(t.slices[k] - factors.reconstruct_slice(k)) ** 2
            for k in range(3)
        )
        assert abs(trace.objective[-1] - direct) <= 1e-9 * max(direct, 1.0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_last_objective_is_the_returned_residual_bitwise(self, threads):
        # The last objective is formed from the returned Q, H, V, W, so it
        # is the residual of the returned factors, not an approximation.
        t = generate(SyntheticSpec(rows=16, cols=9, num_slices=7, mode=MODE_PLANTED,
                                   true_rank=3, noise_level=0.4, seed=8))
        f, trace = fit_baseline(t, 3, SolverOptions(max_iters=4, tol=0.0, threads=threads))
        last = trace.objective[-1]
        assert reconstruction_error(t, f.Q, f.H, f.V, f.W, threads=threads) == last
        total = float(np.add.reduce(np.array(t.sq_norms)))
        assert dpar2.fitness(t, f, threads=threads) == 1.0 - last / total


def residual_case(name):
    """A tensor and factors for checking the residual expansion against a
    materialized sum: random non-orthonormal Q, an exact fit, or a noisy fit."""
    rng = np.random.Generator(np.random.PCG64(10))
    rows, cols, rank = (9, 4, 13, 6), 7, 3
    if name == "noisy_fit":
        t = generate(SyntheticSpec(rows=14, cols=cols, num_slices=5, mode=MODE_PLANTED,
                                   true_rank=rank, noise_level=0.3, seed=11))
        f, _ = fit_baseline(t, rank, SolverOptions(max_iters=4, tol=0.0))
        return t, f.Q, f.H, f.V, f.W
    h, v, w = random_factors(12, rank, cols, len(rows))
    if name == "non_orthonormal_q":
        q = [rng.standard_normal((r, rank)) for r in rows]
        return IrregularTensor([rng.standard_normal((r, cols)) for r in rows]), q, h, v, w
    q = [np.linalg.qr(rng.standard_normal((r, rank)))[0] for r in rows]
    return IrregularTensor([(qk @ (h * w[k])) @ v.T for k, qk in enumerate(q)]), q, h, v, w


@pytest.mark.parametrize("name", ["non_orthonormal_q", "exact_fit", "noisy_fit"])
def test_reconstruction_error_expansion_matches_materialized_sum(name):
    t, q, h, v, w = residual_case(name)
    direct = sum(np.linalg.norm(x - (q[k] @ (h * w[k])) @ v.T) ** 2
                 for k, x in enumerate(t.slices))
    got = reconstruction_error(t, q, h, v, w, threads=2)
    assert got >= 0.0
    assert abs(got - direct) <= 1e-9 * t.total_sq_norm()


def per_slice_als(tensor, rank, iters):
    """The ALS iteration one slice at a time, Q_k = U V^T from
    ``truncated_svd``: the reference the stacked iteration must match bit
    for bit.  Returns the cores and objective of every iteration and the
    last factors."""
    h, v, w = initial_factors(tensor.num_cols, tensor.num_slices, rank)
    x_sq = np.array(tensor.sq_norms)
    cores, objective = [], []
    for _ in range(iters):
        q = []
        for k, x in enumerate(tensor.slices):
            trip = truncated_svd(((x @ v) * w[k]) @ h.T, rank)
            q.append(trip.U @ trip.V.T)
        ys = [q_k.T @ x for q_k, x in zip(q, tensor.slices)]
        grams = [q_k.T @ q_k for q_k in q]
        h, v, w = als_sweep(np.stack(ys), None, h, v, w, normalize=False)
        cores.append(np.stack(ys))
        objective.append(float(np.add.reduce(residual_terms(x_sq, ys, grams, h, v, w))))
    return cores, objective, (h, v, w, q)


class TestStackedProcrustes:
    # At 2000 columns a stack holds four 30-row slices, so the five 30-row
    # slices need two stacks at threads=1; the 70-row slice is a stack of
    # one, and the 7-row slices share one.
    ROWS = [30, 7, 70, 30, 30, 12, 7, 30, 30]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_matches_per_slice_oracle_bitwise(self, threads, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(30))
        t = IrregularTensor([rng.standard_normal((r, 2000)) for r in self.ROWS])
        seen = []

        def spy(cores, *args, **kwargs):
            seen.append(cores.copy())
            return als_sweep(cores, *args, **kwargs)

        monkeypatch.setattr(baseline_module, "als_sweep", spy)
        factors, trace = fit_baseline(t, 3, SolverOptions(max_iters=3, tol=0.0, threads=threads))
        cores, objective, (h, v, w, q) = per_slice_als(t, 3, 3)
        assert [c.tobytes() for c in seen] == [c.tobytes() for c in cores]
        assert [e.hex() for e in trace.objective] == [e.hex() for e in objective]
        for got, want in ((factors.H, h), (factors.V, v), (factors.W, w), *zip(factors.Q, q)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # Rows 9, 6, 9, 6, 6, 9: at threads=1 the stacks are [0, 2, 5] and
    # [1, 3, 4]; at threads=2 they are [0, 5], [4], [2] and [1, 3].  Either
    # way slice 5 sits in a stack that comes before slice 3's.
    HEIGHTS = [9, 6, 9, 6, 6, 9]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_non_finite_target_names_the_lowest_slice(self, threads, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(31))
        t = IrregularTensor([rng.standard_normal((r, 5)) for r in self.HEIGHTS])
        h, v, w = initial_factors(5, 6, 2)
        w[5, 0], w[3, 1] = np.nan, np.nan
        monkeypatch.setattr(baseline_module, "initial_factors", lambda *args: (h, v, w))
        with pytest.raises(NumericFailure, match=r"rotation target is not finite \(slice 3\)") as err:
            fit_baseline(t, 2, SolverOptions(threads=threads))
        assert err.value.slice_index == 3

    @pytest.mark.parametrize("threads, named", [
        (1, r"in the stack of 3 slices \(lowest 1, highest 4\)"),
        (2, r"in the stack of 2 slices \(lowest 1, highest 3\)"),
        (3, r"\(slice 1\)"),
    ])
    def test_failed_svd_names_the_stack(self, threads, named, monkeypatch):
        # Only the 6-row targets fail; at threads=3 each is a stack of one.
        rng = np.random.Generator(np.random.PCG64(32))
        t = IrregularTensor([rng.standard_normal((r, 5)) for r in self.HEIGHTS])
        svd = np.linalg.svd

        def failing_svd(a, *args, **kwargs):
            if a.shape[-2] == 6:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericFailure, match="^rotation SVD did not converge " + named + "$"):
            fit_baseline(t, 2, SolverOptions(threads=threads))
