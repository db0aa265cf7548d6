"""Kernel-level checks for the SVD, pseudoinverse, and product helpers.

Oracles here are deliberately independent of the implementations under
test: a Gauss-elimination inverse, triple-loop Gram products, and
per-column Kronecker products.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar2.errors import (
    NonFiniteInputError,
    NumericFailure,
    RankTooLargeError,
    ShapeMismatchError,
)
from dpar2 import linalg
from dpar2.linalg import (
    RsvdParams,
    derived_seed,
    fix_signs,
    gram,
    khatri_rao,
    pinv_small,
    randomized_svd,
    truncated_svd,
)


def gauss_inverse(a):
    """Row-reduction inverse; used as an oracle for pinv on square
    nonsingular inputs."""
    n = a.shape[0]
    aug = np.hstack([a.astype(float).copy(), np.eye(n)])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def assert_orthonormal(m, tol=1e-10):
    eye = np.eye(m.shape[1])
    assert np.linalg.norm(m.T @ m - eye) <= tol


class TestTruncatedSvd:
    def test_diagonal_matrix_keeps_leading_values(self):
        trip = truncated_svd(np.diag([4.0, 2.0, 1.0]), 2)
        assert np.allclose(trip.S, [4.0, 2.0])
        assert np.allclose(trip.reconstruct(), np.diag([4.0, 2.0, 0.0]))

    def test_zero_matrix(self):
        trip = truncated_svd(np.zeros((3, 3)), 2)
        assert np.allclose(trip.S, 0.0)
        assert_orthonormal(trip.U)
        assert_orthonormal(trip.V)

    def test_full_rank_reconstruction(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = rng.standard_normal((6, 6))
        trip = truncated_svd(a, 6)
        assert np.linalg.norm(trip.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLargeError):
            truncated_svd(np.ones((3, 5)), 4)
        with pytest.raises(RankTooLargeError):
            truncated_svd(np.ones((3, 5)), 0)

    def test_non_finite_rejected(self):
        bad = np.ones((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(NonFiniteInputError):
            truncated_svd(bad, 1)

    def test_sign_convention(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(20):
            a = rng.standard_normal((7, 5))
            trip = truncated_svd(a, 3)
            peaks = trip.U[np.abs(trip.U).argmax(axis=0), np.arange(3)]
            assert (peaks >= 0).all()
            assert np.allclose(trip.reconstruct(), truncated_svd(a, 3).reconstruct())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_triple_invariants(self, data):
        m = data.draw(st.integers(2, 9))
        n = data.draw(st.integers(2, 9))
        r = data.draw(st.integers(1, min(m, n)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.Generator(np.random.PCG64(seed))
        trip = truncated_svd(rng.standard_normal((m, n)), r)
        assert_orthonormal(trip.U)
        assert_orthonormal(trip.V)
        assert (trip.S >= 0).all()
        assert (np.diff(trip.S) <= 1e-12).all()


MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """The splitmix64 finalizer on one Python int, mod 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def uniform_sketch(params, m, n):
    """The test matrix Omega that ``randomized_svd`` hashes from
    ``params.seed``, one entry at a time in row-major order: entry i is
    (mix64(seed + (i + 1) * GOLDEN) >> 11) 2^-52 - 1."""
    width = params.rank + min(10, min(m, n) - params.rank)
    seed = params.seed & MASK64
    flat = [(mix64((seed + (i + 1) * GOLDEN) & MASK64) >> 11) * 2.0**-52 - 1.0
            for i in range(n * width)]
    return np.array(flat).reshape(n, width)


def scaled_to_unit(x):
    """x 2^-e with 2^(e-1) <= max |x| < 2^e, and e."""
    e = int(np.frexp(np.abs(x).max())[1])
    return np.ldexp(x, -e), e


def core_factors(small, rank):
    """Top-``rank`` factors of one short, wide core through its Gram
    matrix, unless S[r-1] <= S[0] / 128 (a zero core included): then by SVD."""
    _, vecs = np.linalg.eigh(small @ small.T)
    small_u = vecs[:, ::-1][:, :rank].copy()
    rights = small.T @ small_u
    s = np.sqrt((rights * rights).sum(axis=0))
    if s[-1] > s[0] / 128:
        return small_u, s, rights / s
    u, s, vt = np.linalg.svd(small, full_matrices=False)
    return u[:, :rank].copy(), s[:rank].copy(), vt[:rank].T.copy()


def per_matrix_rsvd(a, params):
    """Reference randomized SVD of one matrix: uniform sketch S; one power
    step S <- ((A S)^T A)^T, scaled to a largest entry in [0.5, 1); the
    range sketch Y = (S^T A^T)^T; QR; the core Q^T A scaled the same way
    and factorized by ``core_factors``; then U = Q U_small and a sign fix."""
    s = uniform_sketch(params, *a.shape)
    s, _ = scaled_to_unit(((a @ s).T @ a).T)
    y = (s.T @ a.T).T
    q, _ = np.linalg.qr(y)
    small, e = scaled_to_unit(q.T @ a)
    small_u, small_s, small_v = core_factors(small, params.rank)
    u, v = fix_signs(q @ small_u, small_v)
    return u, np.ldexp(small_s, e), v


def textbook_rsvd(a, params, power_steps):
    """The unblocked Halko-Martinsson-Tropp range finder on the same Omega:
    Y = (A A^T)^q A Omega, QR, exact truncated SVD of Q^T A."""
    y = a @ uniform_sketch(params, *a.shape)
    for _ in range(power_steps):
        y = a @ (a.T @ y)
    q, _ = np.linalg.qr(y)
    small = truncated_svd(q.T @ a, params.rank)
    return q @ small.U, small.S, small.V


def projector(basis):
    return basis @ basis.T


class TestRandomizedSvd:
    # ``oversampling`` is what the clamp min(10, min(m, n) - R) leaves: the
    # default at rank 4 (None), or none at all with R = min(m, n) (0).  The
    # recipe always takes one power step.
    @pytest.mark.parametrize("shape", [(40, 12), (12, 40), (150, 700)],
                             ids=["tall", "wide", "large"])
    @pytest.mark.parametrize("oversampling", [None, 0])
    @pytest.mark.parametrize("power_iters", [1])
    def test_stack_matches_per_matrix_recipe_bitwise(self, shape, oversampling, power_iters):
        rng = np.random.Generator(np.random.PCG64(12))
        stack = rng.standard_normal((3, *shape))
        rank = 4 if oversampling is None else min(shape)
        params = RsvdParams(rank=rank)
        seeds = [derived_seed(5, g) for g in range(3)]
        stacked = randomized_svd(stack, params, seeds=seeds)
        assert stacked.U.shape == (3, shape[0], rank)
        assert stacked.S.shape == (3, rank)
        assert stacked.V.shape == (3, shape[1], rank)
        for g, seed in enumerate(seeds):
            own = replace(params, seed=seed)
            alone = randomized_svd(stack[g], own)
            want = per_matrix_rsvd(stack[g], own)
            for got_alone, got_stacked, ref in zip(
                    (alone.U, alone.S, alone.V),
                    (stacked.U[g], stacked.S[g], stacked.V[g]), want):
                assert got_alone.shape == ref.shape
                assert got_alone.tobytes() == ref.tobytes()
                assert got_stacked.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(100, 256), (384, 256), (300, 256), (70, 2048)],
                             ids=["one-block", "exact-blocks", "ragged", "rows-floor"])
    @pytest.mark.parametrize("power_iters", [1])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_matches_unblocked_textbook_formula(self, shape, power_iters, stacked):
        m, n = shape
        # Decaying column scales give a spectrum the sketch must resolve.
        rng = np.random.Generator(np.random.PCG64(17))
        mats = rng.standard_normal((2, m, n)) * 0.97 ** np.arange(n)
        params = RsvdParams(rank=6)
        seeds = [derived_seed(3, g) for g in range(len(mats))]
        if stacked:
            got = randomized_svd(mats, params, seeds=seeds)
            trips = [(got.U[g], got.S[g], got.V[g]) for g in range(len(mats))]
        else:
            trips = []
            for a, seed in zip(mats, seeds):
                one = randomized_svd(a, replace(params, seed=seed))
                trips.append((one.U, one.S, one.V))
        for a, seed, (u, s, v) in zip(mats, seeds, trips):
            want_u, want_s, want_v = textbook_rsvd(a, replace(params, seed=seed), power_iters)
            assert np.abs(s - want_s).max() <= 1e-12 * want_s[0]
            assert np.linalg.norm(projector(u) - projector(want_u)) <= 1e-10
            assert np.linalg.norm(projector(v) - projector(want_v)) <= 1e-10

    @pytest.mark.parametrize("k", [500, -500])
    def test_power_of_two_scale_keeps_bits(self, k):
        # 2^500 A A^T A overflows and 2^-500 A A^T A underflows unless the
        # power step is rescaled; LAPACK rescales Q^T A itself unless it is.
        rng = np.random.Generator(np.random.PCG64(18))
        stack = rng.standard_normal((2, 40, 12))
        seeds = [derived_seed(7, g) for g in range(2)]
        params = RsvdParams(rank=4, seed=seeds[0])
        cases = [(stack[0], lambda x: randomized_svd(x, params)),
                 (stack, lambda x: randomized_svd(x, params, seeds=seeds))]
        for a, run in cases:
            want, got = run(a), run(np.ldexp(a, k))
            assert got.U.tobytes() == want.U.tobytes()
            assert got.V.tobytes() == want.V.tobytes()
            assert got.S.tobytes() == np.ldexp(want.S, k).tobytes()

    def test_stacked_test_matrices_equal_the_scalar_hash(self):
        seeds = [0, derived_seed(5, 1), -1]
        omega = linalg._test_matrices(seeds, 20, 12)
        assert omega.shape == (3, 20, 12)
        assert ((omega >= -1.0) & (omega < 1.0)).all()
        for g, seed in enumerate(seeds):
            want = uniform_sketch(RsvdParams(rank=3, seed=seed), 12, 20)
            assert omega[g].tobytes() == want.tobytes()

    def test_weak_cores_alone_take_the_svd_path(self, monkeypatch):
        # A well-conditioned core goes through its Gram matrix; a
        # rank-deficient and an all-zero one fall back to the SVD.
        rng = np.random.Generator(np.random.PCG64(19))
        stack = np.stack([rng.standard_normal((10, 6)),
                          rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6)),
                          np.zeros((10, 6))])
        exact = [truncated_svd(a, 3).S for a in stack]
        params = RsvdParams(rank=3)
        seeds = [derived_seed(9, g) for g in range(3)]
        svd = np.linalg.svd
        factored = []

        def spy(x, *args, **kwargs):
            factored.append(len(x))
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        stacked = randomized_svd(stack, params, seeds=seeds)
        assert factored == [2]
        for g, seed in enumerate(seeds):
            factored.clear()
            alone = randomized_svd(stack[g], replace(params, seed=seed))
            assert factored == ([] if g == 0 else [1])
            for got_alone, got_stacked in zip((alone.U, alone.S, alone.V),
                                              (stacked.U[g], stacked.S[g], stacked.V[g])):
                assert got_alone.tobytes() == got_stacked.tobytes()
            assert_orthonormal(alone.U)
            assert_orthonormal(alone.V)
            assert np.abs(alone.S - exact[g]).max() <= 1e-12 * exact[0][0]

    def test_stack_needs_one_seed_per_matrix(self):
        stack = np.ones((2, 5, 4))
        with pytest.raises(ValueError, match="one seed per matrix"):
            randomized_svd(stack, RsvdParams(rank=2))
        with pytest.raises(ValueError, match="one seed per matrix"):
            randomized_svd(stack, RsvdParams(rank=2), seeds=[1])
        with pytest.raises(ShapeMismatchError):
            randomized_svd(np.ones(5), RsvdParams(rank=1))

    def test_single_matrix_rejects_seeds(self):
        # The seeds were ignored, so the sketch silently used params.seed.
        a = np.ones((5, 4))
        with pytest.raises(ValueError, match="seed from params"):
            randomized_svd(a, RsvdParams(rank=3, seed=1), seeds=[99])

    def test_overflow_in_a_stack_names_its_position(self):
        rng = np.random.Generator(np.random.PCG64(13))
        stack = rng.standard_normal((4, 10, 6))
        stack[2] *= 1e200
        with pytest.raises(NumericFailure, match="overflowed") as err:
            randomized_svd(stack, RsvdParams(rank=2), seeds=[0, 1, 2, 3])
        assert err.value.slice_index == 2

    def test_identity_input(self):
        trip = randomized_svd(np.eye(5), RsvdParams(rank=3, seed=11))
        assert np.allclose(trip.S, 1.0, atol=1e-9)
        err = np.linalg.norm(np.eye(5) - trip.reconstruct()) ** 2
        assert abs(err - 2.0) <= 1e-9

    def test_rank_one_recovery(self):
        rng = np.random.Generator(np.random.PCG64(2))
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        a = 3.0 * np.outer(u, v)
        trip = randomized_svd(a, RsvdParams(rank=1, seed=0))
        assert abs(trip.S[0] - 3.0) <= 1e-9
        assert min(np.linalg.norm(trip.U[:, 0] - u), np.linalg.norm(trip.U[:, 0] + u)) <= 1e-9

    def test_near_optimal_on_gaussian(self):
        rng = np.random.Generator(np.random.PCG64(3))
        a = rng.standard_normal((20, 10))
        trip = randomized_svd(a, RsvdParams(rank=4, seed=9))
        exact = truncated_svd(a, 4)
        best = np.linalg.norm(a - exact.reconstruct())
        got = np.linalg.norm(a - trip.reconstruct())
        assert got <= 1.5 * best

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.Generator(np.random.PCG64(4))
        a = rng.standard_normal((15, 12))
        t1 = randomized_svd(a, RsvdParams(rank=3, seed=1))
        t2 = randomized_svd(a, RsvdParams(rank=3, seed=1))
        t3 = randomized_svd(a, RsvdParams(rank=3, seed=2))
        assert t1.U.tobytes() == t2.U.tobytes()
        assert t1.S.tobytes() == t2.S.tobytes()
        assert t1.V.tobytes() == t2.V.tobytes()
        assert t1.U.tobytes() != t3.U.tobytes()

    def test_orthonormal_outputs(self):
        rng = np.random.Generator(np.random.PCG64(6))
        a = rng.standard_normal((30, 14))
        trip = randomized_svd(a, RsvdParams(rank=5, seed=3))
        assert_orthonormal(trip.U)
        assert_orthonormal(trip.V)
        assert (np.diff(trip.S) <= 1e-12).all()

    def test_rank_too_large(self):
        with pytest.raises(RankTooLargeError):
            randomized_svd(np.ones((4, 3)), RsvdParams(rank=4))

    def test_rank_below_one_rejected_when_made(self):
        with pytest.raises(RankTooLargeError, match="rank must be >= 1, got 0"):
            RsvdParams(rank=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        a = np.random.Generator(np.random.PCG64(8)).standard_normal((12, 9))
        a[7, 4] = bad
        with pytest.raises(NonFiniteInputError):
            randomized_svd(a, RsvdParams(rank=3))

    def test_overflowing_finite_input_is_a_numeric_failure(self):
        # finite, but A^T A overflows in the power step
        a = 1e200 * np.random.Generator(np.random.PCG64(8)).standard_normal((12, 9))
        assert np.isfinite(a).all()
        with pytest.raises(NumericFailure, match="overflowed"):
            randomized_svd(a, RsvdParams(rank=3))

    def test_oversampling_clamps_to_short_dim(self):
        # oversampling never makes the sketch wider than min(m, n)
        rng = np.random.Generator(np.random.PCG64(7))
        a = rng.standard_normal((9, 4))
        trip = randomized_svd(a, RsvdParams(rank=3, seed=0))
        assert trip.U.shape == (9, 3)


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv_small(np.eye(4)), np.eye(4))

    def test_singular_diagonal(self):
        got = pinv_small(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]))

    def test_matches_gauss_inverse(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            assert np.allclose(pinv_small(a), gauss_inverse(a), atol=1e-10)

    def test_penrose_conditions(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            if rng.random() < 0.5:
                a[:, -1] = a[:, 0]  # force rank deficiency half the time
            p = pinv_small(a)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-8
            assert np.linalg.norm(p @ a @ p - p) <= 1e-8
            assert np.allclose(a @ p, (a @ p).T, atol=1e-8)
            assert np.allclose(p @ a, (p @ a).T, atol=1e-8)

    def test_zero_matrix(self):
        assert np.allclose(pinv_small(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_unrepresentable_inverse_is_a_numeric_failure(self):
        # 1e-320 lies above the 2e-322 cutoff, but 1/1e-320 overflows; a
        # smaller but normal-sized matrix still inverts.
        with pytest.raises(NumericFailure, match="pseudoinverse overflows"):
            pinv_small(np.diag([1e-310, 1e-320]))
        assert np.allclose(pinv_small(np.diag([1e-300, 1e-305])) * 1e-305, np.diag([1e-5, 1.0]))


class TestProducts:
    def test_gram_against_triple_loop(self):
        rng = np.random.Generator(np.random.PCG64(10))
        a = rng.standard_normal((6, 4))
        want = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                for k in range(6):
                    want[i, j] += a[k, i] * a[k, j]
        assert np.allclose(gram(a), want, atol=1e-12)

    def test_khatri_rao_single_column(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0], [5.0]])
        got = khatri_rao(a, b)
        assert got.shape == (6, 1)
        assert np.allclose(got[:, 0], np.kron(a[:, 0], b[:, 0]))

    def test_khatri_rao_against_kron_columns(self):
        rng = np.random.Generator(np.random.PCG64(11))
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        got = khatri_rao(a, b)
        for r in range(3):
            assert np.allclose(got[:, r], np.kron(a[:, r], b[:, r]))

    def test_khatri_rao_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            khatri_rao(np.ones((2, 2)), np.ones((3, 4)))


def test_derived_seed_stable_and_distinct():
    assert derived_seed(7, 3) == derived_seed(7, 3)
    assert derived_seed(7, 3) != derived_seed(7, 4)
    assert derived_seed(8, 3) != derived_seed(7, 3)
    assert 0 <= derived_seed(-1, 0) < 2**64


def test_derived_seed_is_the_hash_and_distinct_over_a_grid():
    grid = {(seed, index): derived_seed(seed, index)
            for seed in (0, 1, 2, 7, 2**32, 2**63, -1) for index in range(300)}
    assert len(set(grid.values())) == len(grid)
    for (seed, index), child in grid.items():
        assert child == mix64((seed * GOLDEN + index + 1) & MASK64)
