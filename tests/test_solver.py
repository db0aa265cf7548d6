"""Compressed-space solver: rotation algebra, contraction kernels, full fits."""
import dataclasses
import threading
import traceback

import numpy as np
import pytest

import dpar2
from dpar2.baseline import cp_als_step, fit_baseline, unfold_mode1, unfold_mode2, unfold_mode3
from dpar2.baseline import procrustes_svd
from dpar2.compress import CompressedTensor, compress, reconstruct_slice
from dpar2.errors import NumericFailure
from dpar2.factors import SolverOptions, initial_factors
from dpar2.linalg import RsvdParams, khatri_rao, truncated_svd
from dpar2.scheduler import contiguous_chunks
from dpar2.solver import (
    convergence_metric,
    fit_dpar2,
    mttkrp_mode1,
    mttkrp_mode2,
    mttkrp_mode3,
    rotated_cores,
    update_factors,
    update_rotations,
)
from dpar2.tensor import MODE_PLANTED, IrregularTensor, SyntheticSpec, generate


def random_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, max(rows, cols))))
    return np.ascontiguousarray(q[:, :cols])


def manual_compressed(seed, rank=3, cols=10, num=4, rows=8):
    """Hand-built compressed tensor with orthonormal pieces and known cores."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bases = [random_orthonormal(rng, rows, rank) for _ in range(num)]
    col_basis = random_orthonormal(rng, cols, rank)
    weights = np.sort(rng.uniform(1.0, 5.0, rank))[::-1].copy()
    cores = np.concatenate([random_orthonormal(rng, rank, rank) for _ in range(num)])
    return CompressedTensor(rank=rank, slice_bases=bases, col_basis=col_basis,
                            weights=weights, cores=cores)


def materialized_cores(comp, rotations):
    """Y_k = Theta_k E D^T, the projected cores the kernels avoid forming."""
    theta = rotated_cores(comp, rotations)
    scaled = comp.weights[:, None] * comp.col_basis.T
    return [theta[k] @ scaled for k in range(comp.num_slices)]


class TestRotations:
    def test_scalar_rank_one(self):
        rng = np.random.Generator(np.random.PCG64(0))
        comp = manual_compressed(0, rank=1, cols=4, num=2, rows=5)
        h = np.array([[2.0]])
        v = rng.standard_normal((4, 1))
        w = np.array([[3.0], [-1.5]])
        rots = update_rotations(comp, h, v, w)
        for k, rot in enumerate(rots):
            t = float((comp.core_block(k) @ (comp.weights * (comp.col_basis.T @ v)[:, 0]))[0]
                      * w[k, 0] * h[0, 0])
            assert rot.Sig[0] == pytest.approx(abs(t), abs=1e-12)
            assert float(rot.Z[0, 0] * rot.Sig[0] * rot.P[0, 0]) == pytest.approx(t, abs=1e-12)

    def test_symmetric_positive_case_gives_identity_rotation(self):
        # v = D and h = F_k with w[k] = E makes T_k = F diag(E^2) F^T, which
        # is symmetric positive definite, so the polar factor Z P^T is I.
        comp = manual_compressed(1, rank=3, cols=10, num=3)
        v = comp.col_basis.copy()
        for k in range(comp.num_slices):
            h = comp.core_block(k).copy()
            w = np.tile(comp.weights, (comp.num_slices, 1))
            rots = update_rotations(comp, h, v, w)
            assert np.linalg.norm(rots[k].Z @ rots[k].P.T - np.eye(3)) <= 1e-10

    def test_agrees_with_procrustes_on_reconstructed_slices(self):
        rng = np.random.Generator(np.random.PCG64(2))
        t = generate(SyntheticSpec(rows=20, cols=12, num_slices=5, mode=MODE_PLANTED,
                                   true_rank=3, seed=7))
        comp = compress(t, 3)
        h = rng.standard_normal((3, 3))
        v = rng.standard_normal((12, 3))
        w = rng.standard_normal((5, 3))
        rots = update_rotations(comp, h, v, w)
        for k in range(5):
            u, _, vt = procrustes_svd(reconstruct_slice(comp, k)[None], v, h, w[k][None])
            direct = (u @ vt)[0]
            via_rotation = comp.slice_bases[k] @ (rots[k].Z @ rots[k].P.T)
            assert np.abs(via_rotation - direct).max() <= 1e-8

    def test_stack_matches_per_slice_truncated_svd(self):
        # The stacked SVD keeps truncated_svd's values and sign convention.
        comp = manual_compressed(4)
        h, v, w = initial_factors(10, 4, 3)
        rots = update_rotations(comp, h, v, w)
        core_cols = comp.weights[:, None] * (comp.col_basis.T @ v)
        for k, rot in enumerate(rots):
            trip = truncated_svd(((comp.core_block(k) @ core_cols) * w[k]) @ h.T, 3)
            for got, want in ((rot.Z, trip.U), (rot.P, trip.V), (rot.Sig, trip.S)):
                assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_target_names_first_bad_slice(self):
        comp = manual_compressed(5)
        h, v, w = initial_factors(10, 4, 3)
        w[2, 1], w[3, 0] = np.nan, np.inf
        with pytest.raises(NumericFailure, match=r"\(slice 2\)"):
            update_rotations(comp, h, v, w)

    def test_rotation_bits_independent_of_thread_count(self):
        # K = 1, fewer slices than workers, and chunks of unequal length.
        for num in (1, 5, 2001):
            comp = manual_compressed(10 + num, rank=8, cols=10, num=num)
            h, v, w = initial_factors(10, num, 8)
            ref = update_rotations(comp, h, v, w, threads=1)
            for threads in (2, 3, 7):
                rots = update_rotations(comp, h, v, w, threads=threads)
                for got, want in ((rots.Z, ref.Z), (rots.P, ref.P), (rots.Sig, ref.Sig)):
                    assert got.tobytes() == want.tobytes(), (num, threads)

    @pytest.mark.parametrize("num, rank", [(100, 10), (3, 5)], ids=["paper-blocks", "tiny"])
    def test_two_threads_split_any_stack(self, monkeypatch, num, rank):
        # No size floor: two threads split the targets over two workers, the
        # second a started thread, however small the R x R blocks are.
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        comp = manual_compressed(14, rank=rank, cols=12, num=num, rows=12)
        h, v, w = initial_factors(12, num, rank)
        for threads, starts in ((1, 0), (2, 1)):
            started.clear()
            update_rotations(comp, h, v, w, threads=threads)
            assert len(started) == starts, threads

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_targets_in_two_chunks_name_the_lower_slice(self):
        comp = manual_compressed(11, rank=8, num=2001)
        h, v, w = initial_factors(10, 2001, 8)
        w[1700, 0], w[300, 2] = np.inf, np.nan
        for threads in (1, 2, 3, 7):
            with pytest.raises(NumericFailure, match=r"\(slice 300\)"):
                update_rotations(comp, h, v, w, threads=threads)

    def test_svd_failure_in_one_chunk_is_a_numeric_failure(self, monkeypatch):
        comp = manual_compressed(12, rank=8, num=2001)
        h, v, w = initial_factors(10, 2001, 8)
        svd = np.linalg.svd
        for threads in (2, 7):
            # Chunks of 1001 + 1000 and 6 x 286 + 285 slices: fail the last one.
            last = len(contiguous_chunks(2001, threads)[-1])

            def failing_svd(a, *args, **kwargs):
                if len(a) == last:
                    raise np.linalg.LinAlgError("SVD did not converge")
                return svd(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "svd", failing_svd)
            with pytest.raises(NumericFailure, match="rotation SVD did not converge"):
                update_rotations(comp, h, v, w, threads=threads)

    def test_pass_builds_rotated_cores_bitwise(self):
        comp = manual_compressed(13, rank=8, num=2001)
        h, v, w = initial_factors(10, 2001, 8)
        for threads in (1, 2, 3):
            rots = update_rotations(comp, h, v, w, threads)
            assert rots.Theta.tobytes() == rotated_cores(comp, rots).tobytes()
            assert rots[5].Theta.tobytes() == rots.Theta[5].tobytes()

    def test_rotated_cores_shape_and_content(self):
        comp = manual_compressed(3)
        h, v, w = initial_factors(10, 4, 3)
        rots = update_rotations(comp, h, v, w)
        theta = rotated_cores(comp, rots)
        assert theta.shape == (4, 3, 3)
        want = (rots[1].P @ rots[1].Z.T) @ comp.core_block(1)
        assert np.allclose(theta[1], want, atol=1e-14)


class TestKernels:
    def setup_method(self):
        rng = np.random.Generator(np.random.PCG64(4))
        self.comp = manual_compressed(4, rank=3, cols=9, num=5)
        self.h = rng.standard_normal((3, 3))
        self.v = rng.standard_normal((9, 3))
        self.w = rng.standard_normal((5, 3))
        self.rots = update_rotations(self.comp, self.h, self.v, self.w)
        self.cores = materialized_cores(self.comp, self.rots)

    def test_mode1_matches_materialized_unfolding(self):
        want = unfold_mode1(self.cores) @ khatri_rao(self.w, self.v)
        got = mttkrp_mode1(self.comp, self.rots, self.w, self.v)
        assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())

    def test_mode2_matches_materialized_unfolding(self):
        want = unfold_mode2(self.cores) @ khatri_rao(self.w, self.h)
        got = mttkrp_mode2(self.comp, self.rots, self.w, self.h)
        assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())

    def test_mode3_matches_materialized_unfolding(self):
        want = unfold_mode3(self.cores) @ khatri_rao(self.v, self.h)
        got = mttkrp_mode3(self.comp, self.rots, self.v, self.h)
        assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())

    def test_sweep_matches_uncompressed_sweep_on_cores(self):
        for normalize in (False, True):
            got = update_factors(self.comp, self.rots, self.h, self.v, self.w,
                                 normalize=normalize)
            want = cp_als_step(self.cores, self.h, self.v, self.w, normalize=normalize)
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(b).max())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_sweep_is_a_numeric_failure(self):
        # Finite compressed pieces whose Gram products overflow: the shared
        # sweep fails as numerics, not as bad input.
        base = manual_compressed(9, rank=3, cols=9, num=5)
        comp = CompressedTensor(rank=3, slice_bases=base.slice_bases,
                                col_basis=base.col_basis, weights=base.weights * 1e160,
                                cores=base.cores)
        rots = update_rotations(comp, self.h, self.v, self.w)
        with pytest.raises(NumericFailure, match="ALS sweep"):
            update_factors(comp, rots, self.h, self.v, self.w)


class TestConvergenceMetric:
    def test_exact_model_gives_zero(self):
        comp = manual_compressed(5, rank=3, cols=10, num=3)
        v = comp.col_basis.copy()
        h = comp.core_block(0).copy()
        w = np.tile(comp.weights, (3, 1))
        # Make every slice share the same core so one (h, w) fits all.
        comp = CompressedTensor(rank=3, slice_bases=comp.slice_bases,
                                col_basis=comp.col_basis, weights=comp.weights,
                                cores=np.tile(comp.core_block(0), (3, 1)))
        rots = update_rotations(comp, h, v, w)
        e = convergence_metric(comp, rots, h, v, w)
        assert e <= 1e-18
        assert dpar2.fitness is not None

    def test_zero_factors_give_total_energy(self):
        comp = manual_compressed(6, rank=3, cols=10, num=4)
        h, v, w = initial_factors(10, 4, 3)
        rots = update_rotations(comp, h, v, w)
        e = convergence_metric(comp, rots, np.zeros((3, 3)), np.zeros((10, 3)),
                               np.zeros((4, 3)))
        # Theta_k and D are orthonormal here, so each slice contributes sum E^2.
        want = 4 * float(np.sum(comp.weights ** 2))
        assert e == pytest.approx(want, rel=1e-12)

    def test_matches_materialized_residual(self):
        rng = np.random.Generator(np.random.PCG64(7))
        comp = manual_compressed(7, rank=3, cols=8, num=5)
        h = rng.standard_normal((3, 3))
        v = rng.standard_normal((8, 3))
        w = rng.standard_normal((5, 3))
        rots = update_rotations(comp, h, v, w)
        cores = materialized_cores(comp, rots)
        want = sum(np.linalg.norm(cores[k] - (h * w[k]) @ v.T) ** 2 for k in range(5))
        got = convergence_metric(comp, rots, h, v, w)
        assert got == pytest.approx(want, rel=1e-9)


class TestFitDpar2:
    def test_fixed_point_of_exact_state(self):
        comp = manual_compressed(8, rank=3, cols=10, num=3)
        v = comp.col_basis.copy()
        h = comp.core_block(0).copy()
        w = np.tile(comp.weights, (3, 1))
        comp = CompressedTensor(rank=3, slice_bases=comp.slice_bases,
                                col_basis=comp.col_basis, weights=comp.weights,
                                cores=np.tile(comp.core_block(0), (3, 1)))
        rots = update_rotations(comp, h, v, w)
        h2, v2, w2 = update_factors(comp, rots, h, v, w, normalize=False)
        assert np.abs(h2 - h).max() <= 1e-8
        assert np.abs(v2 - v).max() <= 1e-8
        assert np.abs(w2 - w).max() <= 1e-8

    def test_planted_noiseless_recovery(self):
        t = generate(SyntheticSpec(rows=30, cols=15, num_slices=8, mode=MODE_PLANTED,
                                   true_rank=3, seed=1))
        factors, trace = fit_dpar2(t, 3, SolverOptions(max_iters=32, tol=0.0))
        assert dpar2.fitness(t, factors) >= 0.999
        assert trace.compressed_float_count == sum(r * 3 for r in t.row_counts) + 8 * 9 + 15 * 3 + 3

    def test_matches_baseline_fitness_on_noisy_data(self):
        t = generate(SyntheticSpec(rows=25, cols=12, num_slices=6, mode=MODE_PLANTED,
                                   true_rank=3, noise_level=0.1, seed=2))
        fast, _ = fit_dpar2(t, 3, SolverOptions(max_iters=20, tol=0.0))
        slow, _ = fit_baseline(t, 3, SolverOptions(max_iters=20, tol=0.0))
        assert abs(dpar2.fitness(t, fast) - dpar2.fitness(t, slow)) <= 0.01

    def test_objective_non_increasing(self):
        # Random shapes, then degenerate inputs through the batched rotations:
        # an all-zero slice, a rank-1 slice, R = min(I_k, J), tiny values.
        rng = np.random.Generator(np.random.PCG64(9))
        cases = []
        for _ in range(50):
            counts = rng.integers(4, 10, size=int(rng.integers(2, 5)))
            cols = int(rng.integers(4, 9))
            rank = int(rng.integers(1, min(3, cols, counts.min()) + 1))
            cases.append(([rng.random((int(c), cols)) for c in counts], rank))
        first, last = rng.random((8, 6)), rng.random((9, 6))
        cases += [
            ([first, np.zeros((7, 6)), last], 3),
            ([first, np.outer(rng.random(7), rng.random(6)), last], 3),
            ([rng.random((rows, 4)) for rows in (4, 9, 7)], 4),
            ([x * 1e-150 for x in (first, rng.random((7, 6)), last)], 3),
        ]
        for case, (slices, rank) in enumerate(cases):
            factors, trace = fit_dpar2(IrregularTensor(slices), rank,
                                       SolverOptions(max_iters=8, tol=0.0))
            for a in (factors.H, factors.V, factors.W, *factors.Q):
                assert np.isfinite(a).all(), f"case {case}"
            for q in factors.Q:
                assert np.abs(q.T @ q - np.eye(rank)).max() <= 1e-8, f"case {case}"
            obj = np.asarray(trace.objective)
            slack = 1e-9 * max(obj[0], max(np.abs(x).max() for x in slices) ** 2)
            assert (np.diff(obj) <= slack).all(), f"case {case}: {obj}"

    @pytest.mark.parametrize("solver", [fit_dpar2, fit_baseline], ids=["dpar2", "als"])
    def test_extreme_scales_fit_like_unit_scale(self, solver):
        # At 1e150 the unscaled range sketch A A^T A overflowed; at 1e-150
        # it underflowed and DPar2 fit 0.52 where unit scale fits 0.86.
        def fit(tensor, threads):
            factors, _ = solver(tensor, 3, SolverOptions(max_iters=10, tol=0.0, threads=threads))
            return dpar2.fitness(tensor, factors)

        rng = np.random.default_rng(0)
        slices = [rng.random((rows, 8)) for rows in (12, 9, 15)]
        unit = fit(IrregularTensor(slices), 1)
        for scale in (1e150, 1e-150):
            t = IrregularTensor([x * scale for x in slices])
            fits = [fit(t, n) for n in (1, 2)]
            assert abs(fits[0] - unit) <= 1e-12, scale
            assert fits[0].hex() == fits[1].hex(), scale

    @pytest.mark.parametrize("solver", [fit_dpar2, fit_baseline], ids=["dpar2", "als"])
    def test_tiny_scales_fit_like_unit_scale_or_fail_in_the_sweep(self, solver):
        # From about 1e-154 down the sweep's Gram products reach the
        # subnormal range: inverting them overflowed with a RuntimeWarning
        # (an error in this suite), and flooring the pinv cutoff alone made
        # both solvers fit 0.0 at 1e-155 with no error.
        opts = SolverOptions(max_iters=10, tol=0.0, threads=1)
        rng = np.random.default_rng(0)
        slices = [rng.standard_normal((rows, 8)) for rows in (12, 9, 15)]
        unit, _ = solver(IrregularTensor(slices), 3, opts)
        unit = dpar2.fitness(IrregularTensor(slices), unit)
        outcomes = set()
        for exponent in np.arange(150, 166, 0.25):
            t = IrregularTensor([x * 10.0**-exponent for x in slices])
            try:
                factors, _ = solver(t, 3, opts)
            except NumericFailure as exc:
                frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
                assert "als_sweep" in frames, (exponent, str(exc))
                outcomes.add("raised")
                continue
            assert abs(dpar2.fitness(t, factors) - unit) <= 1e-6, exponent
            outcomes.add("fit")
        assert outcomes == {"fit", "raised"}

    @pytest.mark.parametrize("max_iters", [1, SolverOptions().max_iters])
    @pytest.mark.parametrize("solver", [fit_dpar2, fit_baseline], ids=["dpar2", "als"])
    def test_huge_scales_fit_like_unit_scale_or_fail(self, solver, max_iters):
        # Above about 1e152 both solvers warned "overflow encountered in
        # matmul" (an error in this suite), DPar2 at 1e153 with one
        # iteration returned the objective [nan] with no error, and a Gram
        # product whose largest singular value overflows inverted to 0.
        opts = SolverOptions(max_iters=max_iters, threads=1)
        rng = np.random.default_rng(0)
        slices = [rng.random((rows, 8)) for rows in (12, 9, 15)]
        _, unit = solver(IrregularTensor(slices), 3, opts)
        outcomes = set()
        for exponent in np.arange(150, 156, 0.125):
            scale = 10.0**exponent
            try:
                _, trace = solver(IrregularTensor([x * scale for x in slices]), 3, opts)
            except NumericFailure:
                outcomes.add("raised")
                continue
            assert trace.objective[-1] / scale / scale == pytest.approx(unit.objective[-1], rel=1e-6)
            outcomes.add("fit")
        assert outcomes == {"fit", "raised"}

    def test_factor_gram_invariant_across_slices(self):
        t = generate(SyntheticSpec(rows=20, cols=10, num_slices=5, mode=MODE_PLANTED,
                                   true_rank=2, noise_level=0.2, seed=3))
        factors, _ = fit_dpar2(t, 2, SolverOptions(max_iters=5))
        want = factors.H.T @ factors.H
        for k in range(5):
            u = factors.slice_factor(k)
            assert np.abs(u.T @ u - want).max() <= 1e-8
            q = factors.Q[k]
            assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-8

    def test_thread_counts_agree_bitwise(self):
        t = generate(SyntheticSpec(rows=16, cols=9, num_slices=6, mode=MODE_PLANTED,
                                   true_rank=2, noise_level=0.2, seed=4))
        runs = [fit_dpar2(t, 2, SolverOptions(max_iters=5, tol=0.0, threads=n))
                for n in (1, 2, 8)]
        ref_factors, ref_trace = runs[0]
        for factors, trace in runs[1:]:
            assert factors.H.tobytes() == ref_factors.H.tobytes()
            assert factors.V.tobytes() == ref_factors.V.tobytes()
            assert factors.W.tobytes() == ref_factors.W.tobytes()
            for qa, qb in zip(factors.Q, ref_factors.Q):
                assert qa.tobytes() == qb.tobytes()
            assert trace.objective == ref_trace.objective

    def test_public_steps_replay_fit_bitwise(self):
        # fit_dpar2 is compress, then rotations / sweep / metric per iteration,
        # then Q_k = A_k Z_k P_k^T; repeating those calls reproduces its bytes.
        t = generate(SyntheticSpec(rows=18, cols=9, num_slices=7, mode=MODE_PLANTED,
                                   true_rank=2, noise_level=0.2, seed=6))
        opts = SolverOptions(max_iters=6, tol=0.0, threads=2)
        factors, trace = fit_dpar2(t, 2, opts)
        comp = compress(t, 2, rsvd=RsvdParams(rank=2, seed=opts.seed), threads=2)
        h, v, w = initial_factors(t.num_cols, t.num_slices, 2, opts.seed)
        objective = []
        for _ in range(trace.iterations):
            rots = update_rotations(comp, h, v, w, threads=2)
            h, v, w = update_factors(comp, rots, h, v, w, normalize=True, threads=2)
            objective.append(convergence_metric(comp, rots, h, v, w, threads=2))
        q = [comp.slice_bases[k] @ (rots[k].Z @ rots[k].P.T) for k in range(comp.num_slices)]
        assert objective == trace.objective
        for got, want in zip((h, v, w, *q), (factors.H, factors.V, factors.W, *factors.Q)):
            assert got.tobytes() == want.tobytes()

    def test_iteration_is_the_public_steps_on_carried_theta(self, monkeypatch):
        # Every iteration solves the rotations once, and nothing after them
        # rebuilds Theta: the sweep and the metric read rotations.Theta.
        t = generate(SyntheticSpec(rows=18, cols=9, num_slices=7, mode=MODE_PLANTED,
                                   true_rank=2, noise_level=0.2, seed=6))
        calls = []
        real = dpar2.solver.update_rotations

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("Theta rebuilt outside update_rotations")

        monkeypatch.setattr(dpar2.solver, "update_rotations", spy)
        monkeypatch.setattr(dpar2.solver, "rotated_cores", no_rebuild)
        _, trace = fit_dpar2(t, 2, SolverOptions(max_iters=6, tol=0.0))
        assert len(calls) == trace.iterations == 6
        comp = compress(t, 2)
        h, v, w = initial_factors(t.num_cols, t.num_slices, 2)
        rots = real(comp, h, v, w)
        h, v, w = update_factors(comp, rots, h, v, w)
        assert np.isfinite(convergence_metric(comp, rots, h, v, w))

    def test_seed_changes_compression_but_fit_stays_close(self):
        t = generate(SyntheticSpec(rows=25, cols=12, num_slices=5, mode=MODE_PLANTED,
                                   true_rank=3, noise_level=0.05, seed=5))
        fa, _ = fit_dpar2(t, 3, SolverOptions(max_iters=16, tol=0.0, seed=0))
        fb, _ = fit_dpar2(t, 3, SolverOptions(max_iters=16, tol=0.0, seed=99))
        assert abs(dpar2.fitness(t, fa) - dpar2.fitness(t, fb)) <= 0.01

    def test_max_iters_validation(self):
        t = IrregularTensor([np.ones((4, 4))])
        with pytest.raises(ValueError):
            fit_dpar2(t, 1, SolverOptions(max_iters=0))

    @pytest.mark.parametrize("bad", [{"max_iters": 0}, {"tol": -1.0}], ids=["max_iters", "tol"])
    def test_bad_options_raise_before_compress(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(dpar2.solver, "compress", lambda *args, **kw: calls.append(args))
        t = IrregularTensor([np.ones((4, 4))])
        with pytest.raises(ValueError):
            fit_dpar2(t, 1, SolverOptions(**bad))
        assert calls == []

    def test_options_cannot_be_changed_after_their_check(self):
        opts = SolverOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.max_iters = 0

    @pytest.mark.parametrize("solver", [fit_dpar2, fit_baseline], ids=["dpar2", "als"])
    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_tol_validation(self, solver, tol):
        # A NaN or negative tol silently ran every iteration; inf stopped at 2.
        t = IrregularTensor([np.ones((4, 4))])
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            solver(t, 1, SolverOptions(tol=tol))
