"""Job process: runs one workload's jobs from an ``.irt`` archive.

A job is what ``dpar2 decompose --report-fitness`` does, through library
calls: ``load_archive``, then ``fit_dpar2`` or ``fit_baseline`` with default
``SolverOptions``, then ``fitness``.  The process starts from the archive,
so its peak resident memory is the job's own.  The first job warms the
process up and is checked but not timed.

Untraced, the process runs jobs until ``--seconds`` would be exceeded.
Traced (``--trace-out``), it alternates untraced reference jobs with
replays of them, and then replays the layers the job does not use, all
through the package's public functions with a span around every call.  Each replay
must reproduce the real call bit for bit, or the process exits non-zero.

Prints one JSON object on its last stdout line.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from statistics import median

import numpy as np

from spec import BASELINE_REPLAY_ITERS, Workload, import_program
from tracer import Tracer

import_program()

from dpar2.analysis import fitness  # noqa: E402
from dpar2.baseline import cp_als_step, fit_baseline, reconstruction_error  # noqa: E402
from dpar2.compress import CompressedTensor, compress  # noqa: E402
from dpar2.factors import Parafac2Factors, SolverOptions, initial_factors  # noqa: E402
from dpar2.linalg import RsvdParams, derived_seed, randomized_svd, truncated_svd  # noqa: E402
from dpar2.scheduler import greedy_partition, parallel_slice_map, resolve_threads  # noqa: E402
from dpar2.solver import convergence_metric, fit_dpar2, update_factors, update_rotations  # noqa: E402
from dpar2.tensor import load_archive  # noqa: E402

SOLVERS = {"dpar2": fit_dpar2, "als": fit_baseline}
ORTHO_TOL = 1e-8
# compress() at default threads and at threads=1, alternated, for the
# scheduler layer's scaling figure.
COMPRESS_REPEATS = 3
# Untraced and traced jobs alternated in a traced run; the tracing overhead
# is the difference of their medians.
TRACE_PAIRS = 2


def check(factors, fit, floor):
    """Reasons the job's answer is wrong; empty when it passes."""
    problems = []
    if not all(np.isfinite(a).all() for a in (factors.H, factors.V, factors.W, *factors.Q)):
        problems.append("a factor holds a non-finite value")
    eye = np.eye(factors.rank)
    worst = max(float(np.abs(q.T @ q - eye).max()) for q in factors.Q)
    if not worst <= ORTHO_TOL:
        problems.append(f"max |Q_k^T Q_k - I| = {worst:.2e} exceeds {ORTHO_TOL:g}")
    if not fit >= floor:
        problems.append(f"fitness {fit:.6f} is below the floor {floor:.4f}")
    return problems


def run_job(archive, wl):
    """One timed job; a job that raises is returned with its traceback as a problem."""
    started = time.perf_counter()
    try:
        tensor = load_archive(archive)
        loaded = time.perf_counter()
        factors, trace = SOLVERS[wl.solver](tensor, wl.rank, SolverOptions())
        fitted = time.perf_counter()
        fit = fitness(tensor, factors)
        done = time.perf_counter()
    except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
        return {"wall_s": time.perf_counter() - started, "problems": [traceback.format_exc()]}
    return {
        "wall_s": done - started,
        "total_s": done - started,
        "fit_s": fitted - loaded,
        "iter_s": list(trace.seconds),
        "preprocess_s": trace.preprocess_seconds,
        "objective": list(trace.objective),
        "fitness": fit,
        "problems": check(factors, fit, wl.floor),
    }


def run_jobs(archive, wl, seconds):
    """Warm-up job, then timed jobs while the next one should fit in ``seconds``."""
    jobs = [run_job(archive, wl)]
    started = time.perf_counter()
    while True:
        job = run_job(archive, wl)
        if "fitness" in job and "fitness" in jobs[0] and job["fitness"] != jobs[0]["fitness"]:
            job["problems"].append(f"fitness {job['fitness']!r} differs from the first "
                                   f"job's {jobs[0]['fitness']!r} on the same archive")
        jobs.append(job)
        elapsed = time.perf_counter() - started
        if elapsed + median(j["wall_s"] for j in jobs[1:]) > seconds:
            return jobs


# Replays.  Each repeats one public entry point step by step through the
# package's public functions, in the same order and with the same
# arguments, so the results match the entry point's bit for bit.

def replay_compress(tensor, rank, seed, tracer):
    """``compress(tensor, rank, rsvd=RsvdParams(rank=rank, seed=seed))``."""
    threads = resolve_threads()
    base = RsvdParams(rank=rank, seed=seed)
    plan = greedy_partition(tensor.row_counts, threads)

    def sketch(k):
        return randomized_svd(tensor.slices[k], replace(base, seed=derived_seed(seed, k)))

    with tracer.span("compress.stage1"):
        stage1 = parallel_slice_map(sketch, tensor.num_slices, threads=threads, groups=plan.sets)
    with tracer.span("compress.stage2"):
        merged = np.concatenate([trip.V * trip.S for trip in stage1], axis=1)
        shared = randomized_svd(merged, replace(base, seed=derived_seed(seed, tensor.num_slices)))
    return CompressedTensor(rank=rank, slice_bases=[trip.U for trip in stage1],
                            col_basis=shared.U, weights=shared.S,
                            cores=np.ascontiguousarray(shared.V))


def _converged(objective, tol):
    """The solvers' stop rule: the objective's relative change is within ``tol``."""
    if len(objective) < 2:
        return False
    prev, value = objective[-2:]
    return prev == 0.0 or abs(prev - value) <= tol * prev


def replay_dpar2(tensor, rank, opts, tracer):
    """``fit_dpar2(tensor, rank, opts)``; returns factors, objective and compression."""
    threads = resolve_threads(opts.threads)
    with tracer.span("compress"):
        comp = replay_compress(tensor, rank, opts.seed, tracer)
    with tracer.span("solver.init"):
        h, v, w = initial_factors(tensor.num_cols, tensor.num_slices, rank, opts.seed)
    objective = []
    for _ in range(opts.max_iters):
        with tracer.span("solver.iter"):
            with tracer.span("solver.rotations"):
                rotations = update_rotations(comp, h, v, w, threads=threads)
            with tracer.span("solver.sweep"):
                h, v, w = update_factors(comp, rotations, h, v, w, normalize=True, threads=threads)
            with tracer.span("solver.metric"):
                e = convergence_metric(comp, rotations, h, v, w, threads=threads)
        objective.append(e)
        if _converged(objective, opts.tol):
            break
    with tracer.span("solver.q_assembly"):
        q = parallel_slice_map(
            lambda k: comp.slice_bases[k] @ (rotations[k].Z @ rotations[k].P.T),
            comp.num_slices, threads=threads)
    return Parafac2Factors(H=h, V=v, W=w, Q=q), objective, comp


def _procrustes(x, v, h, w_row, rank):
    target = x @ v
    target = target * w_row
    target = target @ h.T
    trip = truncated_svd(target, rank)
    return trip.U @ trip.V.T


def replay_baseline(tensor, rank, opts, tracer):
    """``fit_baseline(tensor, rank, opts)``; returns factors, objective and None.

    An iteration's self time is its Procrustes solves plus the projection
    of every slice onto its Q_k.
    """
    threads = resolve_threads(opts.threads)
    num = tensor.num_slices
    h, v, w = initial_factors(tensor.num_cols, num, rank, opts.seed)
    objective = []
    for _ in range(opts.max_iters):
        with tracer.span("baseline.iter"):
            hh, vv, ww = h, v, w
            q = parallel_slice_map(
                lambda k: _procrustes(tensor.slices[k], vv, hh, ww[k], rank), num, threads=threads)
            cores = parallel_slice_map(lambda k: q[k].T @ tensor.slices[k], num, threads=threads)
            with tracer.span("baseline.sweep"):
                h, v, w = cp_als_step(cores, h, v, w, normalize=False)
            with tracer.span("baseline.error"):
                e = reconstruction_error(tensor, q, h, v, w, threads=threads)
        objective.append(e)
        if _converged(objective, opts.tol):
            break
    return Parafac2Factors(H=h, V=v, W=w, Q=q), objective, None


REPLAYS = {"dpar2": ("solver.fit", replay_dpar2), "als": ("baseline.fit", replay_baseline)}


def _bits(values):
    return [float(x).hex() for x in values]


def _same_compression(a, b):
    pairs = [(a.col_basis, b.col_basis), (a.weights, b.weights), (a.cores, b.cores),
             *zip(a.slice_bases, b.slice_bases)]
    return (a.rank == b.rank and len(a.slice_bases) == len(b.slice_bases)
            and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs))


def _fidelity(ok, what):
    if not ok:
        raise SystemExit(f"perfbench: traced replay of {what} does not reproduce the "
                         "program bit for bit; no per-layer numbers reported")


def traced_run(archive, wl, tracer):
    """Untraced reference jobs alternated with traced replays of them, then
    replays of the layers the job does not use.  Returns the layer metrics
    and the reference jobs."""
    span_name, replay = REPLAYS[wl.solver]
    references = []
    for _ in range(TRACE_PAIRS):
        tensor = factors = None  # one loaded tensor at a time keeps memory at a job's own
        reference = run_job(archive, wl)
        if reference["problems"]:
            raise SystemExit("perfbench: reference job failed:\n"
                             + "\n".join(reference["problems"]))
        references.append(reference)
        with tracer.span("job"):
            with tracer.span("tensor.load"):
                tensor = load_archive(archive)
            with tracer.span(span_name):
                factors, objective, comp = replay(tensor, wl.rank, SolverOptions(), tracer)
            with tracer.span("analysis.fitness"):
                fit = fitness(tensor, factors)
        _fidelity(_bits(objective) == _bits(reference["objective"]), f"{wl.solver} objective")
        _fidelity(fit.hex() == reference["fitness"].hex(), "fitness")

    # The solver the job does not use, on the same tensor: a real call for
    # reference, then its replay.  ALS is cut short where it is not the job.
    if wl.solver == "dpar2":
        dpar2_refs = references
        opts = SolverOptions(max_iters=BASELINE_REPLAY_ITERS)
        als_objective = fit_baseline(tensor, wl.rank, opts)[1].objective
        with tracer.span("baseline.fit"):
            _, objective, _ = replay_baseline(tensor, wl.rank, opts, tracer)
        _fidelity(_bits(objective) == _bits(als_objective), "als objective")
    else:
        started = time.perf_counter()
        _, trace = fit_dpar2(tensor, wl.rank, SolverOptions())
        dpar2_refs = [{"fit_s": time.perf_counter() - started, "iter_s": trace.seconds,
                       "preprocess_s": trace.preprocess_seconds, "objective": trace.objective}]
        with tracer.span("solver.fit"):
            _, objective, comp = replay_dpar2(tensor, wl.rank, SolverOptions(), tracer)
        _fidelity(_bits(objective) == _bits(dpar2_refs[0]["objective"]), "dpar2 objective")

    rsvd = RsvdParams(rank=wl.rank, seed=0)
    for _ in range(COMPRESS_REPEATS):
        with tracer.span("compress.call"):
            called = compress(tensor, wl.rank, rsvd=rsvd)
        with tracer.span("compress.call_t1"):
            called_t1 = compress(tensor, wl.rank, rsvd=rsvd, threads=1)
        _fidelity(_same_compression(comp, called), "compress()")
        _fidelity(_same_compression(comp, called_t1), "compress(threads=1)")

    compress_s = tracer.median("compress.call")
    t1_s = tracer.median("compress.call_t1")
    ms = 1e3
    return {
        "tensor.load_s": tracer.median("tensor.load"),
        "compress.total_s": compress_s,
        "compress.stage1_s": tracer.median("compress.stage1"),
        "compress.stage2_s": tracer.median("compress.stage2"),
        "compress.t1_s": t1_s,
        "compress.scaling": t1_s / compress_s,
        "compress.ratio": sum(tensor.row_counts) * tensor.num_cols / comp.float_count(),
        "compress.captured_frac": float(np.sum(comp.weights**2)) / tensor.total_sq_norm(),
        "solver.rotations_ms": ms * tracer.median("solver.rotations"),
        "solver.sweep_ms": ms * tracer.median("solver.sweep"),
        "solver.metric_ms": ms * tracer.median("solver.metric"),
        "solver.tail_ms": ms * median(r["fit_s"] - r["preprocess_s"] - sum(r["iter_s"])
                                     for r in dpar2_refs),
        "solver.iterations": len(dpar2_refs[0]["objective"]),
        "baseline.iter_ms": ms * tracer.median("baseline.iter"),
        "baseline.sweep_ms": ms * tracer.median("baseline.sweep"),
        "baseline.error_ms": ms * tracer.median("baseline.error"),
        "baseline.rotate_project_ms": ms * median(tracer.self_times("baseline.iter")),
        "analysis.fitness_s": tracer.median("analysis.fitness"),
        "trace.overhead_s": tracer.median("job") - median(r["total_s"] for r in references),
    }, references


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--archive", required=True)
    parser.add_argument("--workload", required=True, help="Workload as JSON")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None, help="write spans here and run traced")
    args = parser.parse_args(argv)
    wl = Workload.from_json(args.workload)

    out = {}
    if args.trace_out:
        tracer = Tracer()
        warmup = run_job(args.archive, wl)
        out["layers"], references = traced_run(args.archive, wl, tracer)
        out["jobs"] = [warmup, *references]
        tracer.dump(args.trace_out, {"workload": wl.__dict__})
    else:
        out["jobs"] = run_jobs(args.archive, wl, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for job in out["jobs"]:
        job.pop("objective", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
