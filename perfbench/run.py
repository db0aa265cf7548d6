"""The repo benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper_scale --seed 0 --seconds 25 --trace 0

Set-up generates the workload's tensor from ``--seed`` and writes it as an
``.irt`` archive, several times, and reports the median.  A separate job
process (``worker.py``) then runs jobs from that archive: a closed loop of
one caller, each job started when the previous one ends.  With
``--trace 0`` the run reports every end-to-end metric in ``BENCHMARK.json``;
with ``--trace 1`` it replays a job with spans around each layer and
reports every per-layer metric, writing the spans under
``.perfbench_work/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every line before it is for
people: the host record, each metric with its unit, and the failures.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy

from spec import WORK, WORKLOADS, import_program, load_benchmark_json

import_program()

from dpar2.scheduler import resolve_threads  # noqa: E402
from dpar2.tensor import SyntheticSpec, generate, save_archive  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUPS = 5
WORKER_TIMEOUT_S = 150


def blas_threads():
    """OpenBLAS thread count read from numpy's bundled library; never set."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return "unknown"


def host_record():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "resolve_threads": resolve_threads(),
        "DPAR2_THREADS": os.environ.get("DPAR2_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
    }


def setup(wl, seed, archive):
    """Generate the workload's tensor and write it; returns the seconds taken."""
    started = time.perf_counter()
    spec = SyntheticSpec(rows=wl.rows, cols=wl.cols, num_slices=wl.num_slices, mode=wl.mode,
                         true_rank=wl.true_rank, noise_level=wl.noise, seed=seed)
    save_archive(generate(spec), archive)
    return time.perf_counter() - started


def measure(wl, seed, seconds, trace, workdir):
    """Set up, run the job process, and return (attempted, failed, metrics, problems)."""
    workdir.mkdir(parents=True, exist_ok=True)
    archive = workdir / f"{wl.name}.irt"
    trace_path = workdir / f"trace-{wl.name}-{seed}.json"
    try:
        setups = [setup(wl, seed, archive) for _ in range(SETUPS)]
        cmd = [sys.executable, str(HERE / "worker.py"), "--archive", str(archive),
               "--workload", wl.to_json(), "--seconds", str(seconds)]
        if trace:
            cmd += ["--trace-out", str(trace_path)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        archive.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: job process exited with {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])

    jobs = out["jobs"]
    problems = [p for job in jobs for p in job["problems"]]
    failed = sum(1 for job in jobs if job["problems"])
    if trace:
        return len(jobs), failed, out["layers"], problems
    timed = [job for job in jobs[1:] if "total_s" in job]
    if not timed:
        raise SystemExit("perfbench: no timed job completed:\n" + "\n".join(problems))
    metrics = {
        "setup_s": median(setups),
        "total_s": median(job["total_s"] for job in timed),
        "fit_s": median(job["fit_s"] for job in timed),
        "iter_ms": 1e3 * median(s for job in timed for s in job["iter_s"]),
        "fitness": median(job["fitness"] for job in timed),
        "peak_rss_mb": out["peak_rss_mb"],
        "pass_ratio": (len(jobs) - failed) / len(jobs),
    }
    return len(jobs), failed, metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = load_benchmark_json()
    catalog = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in catalog}

    wl = WORKLOADS[args.workload]
    print("host " + json.dumps(host_record()), flush=True)
    attempted, failed, metrics, problems = measure(wl, args.seed, args.seconds,
                                                   bool(args.trace), WORK)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json "
                         f"lists {sorted(units)}")
    for problem in problems:
        print("failed job: " + problem.strip().replace("\n", "\n    "))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {attempted} jobs "
          f"attempted (1 warm-up), {failed} failed, fail_ratio {failed / attempted:g}")
    for name in units:
        print(f"  {name:28s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
