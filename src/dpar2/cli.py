"""Command-line front end.

Four subcommands: ``generate`` writes synthetic tensor archives,
``decompose`` fits one tensor and can save factors plus a run report,
``bench`` sweeps a size/rank/method grid into one CSV, and ``analyze``
explores saved factors (similarity graph, k-NN, random walk with restart,
feature correlations).

Exit codes: 0 success, 2 usage errors (argparse), 3 malformed input or
impossible rank, 4 numeric failure inside a kernel.

The report CSV is one row per iteration with the run configuration and
summary repeated on every row:

    input,method,rank,threads,seed,max_iters,tol,iteration,objective,
    seconds,preprocess_seconds,total_seconds,iterations,fitness,
    compressed_float_count

``fitness`` is blank unless requested, ``compressed_float_count`` is blank
for the uncompressed baseline.  Everything except the timing columns is
deterministic for fixed inputs and flags.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis
from .baseline import fit_baseline
from .errors import DecompositionError, NumericFailure
from .factors import (
    FitTrace,
    SolverOptions,
    load_factors,
    save_factors,
    sha256_file,
    write_csv_rows,
)
from .scheduler import resolve_threads
from .solver import fit_dpar2
from .tensor import (
    MODE_PLANTED,
    MODE_UNIFORM,
    IrregularTensor,
    SyntheticSpec,
    generate,
    load_archive,
    load_csv_dir,
    save_archive,
)

REPORT_HEADER = [
    "input", "method", "rank", "threads", "seed", "max_iters", "tol",
    "iteration", "objective", "seconds", "preprocess_seconds",
    "total_seconds", "iterations", "fitness", "compressed_float_count",
]

BENCH_HEADER = [
    "I", "J", "K", "rank", "method", "threads", "preprocess_seconds",
    "mean_iter_seconds", "total_seconds", "iterations", "fitness",
    "compressed_float_count",
]

_MODE_ALIASES = {
    "uniform": MODE_UNIFORM,
    "planted": MODE_PLANTED,
    MODE_UNIFORM: MODE_UNIFORM,
    MODE_PLANTED: MODE_PLANTED,
}


@dataclass
class RunReport:
    """Config echo plus timing summary for one decomposition run."""

    input: str
    method: str
    rank: int
    threads: int
    seed: int
    max_iters: int
    tol: float
    trace: FitTrace
    total_seconds: float
    fitness: float | None = None

    def rows(self):
        prefix = [self.input, self.method, self.rank, self.threads,
                  self.seed, self.max_iters, self.tol]
        suffix = [self.trace.preprocess_seconds, self.total_seconds,
                  self.trace.iterations, self.fitness,
                  self.trace.compressed_float_count]
        out = []
        for i, (obj, sec) in enumerate(zip(self.trace.objective, self.trace.seconds)):
            out.append(prefix + [i, obj, sec] + suffix)
        return out


def _load_tensor(path, threads):
    p = Path(path)
    if not p.exists():
        raise DecompositionError(f"{path}: no such file or directory")
    if p.is_dir():
        return load_csv_dir(p)
    return load_archive(p, threads=threads)


def _run_method(tensor, method, rank, opts):
    started = time.perf_counter()
    if method == "dpar2":
        factors, trace = fit_dpar2(tensor, rank, opts)
    elif method == "als":
        factors, trace = fit_baseline(tensor, rank, opts)
    else:
        raise ValueError(f"unknown method {method!r}")
    return factors, trace, time.perf_counter() - started


def cmd_generate(args):
    spec = SyntheticSpec(
        rows=args.I, cols=args.J, num_slices=args.K,
        mode=_MODE_ALIASES[args.mode], true_rank=args.rank,
        noise_level=args.noise, seed=args.seed,
    )
    tensor = generate(spec)
    save_archive(tensor, args.out)
    print(f"wrote {args.out}: K={tensor.num_slices} J={tensor.num_cols} "
          f"rows {min(tensor.row_counts)}..{max(tensor.row_counts)}")
    return 0


def cmd_decompose(args):
    threads = resolve_threads(args.threads)
    tensor = _load_tensor(args.input, threads)
    opts = SolverOptions(max_iters=args.max_iters, tol=args.tol, seed=args.seed,
                         threads=args.threads)
    factors, trace, total = _run_method(tensor, args.method, args.rank, opts)
    fit_value = analysis.fitness(tensor, factors, threads=threads) if args.report_fitness else None
    report = RunReport(
        input=str(args.input), method=args.method, rank=args.rank,
        threads=threads, seed=args.seed, max_iters=args.max_iters,
        tol=args.tol, trace=trace, total_seconds=total, fitness=fit_value,
    )
    if args.out_factors:
        extra = {
            "method": args.method,
            "seed": int(args.seed),
            "threads": int(threads),
            "archive_sha256": sha256_file(args.input) if Path(args.input).is_file() else None,
        }
        save_factors(factors, args.out_factors, manifest_extra=extra)
    if args.out_report:
        write_csv_rows(args.out_report, REPORT_HEADER, report.rows())
    last = trace.objective[-1] if trace.objective else float("nan")
    line = (f"{args.method} rank={args.rank} iters={trace.iterations} "
            f"objective={last:.6e} total={total:.3f}s")
    if fit_value is not None:
        line += f" fitness={fit_value:.6f}"
    print(line)
    return 0


def _parse_sizes(values):
    sizes = []
    for chunk in values:
        for part in chunk.split(";"):
            part = part.strip()
            if not part:
                continue
            dims = part.replace("x", ",").split(",")
            if len(dims) != 3:
                raise ValueError(f"size {part!r} is not IxJxK")
            sizes.append(tuple(int(d) for d in dims))
    if not sizes:
        raise ValueError("no sizes given")
    return sizes


def _parse_int_list(text):
    return [int(p) for p in text.split(",") if p.strip()]


def cmd_bench(args):
    sizes = _parse_sizes(args.sizes)
    ranks = _parse_int_list(args.ranks)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("als", "dpar2"):
            raise ValueError(f"unknown method {m!r}")
    threads = resolve_threads(args.threads)
    rows = []
    for rows_i, cols_j, slices_k in sizes:
        spec = SyntheticSpec(rows=rows_i, cols=cols_j, num_slices=slices_k,
                             mode=_MODE_ALIASES[args.mode],
                             true_rank=max(max(ranks), 1), noise_level=args.noise,
                             seed=args.seed)
        tensor = generate(spec)
        for rank in ranks:
            for method in methods:
                opts = SolverOptions(max_iters=args.max_iters, tol=args.tol,
                                     seed=args.seed, threads=threads)
                factors, trace, total = _run_method(tensor, method, rank, opts)
                fit_value = analysis.fitness(tensor, factors, threads=threads)
                mean_iter = (float(np.mean(trace.seconds)) if trace.seconds else None)
                rows.append([
                    rows_i, cols_j, slices_k, rank, method, threads,
                    trace.preprocess_seconds, mean_iter, total,
                    trace.iterations, fit_value, trace.compressed_float_count,
                ])
                print(f"bench I={rows_i} J={cols_j} K={slices_k} rank={rank} "
                      f"method={method}: {total:.3f}s fitness={fit_value:.4f}")
    write_csv_rows(args.out, BENCH_HEADER, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_analyze(args):
    factors = load_factors(args.factors)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    graph = analysis.build_similarity_graph(factors.U, gamma=args.gamma)
    n = graph.num_nodes
    if not 0 <= args.target < n:
        raise DecompositionError(f"target {args.target} out of range [0, {n})")
    sim_rows = [[i] + list(graph.adjacency[i]) for i in range(n)]
    write_csv_rows(outdir / "similarity.csv",
                   ["node"] + [f"n{j}" for j in range(n)], sim_rows)

    neighbours = analysis.knn(graph, args.target, args.knn)
    knn_rows = [[rank + 1, idx, graph.adjacency[args.target, idx]]
                for rank, idx in enumerate(neighbours)]
    write_csv_rows(outdir / "knn.csv", ["rank", "node", "similarity"], knn_rows)

    if args.rwr:
        query = np.zeros(n)
        query[args.target] = 1.0
        params = analysis.RwrParams(
            restart=args.restart, max_iters=args.rwr_iters,
            stop_tol=None if args.strict_iters else 1e-10, query=query,
        )
        scores = analysis.rwr(graph, params)
        write_csv_rows(outdir / "rwr.csv", ["node", "score"],
                       [[i, scores[i]] for i in range(n)])

    if args.pcc:
        corr = analysis.pcc_matrix(factors.V)
        write_csv_rows(outdir / "pcc.csv",
                       ["feature"] + [f"f{j}" for j in range(corr.shape[0])],
                       [[i] + list(corr[i]) for i in range(corr.shape[0])])

    print(f"analyzed {n} slices; outputs in {outdir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpar2",
        description="PARAFAC2 decomposition of irregular dense tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic tensor archive")
    gen.add_argument("--I", type=int, required=True, help="rows per slice (upper bound in planted mode)")
    gen.add_argument("--J", type=int, required=True, help="columns per slice")
    gen.add_argument("--K", type=int, required=True, help="number of slices")
    gen.add_argument("--mode", choices=sorted(_MODE_ALIASES), default="uniform")
    gen.add_argument("--rank", type=int, default=1, help="planted factor rank")
    gen.add_argument("--noise", type=float, default=0.0, help="planted noise level")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    dec = sub.add_parser("decompose", help="fit PARAFAC2 factors to an archive")
    dec.add_argument("input", help="IRT1 archive or directory of slice_*.csv")
    dec.add_argument("--method", choices=("dpar2", "als"), default="dpar2")
    dec.add_argument("--rank", type=int, required=True)
    dec.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: DPAR2_THREADS or CPU count)")
    dec.add_argument("--max-iters", type=int, default=32)
    dec.add_argument("--tol", type=float, default=1e-6)
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--report-fitness", action="store_true")
    dec.add_argument("--out-factors", default=None, help="directory for factor CSVs")
    dec.add_argument("--out-report", default=None, help="per-iteration report CSV")
    dec.set_defaults(func=cmd_decompose)

    ben = sub.add_parser("bench", help="sweep sizes/ranks/methods into one CSV")
    ben.add_argument("--sizes", action="append", required=True,
                     help="IxJxK, repeatable or ';'-separated")
    ben.add_argument("--ranks", default="10")
    ben.add_argument("--methods", default="als,dpar2")
    ben.add_argument("--mode", choices=sorted(_MODE_ALIASES), default="uniform")
    ben.add_argument("--noise", type=float, default=0.0)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--max-iters", type=int, default=5)
    ben.add_argument("--tol", type=float, default=0.0)
    ben.add_argument("--threads", type=int, default=None)
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=cmd_bench)

    ana = sub.add_parser("analyze", help="similarity / k-NN / RWR over saved factors")
    ana.add_argument("factors", help="directory written by decompose --out-factors")
    ana.add_argument("--target", type=int, required=True)
    ana.add_argument("--knn", type=int, default=10)
    ana.add_argument("--rwr", action="store_true")
    ana.add_argument("--rwr-iters", type=int, default=100)
    ana.add_argument("--strict-iters", action="store_true",
                     help="run exactly --rwr-iters steps (no early stop)")
    ana.add_argument("--restart", type=float, default=0.15)
    ana.add_argument("--gamma", type=float, default=analysis.DEFAULT_GAMMA)
    ana.add_argument("--pcc", action="store_true",
                     help="write Pearson correlations between V rows")
    ana.add_argument("--out-dir", required=True)
    ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DecompositionError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
