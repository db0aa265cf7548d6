"""Tests of the benchmark's own code.  Run with ``python3 -m pytest perfbench``."""
from dataclasses import replace
import re
import time

import pytest

import run
from spec import WORKLOADS, import_program, load_benchmark_json
from tracer import Tracer

import_program()

METRIC_NAME = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"
END_TO_END = ["setup_s", "total_s", "fit_s", "iter_ms", "fitness", "peak_rss_mb", "pass_ratio"]
PER_LAYER = [
    "tensor.load_s",
    "compress.total_s", "compress.stage1_s", "compress.stage2_s", "compress.t1_s",
    "compress.scaling", "compress.ratio", "compress.captured_frac",
    "solver.rotations_ms", "solver.sweep_ms", "solver.metric_ms", "solver.tail_ms",
    "solver.iterations",
    "baseline.iter_ms", "baseline.sweep_ms", "baseline.error_ms", "baseline.rotate_project_ms",
    "analysis.fitness_s",
    "trace.overhead_s",
]

# The three workloads shrunk to run in well under a second each, keeping
# their generator mode, solver and fitness floor.
TINY = {
    "paper_scale": replace(WORKLOADS["paper_scale"], rows=40, cols=20, num_slices=6,
                           rank=3, floor=0.5),
    "many_small": replace(WORKLOADS["many_small"], rows=12, cols=8, num_slices=40,
                          rank=3, true_rank=3),
    "als_baseline": replace(WORKLOADS["als_baseline"], rows=30, cols=12, num_slices=8,
                            rank=3, true_rank=3),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generation_is_byte_identical_for_a_seed(tmp_path, name):
    wl = TINY[name]
    written = []
    for seed, path in ((7, "a.irt"), (7, "b.irt"), (8, "c.irt")):
        run.setup(wl, seed, tmp_path / path)
        written.append((tmp_path / path).read_bytes())
    assert written[0] == written[1]
    assert written[0] != written[2]


def test_metric_names_match_the_catalog():
    bench = load_benchmark_json()
    for kind, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        names = [m["name"] for m in bench[kind]]
        assert names == expected
        assert all(re.fullmatch(METRIC_NAME, n) for n in names)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    (outer,), (inner,) = tracer.durations("outer"), tracer.durations("inner")
    (own,) = tracer.self_times("outer")
    assert own == pytest.approx(outer - inner)
    assert 0.005 < own < inner


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workloads_run_clean(tmp_path, name, trace):
    bench = load_benchmark_json()
    expected = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    attempted, failed, metrics, problems = run.measure(TINY[name], 3, 0.1, trace, tmp_path)
    assert (failed, problems) == (0, [])
    assert attempted >= 2
    assert set(metrics) == expected
    assert not list(tmp_path.glob("*.irt"))
    if trace:
        assert (tmp_path / f"trace-{name}-3.json").is_file()
        assert metrics["solver.iterations"] >= 1
    else:
        assert metrics["pass_ratio"] == 1.0
