"""What the benchmark runs: its workloads, its metrics, and where the program lives.

The benchmark measures the ``dpar2`` package from outside.  It imports the
package from ``src/`` of the checkout it sits in and calls public
functions only; it sets no thread count and no BLAS environment variable,
so every number is for the defaults a user gets.

The workload rationale ("why") and each metric's unit, direction and
regression bound live in ``BENCHMARK.json`` at the checkout root; this
module holds what the code needs to build and check each workload.
"""
from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    """One generated tensor and the job run on it.

    ``floor`` is the lowest fitness a job may report and still count as
    correct.  On planted tensors with noise level n the noise holds an n²
    share of ‖X‖², so a good fit reaches about 1 - n²; the floor 1 - 2n²
    leaves room for the solver's own error.  On uniform random data there
    is no planted model and the floor is a stated value under the fitness
    measured at seed 0.
    """

    name: str
    mode: str
    rows: int
    cols: int
    num_slices: int
    rank: int
    solver: str
    floor: float
    true_rank: int = 1
    noise: float = 0.0

    def to_json(self):
        return json.dumps(self.__dict__)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_scale", "uniform_random", rows=2000, cols=500, num_slices=100,
                 rank=10, solver="dpar2", floor=0.74),
        Workload("many_small", "planted_parafac2", rows=50, cols=30, num_slices=2000,
                 rank=5, solver="dpar2", floor=1 - 2 * 0.1**2, true_rank=5, noise=0.1),
        Workload("als_baseline", "planted_parafac2", rows=1000, cols=200, num_slices=100,
                 rank=8, solver="als", floor=1 - 2 * 0.1**2, true_rank=8, noise=0.1),
    )
}

# Iterations of the ALS replay in a traced run of a workload whose job is
# fit_dpar2: enough for a per-iteration median, few enough that the replay
# stays a small share of a run at paper scale (about 1 s per iteration).
BASELINE_REPLAY_ITERS = 3


def load_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program():
    """Import ``dpar2`` from this checkout's ``src/``, never from elsewhere.

    Raises ``SystemExit`` with a message when the checkout holds no program.
    """
    if not (SRC / "dpar2" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'dpar2'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("dpar2")
    if Path(module.__file__).resolve().parent != (SRC / "dpar2").resolve():
        raise SystemExit(f"perfbench: imported dpar2 from {module.__file__}, not from {SRC}")
    return module
