"""Package surface: the public exports, the settable sketch options and the
runtime dependencies."""
import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import dpar2

SRC = Path(dpar2.__file__).parent


def test_every_export_resolves_once():
    assert len(dpar2.__all__) == len(set(dpar2.__all__))
    missing = [name for name in dpar2.__all__ if not hasattr(dpar2, name)]
    assert missing == []


def test_sketch_settings_are_rank_and_seed_only():
    # Oversampling, the power-step count and the slice plan are fixed by
    # the program, not options.
    assert [f.name for f in dataclasses.fields(dpar2.RsvdParams)] == ["rank", "seed"]
    assert list(inspect.signature(dpar2.compress).parameters) == [
        "tensor", "rank", "rsvd", "threads"]


def test_runtime_imports_are_stdlib_or_numpy():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}: {root}" for root in roots
                        if root != "numpy" and root not in sys.stdlib_module_names]
    assert foreign == []
