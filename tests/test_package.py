"""Package surface: the public exports, the settable sketch options, the
runtime dependencies, where worker threads start, the one way round the
tensor constructor and the README example."""
import ast
import dataclasses
import inspect
import re
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


def absolute_imports(tree):
    """The top-level module of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def parsed_sources():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def top_level_owners(tree):
    """The name of the top-level function around each node of ``tree``, by node id."""
    return {id(node): fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)}


def test_runtime_imports_are_stdlib_or_numpy():
    foreign = [f"{name}: {root}" for name, tree in parsed_sources()
               for root in absolute_imports(tree)
               if root != "numpy" and root not in sys.stdlib_module_names]
    assert foreign == []


def test_threads_start_only_in_the_scheduler():
    # scheduler.map_stacks is the one runner of stacks: it names the lowest
    # failing slice, which parallel_slice_map over stacks does not.
    sources = dict(parsed_sources())
    found = [f"{name} imports {root}" for name, tree in sources.items() if name != "scheduler.py"
             for root in absolute_imports(tree) if root in ("threading", "concurrent")]
    found += ["compress.py calls parallel_slice_map" for node in ast.walk(sources["compress.py"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "parallel_slice_map"]
    assert found == []


def test_one_thread_runner():
    # scheduler.map_stacks is the package's only thread runner, so no
    # executor or second runner can come back with its own failure rule.
    found = []
    for name, tree in parsed_sources():
        found += [f"{name} imports concurrent" for root in absolute_imports(tree)
                  if root == "concurrent"]
        owner = top_level_owners(tree)
        found += [f"{name}:{node.lineno} starts a thread in {owner.get(id(node))}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in ("threading.Thread", "Thread")
                  and (name, owner.get(id(node))) != ("scheduler.py", "map_stacks")]
    assert found == []


def test_only_the_builder_skips_the_constructor():
    # Every tensor is laid out by tensor._built, which checks and freezes
    # what its workers fill; the constructor checks shapes and copies
    # through it.  So no second unchecked way in can come back.
    calls = []
    for name, tree in parsed_sources():
        owner = top_level_owners(tree)
        calls += [(name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__new__"]
    assert calls == [("tensor.py", "_built")]


def test_stacked_passes_plan_through_one_call():
    # Only the scheduler resolves a thread count or splits work: every pass
    # calls one of its planners, not the steps they are made of.  cli.py
    # resolves the count it reports, and __init__.py re-exports names.
    found = [f"{name} references {ident}" for name, tree in parsed_sources()
             if name not in ("scheduler.py", "__init__.py")
             for node in ast.walk(tree)
             for ident in (getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "name", None))
             if ident in ("greedy_partition", "resolve_threads", "contiguous_chunks")
             and (name, ident) != ("cli.py", "resolve_threads")]
    assert found == []
    assert list(inspect.signature(dpar2.scheduler.map_stacks).parameters) == [
        "fn", "stacks", "groups"]


def test_sketches_draw_from_no_generator():
    # Test matrices and derived seeds are hashed from their seeds, so the
    # sketch cannot drift back to seeding a generator per slice.
    tree = dict(parsed_sources())["linalg.py"]
    found = [ast.unparse(node) for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and ast.unparse(node) == "np.random")
             or getattr(node, "id", None) == "SeedSequence"
             or getattr(node, "attr", None) == "SeedSequence"
             or (isinstance(node, ast.ImportFrom) and node.module == "numpy.random")]
    assert found == []


def test_readme_library_example_runs(capsys):
    # The first python block of README.md is the "Library" example; running
    # it keeps the documented calls in step with the API.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    fit_value, iterations, _ = capsys.readouterr().out.split()
    assert 0.0 < float(fit_value) <= 1.0 and 1 <= int(iterations) <= 32
