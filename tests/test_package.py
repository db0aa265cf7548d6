"""Package surface: the public exports, the settable sketch options, how
settings, matrix arguments and complex input are checked, how array containers
compare, the runtime dependencies and unused imports, where worker threads
start, that no pass goes slice by slice, that DPar2 iterates through its
public steps, the one way round the tensor constructor and into its
layout, and the README example."""
import ast
import dataclasses
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import dpar2
from dpar2.analysis import (RwrParams, SimilarityGraph, build_similarity_graph, pcc_matrix, rwr,
                            similarity)
from dpar2.errors import NonFiniteInputError, ShapeMismatchError
from dpar2.tensor import MODE_PLANTED

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


def tiny():
    return dpar2.IrregularTensor([np.arange(12.0).reshape(4, 3) % 5, np.eye(5, 3)])


def planted(**fields):
    return dpar2.SyntheticSpec(rows=6, cols=4, num_slices=3, mode=MODE_PLANTED, true_rank=2,
                               **fields)


# What each case did, as its comment says, while every setting checked its
# own type by hand or not at all.
HOLES = {
    "tol=True": ("tol", lambda: dpar2.SolverOptions(tol=True)),  # accepted
    "tol=np.True_": ("tol", lambda: dpar2.SolverOptions(tol=np.True_)),  # accepted
    "tol=None": ("tol", lambda: dpar2.SolverOptions(tol=None)),  # TypeError
    "tol=str": ("tol", lambda: dpar2.SolverOptions(tol="1e-6")),  # TypeError
    "tol=10**400": ("tol", lambda: dpar2.SolverOptions(tol=10**400)),  # OverflowError later
    "threads=1.5": ("threads", lambda: dpar2.SolverOptions(threads=1.5)),  # accepted when made
    "threads=0": ("threads", lambda: dpar2.SolverOptions(threads=0)),  # accepted when made
    "stop_tol=True": ("stop_tol", lambda: RwrParams(stop_tol=True)),  # accepted
    "stop_tol=str": ("stop_tol", lambda: RwrParams(stop_tol="0")),  # TypeError
    "restart=str": ("restart", lambda: RwrParams(restart="0.15")),  # TypeError
    "noise_level=True": ("noise_level", lambda: planted(noise_level=True)),  # generated at 1.0
    "noise_level=str": ("noise_level", lambda: planted(noise_level="0.1")),  # TypeError later
    "similarity gamma=str": ("gamma", lambda: similarity(np.zeros((2, 2)), np.ones((2, 2)),
                                                         gamma="0.1")),  # TypeError
    "graph gamma=str": ("gamma", lambda: build_similarity_graph(
        [np.zeros((2, 2)), np.ones((2, 2))], gamma="0.1")),  # TypeError
    "rsvd seed=1.0": ("seed", lambda: dpar2.RsvdParams(rank=2, seed=1.0)),  # TypeError later
    "rsvd seed=True": ("seed", lambda: dpar2.RsvdParams(rank=2, seed=True)),  # ran
    "rsvd rank=True": ("rank", lambda: dpar2.RsvdParams(rank=True)),  # ran
    "compress rank=True": ("rank", lambda: dpar2.compress(tiny(), True)),  # ran at 1
    "fit_dpar2 rank=True": ("rank", lambda: dpar2.fit_dpar2(tiny(), True)),  # TypeError
    "fit_baseline rank=2.0": ("rank", lambda: dpar2.fit_baseline(tiny(), 2.0)),  # TypeError
    "truncated_svd rank=True": ("rank", lambda: dpar2.truncated_svd(np.eye(3), True)),  # ran at 1
    "truncated_svd rank=2.0": ("rank", lambda: dpar2.truncated_svd(np.eye(3), 2.0)),  # TypeError
}


@pytest.mark.parametrize("field, make", HOLES.values(), ids=HOLES.keys())
def test_settings_of_the_wrong_type_raise_value_error_naming_the_field(field, make):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        make()


# Each matrix argument checked by factors.as_matrix: its name in the error,
# and a call that passes ``m`` as that argument.
MATRIX_ARGUMENTS = {
    "truncated_svd": ("input", lambda m: dpar2.truncated_svd(m, 1)),
    "pinv_small": ("input", dpar2.pinv_small),
    "randomized_svd": ("input", lambda m: dpar2.randomized_svd(m, dpar2.RsvdParams(rank=1))),
    "similarity": ("u_b", lambda m: similarity(np.eye(3), m)),
    "build_similarity_graph": ("factor 1", lambda m: build_similarity_graph([np.eye(3), m])),
    "pcc_matrix": ("v", pcc_matrix),
    "rwr": ("adjacency", lambda m: rwr(SimilarityGraph(adjacency=m),
                                       RwrParams(query=np.array([1.0, 0.0, 0.0])))),
}


@pytest.mark.parametrize("function", MATRIX_ARGUMENTS)
def test_every_matrix_argument_is_checked_by_one_rule(function):
    name, call = MATRIX_ARGUMENTS[function]
    # Complex input lost its imaginary part with only a ComplexWarning
    # (similarity(z, z.real) was 1.0), and a NaN factor gave NaN scores.
    with pytest.raises(ValueError, match=f"^{name} is complex"):
        call(np.eye(3) * (1.0 + 1.0j))
    with pytest.raises(NonFiniteInputError, match=f"^{name} contains non-finite values"):
        call(np.where(np.eye(3) > 0, np.nan, 1.0))
    with pytest.raises(ShapeMismatchError):
        call(np.ones(3))
    if function != "randomized_svd":  # it takes (G, m, n) stacks
        with pytest.raises(ShapeMismatchError):
            call(np.ones((1, 3, 3)))


def test_the_matrix_rule_lives_in_factors():
    assert issubclass(NonFiniteInputError, ValueError)
    assert not hasattr(dpar2.linalg, "_as_matrix")


def test_complex_input_is_checked_in_factors():
    # factors.as_float_array is the one complex check of an array argument.
    # IrregularTensor keeps its own: converting there would hold a float64
    # copy of every non-float64 slice before the buffer copy.
    found = []
    for name, tree in parsed_sources():
        owner = top_level_owners(tree)
        found += [f"{name}:{node.lineno} in {owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.iscomplexobj"
                  and name != "factors.py"
                  and (name, owner.get(id(node))) != ("tensor.py", "IrregularTensor.__post_init__")]
    assert found == []


def test_settings_keep_numpy_scalars_as_python_numbers():
    opts = dpar2.SolverOptions(tol=np.float32(0.5), seed=np.int64(3), threads=np.int8(2))
    rsvd = dpar2.RsvdParams(rank=np.int64(2), seed=np.uint64(2**63 + 5))
    rwr = RwrParams(restart=np.float64(0.25), stop_tol=np.float16(0.0))
    kept = [(opts.tol, float), (opts.seed, int), (opts.threads, int), (rsvd.rank, int),
            (rsvd.seed, int), (rwr.restart, float), (rwr.stop_tol, float),
            (planted(noise_level=np.float64(0.1)).noise_level, float)]
    assert [type(value) for value, _ in kept] == [want for _, want in kept]
    assert [value for value, _ in kept] == [0.5, 3, 2, 2, 2**63 + 5, 0.25, 0.0, 0.1]


def test_numpy_seed_compresses_as_the_python_seed():
    # np.int64 overflowed in the seed hash.
    t = tiny()
    got = dpar2.compress(t, 2, dpar2.RsvdParams(rank=2, seed=np.int64(5)), threads=1)
    want = dpar2.compress(t, 2, dpar2.RsvdParams(rank=2, seed=5), threads=1)
    for name in ("col_basis", "weights", "cores"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.slice_bases, want.slice_bases))


def test_array_containers_compare_by_identity_and_print_short():
    # == on their arrays raised ValueError, and the repr of a 2000-slice
    # planted tensor ran to 12 MB.
    t = dpar2.generate(dpar2.SyntheticSpec(rows=50, cols=30, num_slices=2000, mode=MODE_PLANTED,
                                           true_rank=5, noise_level=0.1))
    u = dpar2.IrregularTensor(t.slices)
    assert t == t and t != u and u not in [t]
    assert len(repr(t)) < 200
    factors, _ = dpar2.fit_dpar2(tiny(), 2, dpar2.SolverOptions(max_iters=2))
    comp = dpar2.compress(tiny(), 2)
    graph = build_similarity_graph([np.zeros((2, 2)), np.ones((2, 2))])
    trip = dpar2.randomized_svd(np.eye(4), dpar2.RsvdParams(rank=2))
    for record in (factors, comp, graph, trip, RwrParams()):
        assert record == record and record != dataclasses.replace(record)
    assert all(len(repr(x)) < 200 for x in (factors, comp))
    hash(RwrParams())


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
    """The name of the top-level function or method ("Class.method")
    around each node of ``tree``, by node id."""
    functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    functions += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    return {id(node): name for name, fn in functions for node in ast.walk(fn)}


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


def test_only_the_builder_and_stack_read_the_layout():
    # A tensor's buffer and slice offsets belong to tensor._built, which
    # lays them out, and IrregularTensor.stack, which cuts views of them;
    # every other pass goes through slices or stack.
    found = []
    for name, tree in parsed_sources():
        owner = top_level_owners(tree)
        found += [f"{name}:{node.lineno} in {owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("_starts", "_buffer")
                  and (name, owner.get(id(node))) not in (("tensor.py", "_built"),
                                                          ("tensor.py", "IrregularTensor.stack"))]
    assert found == []


def test_every_top_level_import_is_used():
    found = []
    for name, tree in parsed_sources():
        if name == "__init__.py":  # its imports are the exports
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{name} imports {bound}" for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  for bound in [alias.asname or alias.name.split(".")[0]] if bound not in used]
    assert found == []


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


def test_only_factors_checks_for_bool():
    # factors.as_integer and factors.as_real are the one place a bool is
    # told from a number, so no hand-rolled type check comes back.
    found = [f"{name}:{node.lineno}" for name, tree in parsed_sources() if name != "factors.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
             and len(node.args) == 2
             and any(getattr(part, "id", None) == "bool"
                     or getattr(part, "attr", None) in ("bool", "bool_")
                     for part in ast.walk(node.args[1]))]
    assert found == []


def test_only_factors_checks_a_lower_bound():
    # factors.as_integer holds the one "must be >=" rule, so no count or
    # rank setting writes out its own bound check again.
    found = [f"{name}:{node.lineno}" for name, tree in parsed_sources() if name != "factors.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "must be >=" in node.value]
    assert found == []


def test_no_pass_goes_slice_by_slice():
    # Every pass over X runs by stack or by run through map_stacks;
    # parallel_slice_map stays exported for callers outside the package.
    found = [f"{name}:{node.lineno}" for name, tree in parsed_sources()
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "parallel_slice_map"
             and name not in ("scheduler.py", "__init__.py")]
    assert found == []


def test_only_sketches_fix_signs():
    # Z P^T, U V^T and Theta do not depend on the SVD's signs, so both
    # solvers keep the factors as the SVD returns them; the convention is
    # for the sketches' singular vectors only.
    found = [f"{name}:{node.lineno}" for name, tree in parsed_sources() if name != "linalg.py"
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "fix_signs" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert found == []


def test_dpar2_iterates_through_its_public_steps():
    # DPar2 is ALS on the compressed slices: fit_dpar2's step is
    # update_rotations, update_factors and convergence_metric, so no fused
    # second copy of the sweep or the objective can come back.
    tree = dict(parsed_sources())["solver.py"]
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint({"_scaled_cores", "_objective"})
    owner = top_level_owners(tree)
    called = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and owner.get(id(node)) == "fit_dpar2"}
    assert {"update_rotations", "update_factors", "convergence_metric"} <= called
    assert "als_sweep" not in called


def test_readme_library_example_runs(capsys):
    # The first python block of README.md is the "Library" example; running
    # it keeps the documented calls in step with the API.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    fit_value, iterations, _ = capsys.readouterr().out.split()
    assert 0.0 < float(fit_value) <= 1.0 and 1 <= int(iterations) <= 32
