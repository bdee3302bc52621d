"""Properties of the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import yaml

import scsparc
from scsparc.harness import _SECTION_KEYS, ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
# public names that only the acceptance tests call, as the references that
# criterion 5 (`asymptotic_se`) and criterion 1 (`compare_to_se`) compare
# the simulation against
TEST_REFERENCES = {"asymptotic_se", "compare_to_se"}
# numpy calls that make a random stream
STREAM_CALLS = {"default_rng", "Generator", "SFC64", "PCG64", "PCG64DXSM", "Philox", "MT19937"}
# (module.function, call) of every stream the package makes, as
# DECISIONS.md documents them: the Gaussian designs on SFC64, the rest on
# default_rng (PCG64)
DOCUMENTED_STREAMS = {
    ("design._draw_row_block", "Generator"),
    ("design._draw_row_block", "SFC64"),
    ("design.DftDesign.__init__", "default_rng"),
    ("message.random_message", "default_rng"),
    ("channel.transmit", "default_rng"),
    ("state_evolution.SectionExpectation.__init__", "default_rng"),
}
# the values SparcParams holds that a function must not take beside it
MODEL_VALUES = {"W", "sigma2", "R", "M"}
# the functions that take W beside params: the design constructors and the
# forwarders to them, because bench/smoke.py builds DftDesign(params, W,
# seed) and substitutes a subclass for harness.build_dft_design (ROADMAP
# item 1 unpins them); DesignOperator.__init__ rejects a W other than
# params.base
W_BESIDE_PARAMS = {
    "design.DesignOperator.__init__",
    "design.DenseGaussianDesign.__init__",
    "design.DftDesign.__init__",
    "design.build_gaussian_design",
    "design.build_dft_design",
}
# installs and restores every probe of bench/run.py (argv[1] is bench/)
PROBE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import run as bench
for name in bench.WORKLOADS:
    run = bench.Run(name, seed=0, trace=True, tiny=True)
    run.install()
    run.tracer.restore()
"""


def test_package_has_no_assert_statements():
    # validation must hold under `python -O`, which strips asserts
    files = sorted(Path(scsparc.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # a reference is a load of the name, an attribute of that name, or a
    # string equal to it (the benchmark patches methods by name); neither
    # its own definition, its `__all__` entry nor a re-export counts
    package = sorted((ROOT / "src" / "scsparc").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert package and bench
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in package + bench}
    exported = {
        elt.value: path
        for path in package
        if path.name != "__init__.py"
        for top in trees[path].body
        if is_all(top)
        for elt in top.value.elts
    }
    assert TEST_REFERENCES <= set(exported)
    used = set()
    for path, tree in trees.items():
        for top in tree.body:
            if is_all(top):
                continue
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name != own or exported.get(name) != path:
                    used.add(name)
    unused = sorted(set(exported) - used - TEST_REFERENCES)
    assert not unused, f"public names that only tests use: {unused}"


def test_every_benchmark_probe_installs_on_the_package():
    # the benchmark patches package functions and methods by name, so a
    # dropped or moved name fails here rather than in a benchmark run; a
    # child process keeps run.py's thread and worker settings out of this one
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT, str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_config_block_shows_every_accepted_key():
    # the README's YAML block is the config reference: it lists each key
    # the harness accepts, no other, and loads as it stands
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(block)
    shown = {(section, key) for section, keys in raw.items() for key in keys}
    accepted = {(section, key) for section, keys in _SECTION_KEYS.items() for key in keys}
    assert not accepted - shown, f"accepted keys missing from README: {sorted(accepted - shown)}"
    assert not shown - accepted, f"README keys the harness rejects: {sorted(shown - accepted)}"
    ExperimentConfig.from_mapping(raw)


def stream_calls(node, scope):
    """(scope.function, name) of every STREAM_CALLS call under node, with
    the scope extended by each class and function it is nested in."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in STREAM_CALLS:
                yield scope, name
        yield from stream_calls(child, inner)


def test_random_streams_are_built_where_documented():
    # a new, moved or re-typed simulation stream changes results, so it
    # must come with an update here and in DECISIONS.md
    files = sorted((ROOT / "src" / "scsparc").glob("*.py"))
    found = {
        call
        for path in files
        for call in stream_calls(ast.parse(path.read_text(), filename=str(path)), path.stem)
    }
    assert found == DOCUMENTED_STREAMS, (
        f"undocumented: {sorted(found - DOCUMENTED_STREAMS)}, "
        f"gone: {sorted(DOCUMENTED_STREAMS - found)}"
    )


def functions(node, scope):
    """(scope.name, node) of every function under node, with the scope
    extended by each class and function it is nested in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from functions(child, name)
        else:
            yield from functions(child, scope)


def test_no_function_takes_model_values_beside_params():
    # a copy of W, sigma2, R or M passed beside the SparcParams that holds
    # them could disagree with it
    files = sorted((ROOT / "src" / "scsparc").glob("*.py"))
    found = set()
    for path in files:
        for name, fn in functions(ast.parse(path.read_text(), filename=str(path)), path.stem):
            args = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            if "params" in args and args & MODEL_VALUES:
                found.add(name)
    assert found == W_BESIDE_PARAMS, (
        f"take model values beside params: {sorted(found - W_BESIDE_PARAMS)}, "
        f"no longer do: {sorted(W_BESIDE_PARAMS - found)}"
    )
