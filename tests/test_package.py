import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhermite
from qhermite.cli import main

MODULES = ["cli", *qhermite.__all__]
SOURCES = sorted(Path(qhermite.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LOADED = ("[m for m in sorted(sys.modules)"
          " if m.startswith('qhermite.') or m in ('mpmath', 'concurrent.futures', 'numpy.ma')]")


def _fresh(code: str):
    """Run `code` in a fresh interpreter on this tree's package; its last stdout line, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(qhermite.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # `import *` fails on a name that is gone, and attribute-wrapping tools
    # that walk __all__ would silently skip it
    mod = importlib.import_module(f"qhermite.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
    exec(f"from qhermite.{name} import *", {})


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined_there(name):
    # each function or class is exported once, by the module that defines it
    mod = importlib.import_module(f"qhermite.{name}")
    foreign = [attr for attr in getattr(mod, "__all__", ())
               if (inspect.isfunction(obj := getattr(mod, attr)) or inspect.isclass(obj))
               and obj.__module__ != mod.__name__]
    assert foreign == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    # a name imported at module level is used in the module or re-exported
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unused = sorted(name for name in imported if name not in used | exported)
    assert unused == []


def _reads(tree) -> set:
    """Every name a module reads: a loaded name, an attribute or an imported name."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_top_level_name(path):
    # a function, class or constant outside __all__ is read somewhere in the package, so a
    # removed path's helper or budget constant cannot stay behind
    tree = ast.parse(path.read_text())
    defined, exported = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.append(name.id)
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = set(ast.literal_eval(node.value))
    read = set().union(*(_reads(ast.parse(p.read_text())) for p in SOURCES))
    dead = sorted(name for name in defined
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in exported and name not in read)
    assert dead == []


# each module's top-level relative imports name only modules before it here, so
# no import cycle can form: the centered-DFT frame lives in spectral_core because
# both discrete_qho and fast_forward apply it; fast_forward imports discrete_qho
# only inside its meter, so the transform's processes never load the eigen-oracle
LAYERS = ("spectral_core", "calibration", "discrete_qho", "fast_forward", "qht_pipeline",
          "hermite_sampling", "corpus", "learning_testers", "cli")


def test_layers_name_every_module():
    assert sorted(p.stem for p in SOURCES if p.stem != "__init__") == sorted(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_module_imports_only_earlier_layers(name):
    # imports inside functions run on first call and are exempt
    tree = ast.parse((Path(qhermite.__file__).parent / f"{name}.py").read_text())
    earlier = LAYERS[:LAYERS.index(name)]
    stack, later = list(tree.body), []
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from .x import y` names module x; `from . import x` names x itself
            targets = [node.module] if node.module else [a.name for a in node.names]
            later += [t for t in targets if t.split(".")[0] not in earlier]
    assert later == []


def _perfbench_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))}


def test_benchmark_imports_resolve():
    # the benchmark harness imports program names directly; a moved or
    # deleted name would fail only when its workload runs
    missing = []
    for file, tree in _perfbench_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qhermite"):
                mod = importlib.import_module(node.module)
                missing += [f"{file}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(mod, alias.name)
                            and importlib.util.find_spec(f"{node.module}.{alias.name}") is None]
    assert missing == []


# the length of each starred argument in workloads.py: commutator_tail_norm's
# *self.tail_args is (N, t_max) from data/tail_norms.json
STARRED_LEN = {"commutator_tail_norm": 2}


def test_benchmark_calls_bind():
    # each call the workloads make into the package binds to the current
    # signature with the same argument shapes, so a changed signature fails
    # here and not only when its workload runs
    tree = _perfbench_trees()["workloads.py"]
    local = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qhermite"):
            mod = importlib.import_module(node.module)   # the package resolves its modules lazily
            local.update({alias.asname or alias.name: getattr(mod, alias.name)
                          for alias in node.names})
    unbound, called = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in local:
            name, fn = func.id, local[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(local.get(func.value.id))):
            name, fn = func.attr, getattr(local[func.value.id], func.attr)
        else:
            continue
        called.add(name)
        n_args = sum(STARRED_LEN[name] if isinstance(a, ast.Starred) else 1 for a in node.args)
        try:
            inspect.signature(fn).bind(*[None] * n_args, **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"workloads.py:{node.lineno} {name}: {exc}")
    assert unbound == []
    assert {"low_energy_error", "commutator_tail_norm", "sample_distribution", "qht_apply",
            "qht_reference", "choose_dimensions", "hermite_basis", "constant", "product_sign",
            "hermite_monomial"} <= called


@pytest.mark.parametrize("n", [1, 2, 3])
def test_benchmark_corpus_matches_the_cli(n):
    # cli_sweeps checks `sample`'s counts against its own copy of the default corpus,
    # so a drift between the two would first show as wrong benchmark outputs
    import numpy as np

    from qhermite import cli

    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses look their module up while built
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    bench = workloads._default_corpus(n)
    ours = dict(cli._default_corpus(n))
    assert list(bench) == list(ours)
    grid = np.stack(np.meshgrid(*[np.linspace(-3.0, 3.0, 13)] * n, indexing="ij"), axis=-1)
    for label, f in ours.items():
        g = bench[label]
        assert (f.arity, f.boolean, f.label) == (g.arity, g.boolean, g.label)
        assert np.array_equal(f.evaluate(grid), g.evaluate(grid))


def test_traced_modules_import():
    # the tracer wraps these modules by name; each must import
    (names,) = [ast.literal_eval(node.value) for node in _perfbench_trees()["tracer.py"].body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets)]
    assert names
    for name in names:
        importlib.import_module(f"qhermite.{name}")


def test_package_import_loads_no_submodule():
    loaded, star = _fresh(f"""
import json, sys
import qhermite
loaded = {LOADED}
ns = {{}}
exec("from qhermite import *", ns)
print(json.dumps([loaded, sorted(k for k in ns if not k.startswith("__"))]))
""")
    assert loaded == []
    assert star == sorted(qhermite.__all__)


@pytest.mark.parametrize("argv, absent", [
    # numpy.ma (loaded by np.setdiff1d, for one) adds about 2 MB and 14 ms
    (["ff-error", "--M", "64", "--N", "2", "--t", "0.5"],
     ["mpmath", "numpy.ma", "qhermite.calibration", "qhermite.hermite_sampling",
      "qhermite.learning_testers", "qhermite.qht_pipeline"]),
    # hermite_basis lives in spectral_core, so only ff-error loads discrete_qho
    (["sample", "--n", "1", "--M", "64", "--D", "3", "--trials", "5"],
     ["mpmath", "qhermite.calibration", "qhermite.discrete_qho", "qhermite.qht_pipeline",
      "qhermite.fast_forward", "qhermite.learning_testers"]),
    # loads qht_pipeline but builds no column; the column build runs on plain
    # threads, so concurrent.futures stays out unless an executor comes back
    (["overlap", "--M", "512", "--n", "3"],
     ["concurrent.futures", "mpmath", "qhermite.discrete_qho", "qhermite.hermite_sampling",
      "qhermite.learning_testers"]),
    (["qht", "--N", "4", "--eps", "0.1"],
     ["mpmath", "qhermite.discrete_qho", "qhermite.hermite_sampling",
      "qhermite.learning_testers"]),
    # the testers' median of 8 chunk means is taken by hand: np.median loads numpy.ma
    (["test", "--M", "256", "--seed", "3"],
     ["mpmath", "numpy.ma", "qhermite.calibration", "qhermite.discrete_qho",
      "qhermite.qht_pipeline", "qhermite.fast_forward"]),
    (["ggl", "--n", "2", "--mode", "sampler", "--seeds", "0"],
     ["mpmath", "qhermite.calibration", "qhermite.discrete_qho", "qhermite.qht_pipeline",
      "qhermite.fast_forward"]),
], ids=["ff-error", "sample", "overlap", "qht", "test", "ggl"])
def test_subcommand_imports_only_what_it_runs(tmp_path, argv, absent):
    code, loaded = _fresh(f"""
import json, sys
from qhermite import cli
code = cli.main({argv + ["--out", str(tmp_path / "out.csv")]!r})
print(json.dumps([code, {LOADED}]))
""")
    assert code == 0
    assert sorted(set(absent) & set(loaded)) == []


def test_fast_forward_loads_discrete_qho_on_demand():
    # the transform applies fast_forward's tables; only the meter needs the eigen-oracle,
    # and it imports what it uses from discrete_qho itself
    before, error = _fresh(f"""
import json, sys
import numpy as np
from qhermite.fast_forward import apply_tables, decompose, evolution_tables, low_energy_error
apply_tables(evolution_tables(64, decompose(0.5)), np.eye(64)[:2])
before = {LOADED}
from qhermite.discrete_qho import build, dense_diagonalize
from qhermite.spectral_core import GridSpec
qho = build(GridSpec(64))
error = low_energy_error(qho, dense_diagonalize(qho), 4, 0.5)
print(json.dumps([before, error]))
""")
    assert "qhermite.discrete_qho" not in before
    assert 0.0 <= error < 1e-12


def test_commutator_lab_loads_mpmath_on_demand():
    before, tail, after = _fresh(f"""
import json, sys
from qhermite.discrete_qho import build, commutator_tail_norm
from qhermite.spectral_core import GridSpec
before = "mpmath" in sys.modules
report = commutator_tail_norm(build(GridSpec(16)), 2, 8)
print(json.dumps([before, report.tail_norm, "mpmath" in sys.modules]))
""")
    assert not before and after
    assert 0.0 < tail < 1.0


CLI_HASHES = Path(__file__).resolve().parent.parent / "tools" / "cli_hashes.py"


def test_cli_hashes_prints_the_selected_outputs(tmp_path):
    # one "sha256  name" line per selected output, in the order named; a second run prints
    # the same lines, and a line is the digest of the file the CLI writes
    def run(*names):
        return subprocess.run([sys.executable, str(CLI_HASHES), *names], capture_output=True,
                              text=True, timeout=120)

    first = run("sample_n1", "qht_N4")
    assert first.returncode == 0
    lines = [line.split("  ") for line in first.stdout.splitlines()]
    assert [name for _, name in lines] == ["sample_n1", "qht_N4"]
    assert all(len(digest) == 64 and set(digest) <= set("0123456789abcdef")
               for digest, _ in lines)
    assert run("sample_n1", "qht_N4").stdout == first.stdout
    assert main(["qht", "--N", "4", "--out", str(tmp_path / "qht.csv")]) == 0
    assert lines[1][0] == hashlib.sha256((tmp_path / "qht.csv").read_bytes()).hexdigest()
    unknown = run("qht_N4", "qht_N5")
    assert unknown.returncode == 1 and unknown.stdout == ""
    assert unknown.stderr.startswith("error: unknown output ['qht_N5']")


LAB_HASHES = Path(__file__).resolve().parent.parent / "tools" / "lab_hashes.py"


def test_lab_hashes_prints_every_field_of_the_selected_grids():
    # the three families' first calls, then their repeat calls on the same grid, one
    # "sha256  family M N t_max call field" line per report field; a second run prints the
    # same lines, a repeat call hashes as its first call, and a line is the field's digest
    from dataclasses import fields

    from qhermite.discrete_qho import TAIL_FAMILIES, TailReport, build, commutator_tail_norm
    from qhermite.spectral_core import GridSpec

    def run(*names):
        return subprocess.run([sys.executable, str(LAB_HASHES), *names], capture_output=True,
                              text=True, timeout=120)

    first = run("64")
    assert first.returncode == 0
    digests = dict(line.split("  ")[::-1] for line in first.stdout.splitlines())
    names = [f.name for f in fields(TailReport)]
    assert list(digests) == [f"{family} M=64 N=1 t_max=30 {call} {name}" for call in ("first", "repeat")
                             for family in TAIL_FAMILIES for name in names]
    assert all(digests[name.replace("first", "repeat")] == digest
               for name, digest in digests.items() if "first" in name)
    assert run("64").stdout == first.stdout
    rep = commutator_tail_norm(build(GridSpec(64)), 1, 30, "p2_anti")
    for name, value in (("tail_norm", rep.tail_norm.hex()), ("products", rep.products)):
        text = json.dumps(value).encode()
        assert digests[f"p2_anti M=64 N=1 t_max=30 first {name}"] == hashlib.sha256(text).hexdigest()
    unknown = run("64", "512")
    assert unknown.returncode == 1 and unknown.stdout == ""
    assert unknown.stderr.startswith("error: unknown grid ['512']")


def test_lab_hashes_prints_the_meter_after_the_grids_named_before_it():
    # "meter" hashes low_energy_error at M = 128 and 512 on its seven (N, t) points, a first
    # call on a fresh dense_diagonalize and then a held one, each line the value's digest
    from qhermite.discrete_qho import build, dense_diagonalize
    from qhermite.fast_forward import low_energy_error
    from qhermite.spectral_core import GridSpec

    points = [(8, 0.45), (8, -0.45), (16, 1.7), (16, -1.7), (8, 3.65), (8, -3.65), (16, 3.0)]
    proc = subprocess.run([sys.executable, str(LAB_HASHES), "64", "meter"], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0
    lines = [line.split("  ")[::-1] for line in proc.stdout.splitlines()]
    assert len(lines) > 28 and all(" M=64 " in name for name, _ in lines[:-28])
    digests = dict(lines[-28:])
    assert list(digests) == [f"meter M={M} N={N} t={t} {call}" for M in (128, 512)
                             for N, t in points for call in ("first", "held")]
    assert all(digests[name.replace("first", "held")] == digest
               for name, digest in digests.items() if "first" in name)
    qho = build(GridSpec(512))
    value = low_energy_error(qho, dense_diagonalize(qho), 16, -1.7)
    text = json.dumps(value.hex()).encode()
    assert digests["meter M=512 N=16 t=-1.7 first"] == hashlib.sha256(text).hexdigest()


CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def test_code_line_counter_sums_its_modules():
    # one line per module of the package, in name order, then the total
    proc = subprocess.run([sys.executable, str(CODE_LINES), str(Path(qhermite.__file__).parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    *modules, (label, total) = [line.split() for line in proc.stdout.splitlines()]
    assert label == "total"
    assert [name for name, _ in modules] == [path.name for path in SOURCES]
    assert sum(int(count) for _, count in modules) == int(total) > 0


def test_code_line_counter_skips_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    source = ('"""Module docstring."""\n'
              "import os  # a comment on a code line\n"
              "\n"
              "# a comment line\n"
              "class A:\n"
              "    'Class docstring.'\n"
              "    def f(self):\n"
              '        """Function docstring,\n'
              '        on two lines."""\n'
              "        return (1,\n"
              "                '''a string that is not a docstring''')\n")
    assert counter.code_lines(source) == 5
