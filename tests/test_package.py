import ast
import importlib
import inspect
from pathlib import Path

import pytest

import qhermite

MODULES = ["cli", *qhermite.__all__]
SOURCES = sorted(Path(qhermite.__file__).parent.glob("*.py"))


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
