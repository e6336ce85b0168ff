import importlib

import pytest

import qhermite


@pytest.mark.parametrize("name", ["cli", *qhermite.__all__])
def test_every_exported_name_resolves(name):
    # `import *` fails on a name that is gone, and attribute-wrapping tools
    # that walk __all__ would silently skip it
    mod = importlib.import_module(f"qhermite.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
    exec(f"from qhermite.{name} import *", {})
