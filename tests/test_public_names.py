import ast
import importlib
import pathlib

import pytest

import weingarten

LAYERS = ("cli", "estimates", "geom", "hchart", "problem", "solver", "symk")
INIT = ast.parse(pathlib.Path(weingarten.__file__).read_text(encoding="utf-8"))
# each layer's __all__, then the names the package __init__ imports from each layer
CASES = [pytest.param(layer, importlib.import_module(f"weingarten.{layer}").__all__,
                      id=f"{layer}.__all__") for layer in LAYERS]
CASES += [pytest.param(node.module, [alias.name for alias in node.names],
                       id=f"__init__ from {node.module}")
          for node in INIT.body if isinstance(node, ast.ImportFrom) and node.level == 1]


@pytest.mark.parametrize("layer, names", CASES)
def test_public_names_resolve(layer, names):
    module = importlib.import_module(f"weingarten.{layer}")
    assert [name for name in names if not hasattr(module, name)] == []
