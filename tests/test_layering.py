"""The package's layering: modules import one way, from earlier layers only,
and use one another through public names; the package exports names, not
modules."""

import ast
import re
import types
from pathlib import Path

import heavytail

PACKAGE = Path(heavytail.__file__).parent

# Each module may import from the modules before it, never from one after it.
LAYERS = ("errors", "_rng", "noise", "graph", "data", "simulate", "oracle", "estimators",
          "ease", "evaluate", "formats", "cli")

RELATIVE_IMPORT = re.compile(r"^\s*from \.(\w*) import", re.MULTILINE)


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_run_from_earlier_layers_only():
    backward = []
    for index, module in enumerate(LAYERS):
        text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        for imported in RELATIVE_IMPORT.findall(text):
            # "from . import __version__" reads the package's version string
            if imported and imported not in LAYERS[:index]:
                backward.append(f"{module} imports {imported}")
    assert backward == []


def private_crossings(package: Path) -> list:
    """Private names each module of ``package`` takes from another module.

    A crossing is a relative import of a private name, or an attribute
    access ``x._name`` where ``_name`` is defined nowhere in the accessing
    module (as a function, class, variable, argument or assigned
    attribute). Dunder names are public.
    """
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    crossings = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossings += [f"{path.stem} imports {alias.name} from .{node.module or ''}"
                              for alias in node.names if private(alias.name)]
            elif (isinstance(node, ast.Attribute) and private(node.attr)
                    and node.attr not in defined):
                crossings.append(f"{path.stem} uses .{node.attr}")
    return crossings


def test_no_private_name_crosses_a_module():
    assert private_crossings(PACKAGE) == []


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(heavytail.__all__)) == len(heavytail.__all__)
    values = [getattr(heavytail, name) for name in heavytail.__all__]
    assert not [v for v in values if isinstance(v, types.ModuleType)]
    namespace = {}
    exec("from heavytail import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(heavytail.__all__)
