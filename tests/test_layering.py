"""The package's modules import one way, from earlier layers only."""

import re
from pathlib import Path

import heavytail

PACKAGE = Path(heavytail.__file__).parent

# Each module may import from the modules before it, never from one after it.
LAYERS = ("errors", "_rng", "noise", "graph", "oracle", "estimators", "ease", "simulate",
          "evaluate", "formats", "cli")

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
