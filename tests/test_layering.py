"""The package's layering: modules import one way, from earlier layers only,
and use one another through public names; the package exports a pinned set of
names, not modules, and keeps the names the traced benchmark reaches."""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import heavytail

PACKAGE = Path(heavytail.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

EXPORTED = {
    "CapacityError", "ConfigError", "DomainError", "HeavytailError", "ModeError",
    "ValidationError",
    "HillEstimate", "NoiseSpec", "hill_tail_index", "sample_noise",
    "CausalOrder", "Dag", "GeneratorConfig", "Scm", "check_path_faithful", "path_weights",
    "random_scm",
    "Dataset",
    "GridSpec", "Scenario", "SimSetting", "simulate", "simulate_grid",
    "COMMON_CAUSE", "I_CAUSES_J", "INDETERMINATE", "J_CAUSES_I", "NO_CAUSAL_LINK",
    "CoefMatrix", "classify_pair", "gamma_population", "mistake_bound_margin",
    "psi_population",
    "EstimatorConfig", "coefficient_matrix", "ecdf_values", "gamma_estimate",
    "psi_estimate", "resolve_k",
    "EaseStep", "ease", "ease_trace",
    "BenchmarkRow", "OrderScore", "SensitivityRow", "benchmark", "k_sensitivity",
    "score_order", "sensitivity_rows_to_csv",
}

# Each module may import from the modules before it, never from one after it.
LAYERS = ("errors", "_rng", "noise", "graph", "data", "oracle", "simulate", "estimators",
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


def test_oracle_is_a_leaf():
    # the closed-form ground truth shares no module with the estimation path it checks
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if "oracle" in RELATIVE_IMPORT.findall(path.read_text(encoding="utf-8"))]
    assert importers == ["__init__", "cli"]


def test_evaluate_draws_every_replicate_from_simulate_grid():
    # one replicate runner: the sweeps take their replicates from simulate_grid,
    # never from a simulate() loop or seeding scheme of their own
    tree = ast.parse((PACKAGE / "evaluate.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("simulate", "heavytail.simulate"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert all(alias.name.split(".")[-1] != "simulate" for alias in node.names)
    assert imported == {"GridSpec", "Scenario", "simulate_grid"}


def test_moved_names_keep_their_old_homes():
    import heavytail.data
    import heavytail.estimators
    import heavytail.oracle

    assert heavytail.CoefMatrix is heavytail.data.CoefMatrix is heavytail.oracle.CoefMatrix
    assert heavytail.oracle.KINDS is heavytail.data.KINDS
    assert heavytail.estimators.Dataset is heavytail.data.Dataset


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


def test_only_graph_builds_a_dag():
    # one construction: an SCM builds its Dag from its coefficient keys, so no
    # other module states an edge set a second time
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "Dag" in (getattr(node.func, "id", None),
                                                        getattr(node.func, "attr", None)):
                callers.append(path.stem)
    assert set(callers) == {"graph"}


def test_every_document_reader_goes_through_one_rule():
    # one document rule: each reader hands its document to formats._document,
    # and no reader maps a missing key of its own by catching KeyError
    readers = {"read_grid", "_noise_from_dict", "scm_node_count", "matrix_from_dict",
               "order_names_from_dict"}
    catching_key_errors = {"KeyError", "LookupError", "Exception", "BaseException"}
    callers, catchers = set(), []
    for node in ast.walk(ast.parse((PACKAGE / "formats.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_document"
                for call in ast.walk(node)):
            callers.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and (node.type is None or catching_key_errors & {
                getattr(name, "id", None) for name in ast.walk(node.type)}):
            catchers.append(node.lineno)
    assert readers - callers == set()
    assert catchers == []


def test_every_integer_input_goes_through_one_rule():
    # one integer rule: errors.integer makes the only operator.index call, and
    # graph, whose node ids are checked on every edge, has no integer helper of
    # its own: no int() or __index__ call, no isinstance test against int or
    # bool, no numbers.Integral
    importers, graph_helpers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            else:
                modules = {getattr(node, "module", None)}
            if "operator" in modules and path.stem != "errors":
                importers.append(f"{path.stem}:{node.lineno}")
            if path.stem != "graph":
                continue
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                tested = {getattr(arg, "id", None) for arg in ast.walk(node)}
                if called in ("int", "__index__") or (
                        called == "isinstance" and tested & {"int", "bool"}):
                    graph_helpers.append(f"graph:{node.lineno} {called}")
            elif "Integral" in (getattr(node, "id", None), getattr(node, "attr", None)):
                graph_helpers.append(f"graph:{node.lineno} Integral")
    assert importers == []
    assert graph_helpers == []


def test_no_module_keeps_state_in_closures():
    # state that outlives a call lives in an object, where a test can reach
    # it, not in a closure's nonlocal cells
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Nonlocal):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(heavytail.__all__)) == len(heavytail.__all__)
    values = [getattr(heavytail, name) for name in heavytail.__all__]
    assert not [v for v in values if isinstance(v, types.ModuleType)]
    namespace = {}
    exec("from heavytail import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(heavytail.__all__)


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 49
    assert set(heavytail.__all__) == EXPORTED


def referenced_names(package: Path) -> set:
    """Names the modules of ``package`` read, the package's __init__ aside.

    A read is a name or an attribute loaded anywhere but inside the top-level
    definition of that same name, so a function calling itself does not count.
    """
    names = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            read = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            read.discard(getattr(statement, "name", None))
            names |= read
    return names


def test_every_exported_name_has_a_caller_or_a_readme_line():
    # the library holds what its callers use; a name kept for the paper's
    # vocabulary says why in the README
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = referenced_names(PACKAGE)
    orphans = [name for name in heavytail.__all__
               if name not in used and not re.search(rf"`{re.escape(name)}\b", readme)]
    assert orphans == []


@pytest.mark.parametrize("name, member", [("simulate", "GridSpec"), ("ease", "EaseStep")])
def test_function_shadows_its_module_as_package_attribute(name, member):
    # heavytail.<name>, and so "import heavytail.<name> as m", is the function;
    # the module's other names are reached by "from heavytail.<name> import"
    # or importlib.import_module
    module = importlib.import_module(f"heavytail.{name}")
    namespace = {}
    exec(f"import heavytail.{name} as m\nfrom heavytail.{name} import {member}", namespace)
    assert namespace["m"] is getattr(heavytail, name) is getattr(module, name)
    assert not hasattr(namespace["m"], member)
    assert namespace[member] is getattr(module, member)


def test_names_the_traced_benchmark_reaches_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    reached = set(tracer.TRACED) | {("simulate", "scenario_streams"), ("estimators", "resolve_k")}
    missing = [f"{module}.{name}" for module, name in sorted(reached)
               if not callable(getattr(importlib.import_module(f"heavytail.{module}"), name,
                                       None))]
    assert missing == []
