"""Malformed input never crashes the CLI: every run exits 0 or 2, never 1.

CSV bytes go through ``coefficients`` and ``tail-index``; JSON documents
(arbitrary values, and valid matrix / order / SCM documents with fields
replaced, deleted or nested wrongly) through ``discover --matrix``,
``evaluate`` and ``oracle``; an alpha anywhere in the positive floats through
``simulate`` and ``benchmark --grid``. Integers are kept small so that no
document asks for a graph of millions of nodes. A grid, SCM, matrix or order
document with a key not its own or a repeated key, and an SCM document with a
repeated edge, must exit 2.

simulate_grid's draw-ahead schedule is fuzzed too: on small grids at caps
between the largest replicate's simulation_bytes and the sum of them all,
the cap holds at every take, and the outputs are those of simulating each
replicate alone.
"""

import concurrent.futures
import contextlib
import copy
import dataclasses
import importlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from heavytail import GridSpec, HeavytailError
from heavytail.cli import main
from heavytail.formats import (_GRID_KEYS, _MATRIX_KEYS, _ORDER_KEYS, _SCM_KEYS,
                               order_names_from_dict, read_json, scm_to_dict)
from heavytail.graph import COEFFICIENT_LAWS, MODES
from heavytail.simulate import SETTINGS, set_up_replicate, simulation_bytes

from conftest import RecordingExecutor, make_chain, take_each_checking_the_cap

simulate_module = importlib.import_module("heavytail.simulate")

FUZZ = settings(max_examples=120, deadline=None)

json_scalars = (st.none() | st.booleans() | st.integers(-3, 12)
                | st.floats(-10, 10) | st.sampled_from([1e300, 10 ** 400, float("inf"),
                                                        float("nan"), -0.0])
                | st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10)

VALID_MATRIX = {"kind": "psi", "names": ["a", "b", "c"],
                "values": [[None, 0.9, 0.4], [0.6, None, 0.5], [0.3, 0.7, None]],
                "estimated": True}
VALID_ORDER = {"pi_inverse": ["x0", "x1", "x2"]}
VALID_SCM = scm_to_dict(make_chain([0.5, -0.7], alpha=1.5, mode="real"))
VALID_SCM["names"] = ["x0", "x1", "x2"]


def _paths(doc, prefix=()):
    yield prefix
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, base):
    """A valid document with up to three fields replaced or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(json_values)
        else:
            del parent[path[-1]]
    return doc


csv_cells = st.sampled_from(["1", "-2.5", "0", "3e2", "1e400", "nan", "inf", "", "x",
                             " 4", "#", '"5"', "1,2", "5e-324"])
csv_rows = st.lists(st.lists(csv_cells, min_size=1, max_size=4), max_size=8)
csv_text = st.builds(
    lambda header, rows, newline: newline.join([header] + [",".join(r) for r in rows]) + newline,
    st.sampled_from(["a", "a,b", "a,b,c", "a,a", ",", ""]), csv_rows,
    st.sampled_from(["\n", "\r\n"]))
csv_bytes = st.binary(max_size=64) | csv_text.map(str.encode)


def run_cli(files: dict, argv_for, check_output=None):
    """Write ``files`` to a fresh directory, run the CLI and check the outcome.

    On exit 0, ``check_output(d)`` is called on the directory, still there.
    """
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        d = Path(tmp)
        for name, content in files.items():
            (d / name).write_bytes(content)
        code = main([str(a) for a in argv_for(d)])
        if code == 0 and check_output is not None:
            check_output(d)
    err = err.getvalue()
    assert code in (0, 2), err
    assert "internal error" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def _json_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


@FUZZ
@given(csv_bytes, st.sampled_from(["gamma", "psi"]), st.sampled_from([[], ["--k", 1]]))
def test_coefficients_fuzz(content, kind, k_flag):
    run_cli({"d.csv": content}, lambda d: [
        "coefficients", "--data", d / "d.csv", "--kind", kind, *k_flag, "--out", d / "m.json"])


@FUZZ
@given(csv_bytes, st.sampled_from(["upper", "lower"]))
def test_tail_index_fuzz(content, tail):
    run_cli({"d.csv": content}, lambda d: [
        "tail-index", "--data", d / "d.csv", "--column", "a", "--k", 2, "--tail", tail])


def _order_reads_back(d: Path) -> None:
    """The order document discover wrote is one evaluate's reader accepts."""
    order_names_from_dict(read_json(d / "o.json"))


@FUZZ
@given(json_values | mutated(VALID_MATRIX))
@example({**VALID_MATRIX, "names": ["a", "a", "c"]})
def test_discover_matrix_fuzz(doc):
    run_cli({"m.json": _json_bytes(doc)}, lambda d: [
        "discover", "--matrix", d / "m.json", "--out", d / "o.json"], _order_reads_back)


@FUZZ
@given(json_values | mutated(VALID_ORDER), json_values | mutated(VALID_SCM))
def test_evaluate_fuzz(order, truth):
    run_cli({"o.json": _json_bytes(order), "t.json": _json_bytes(truth)}, lambda d: [
        "evaluate", "--order", d / "o.json", "--truth", d / "t.json"])


@FUZZ
@given(json_values | mutated(VALID_SCM), st.sampled_from(["gamma", "psi"]))
def test_oracle_fuzz(scm, kind):
    run_cli({"s.json": _json_bytes(scm)}, lambda d: [
        "oracle", "--scm", d / "s.json", "--kind", kind, "--out", d / "m.json"])


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=48))
def test_json_readers_fuzz_raw_bytes(content):
    run_cli({"m.json": content, "t.json": _json_bytes(VALID_SCM)}, lambda d: [
        "discover", "--matrix", d / "m.json", "--out", d / "o.json"])
    run_cli({"o.json": content, "t.json": _json_bytes(VALID_SCM)}, lambda d: [
        "evaluate", "--order", d / "o.json", "--truth", d / "t.json"])


# every positive float, subnormals and the largest finite one included; 1.9e302
# overflowed the seed key's micro-unit scaling and exited 1
alphas = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FEW = settings(max_examples=40, deadline=None)


@FEW
@given(st.integers(0, 4), st.integers(0, 30), alphas, st.sampled_from(SETTINGS),
       st.sampled_from(MODES), st.sampled_from(COEFFICIENT_LAWS), st.integers(0, 3))
@example(3, 50, 1.9e302, "linear", "real", "intervals", 0)
def test_simulate_alpha_fuzz(p, n, alpha, setting, mode, law, seed):
    run_cli({}, lambda d: [
        "simulate", "--p", p, "--n", n, "--alpha", repr(alpha), "--setting", setting,
        "--mode", mode, "--coefficient-law", law, "--seed", seed,
        "--out", d / "d.csv", "--truth", d / "t.json"])


@FEW
@given(st.lists(st.integers(1, 30), min_size=1, max_size=2),
       st.lists(st.integers(1, 4), min_size=1, max_size=2),
       st.lists(alphas, min_size=1, max_size=2),
       st.lists(st.sampled_from(SETTINGS), min_size=1, max_size=2, unique=True),
       st.integers(1, 2))
@example([50], [3], [1.9e302], ["linear"], 1)
def test_benchmark_grid_alpha_fuzz(n, p, alpha, kinds, reps):
    grid = {"n": n, "p": p, "alpha": alpha, "settings": kinds}
    run_cli({"g.json": _json_bytes(grid)}, lambda d: [
        "benchmark", "--grid", d / "g.json", "--reps", reps, "--out", d / "r.csv"])


VALID_GRID = {"n": [50], "p": [3], "alpha": [1.5], "settings": ["linear"]}
FEW_STRICT = settings(max_examples=25, deadline=None)


def _refused(d):
    raise AssertionError("the document was read")


# Per strict document kind: a valid document, its (required, optional) keys and
# the command that reads it from doc.json (evaluate scores an order against t.json).
STRICT = {
    "grid": (VALID_GRID, _GRID_KEYS, lambda d: [
        "benchmark", "--grid", d / "doc.json", "--reps", 1, "--methods", "random_order",
        "--out", d / "r.csv"]),
    "scm": (VALID_SCM, _SCM_KEYS, lambda d: [
        "oracle", "--scm", d / "doc.json", "--kind", "psi", "--out", d / "m.json"]),
    "matrix": (VALID_MATRIX, _MATRIX_KEYS, lambda d: [
        "discover", "--matrix", d / "doc.json", "--out", d / "o.json"]),
    "order": (VALID_ORDER, _ORDER_KEYS, lambda d: [
        "evaluate", "--order", d / "doc.json", "--truth", d / "t.json"]),
}


def _run_document(kind: str, text: bytes, check_output=_refused):
    """Run the CLI on a document of ``kind``, which must be refused unless told otherwise."""
    run_cli({"doc.json": text, "t.json": _json_bytes(VALID_SCM)}, STRICT[kind][2], check_output)


def test_each_strict_document_is_read_when_valid():
    # so the refusals below are of the key, not of the rest of the document
    read = []
    for kind, (doc, _, _) in STRICT.items():
        _run_document(kind, _json_bytes({**doc, "meta": {}}), lambda d: read.append(kind))
    assert read == list(STRICT)


@FEW_STRICT
@given(st.sampled_from(sorted(STRICT)), st.text(max_size=8), json_values)
# a misspelt "estimated" was ignored: the matrix was read as not estimated
@example("matrix", "estimatd", True)
@example("order", "pi", ["x0", "x1", "x2"])
def test_document_with_a_key_not_its_own_exits_2(kind, key, value):
    doc, (required, optional), _ = STRICT[kind]
    if key in required + optional or key == "meta":
        key += "_"
    _run_document(kind, _json_bytes({**doc, key: value}))


@FEW_STRICT
@given(st.sampled_from(sorted(STRICT)), st.data())
def test_document_with_a_repeated_key_exits_2(kind, data):
    doc = STRICT[kind][0]
    key = data.draw(st.sampled_from(sorted(doc) + ["meta"]))
    value = data.draw(json_values)
    # the repeated member goes first, so the last one would be the valid one
    text = "{" + json.dumps(key) + ": " + json.dumps(value) + ", " + json.dumps(
        {**doc, "meta": {}})[1:]
    _run_document(kind, text.encode())


@FEW_STRICT
@given(st.sampled_from(VALID_SCM["edges"]), st.floats(allow_nan=False, allow_infinity=False),
       st.booleans())
def test_scm_with_a_repeated_edge_exits_2(edge, beta, as_floats):
    parent, child, _ = edge
    repeated = [float(parent), float(child), beta] if as_floats else [parent, child, beta]
    _run_document("scm", _json_bytes({**VALID_SCM, "edges": VALID_SCM["edges"] + [repeated]}))


def _replicates(grid, reps, seed):
    return [set_up_replicate(seed, grid.memory_cap_bytes, *cell, rep)
            for cell in grid.cells() for rep in range(reps)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 400), min_size=1, max_size=3, unique=True), st.integers(2, 5),
       st.integers(1, 3), st.lists(st.sampled_from(SETTINGS), min_size=1, unique=True),
       st.floats(0, 1), st.integers(0, 2**16))
# the cap at which replicate 3's draw, once handed on beside replicate 1,
# went over it when replicate 2 was taken
@example([10, 1000], 4, 2, ["linear"], 0.25, 0)
def test_grid_draws_ahead_within_the_cap_at_every_take(n_values, p, reps, kinds, share, seed):
    grid = GridSpec(tuple(n_values), (p,), (1.5,), settings=tuple(kinds))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate_module, "_AHEAD_MIN_VALUES", 0)
        # the SCM draw's fixed 32 KB would refuse these small grids at most
        # caps; the schedule reads only simulation_bytes and _draw_bytes
        patch.setattr(simulate_module, "_SCM_FIXED_BYTES", 0)
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor.record())
        try:
            sizes = [simulation_bytes(r.truth, r.setting, r.n)
                     for r in _replicates(grid, reps, seed)]
            grid = dataclasses.replace(
                grid, memory_cap_bytes=max(sizes) + round(share * (sum(sizes) - max(sizes))))
            _replicates(grid, reps, seed)
        except HeavytailError:
            reject()  # n = 1 under a setting that needs two rows, or an SCM draw over the cap
        take_each_checking_the_cap(grid, reps, seed)
