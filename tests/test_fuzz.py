"""Malformed input never crashes the CLI: every run exits 0 or 2, never 1.

CSV bytes go through ``coefficients`` and ``tail-index``; JSON documents
(arbitrary values, and valid matrix / order / SCM documents with fields
replaced, deleted or nested wrongly) through ``discover --matrix``,
``evaluate`` and ``oracle``. Integers are kept small so that no document
asks for a graph of millions of nodes.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail.cli import main
from heavytail.formats import scm_to_dict

from conftest import make_chain

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


def run_cli(files: dict, argv_for):
    """Write ``files`` to a fresh directory, run the CLI and check the outcome."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        d = Path(tmp)
        for name, content in files.items():
            (d / name).write_bytes(content)
        code = main([str(a) for a in argv_for(d)])
    err = err.getvalue()
    assert code in (0, 2), err
    assert "internal error" not in err


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


@FUZZ
@given(json_values | mutated(VALID_MATRIX))
def test_discover_matrix_fuzz(doc):
    run_cli({"m.json": _json_bytes(doc)}, lambda d: [
        "discover", "--matrix", d / "m.json", "--out", d / "o.json"])


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
