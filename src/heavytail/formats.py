"""File schemas: dataset CSV, SCM / matrix / order / score JSON, results CSV.

CSV files carry a header row of column names and shortest-round-trip float
literals (``repr``), UTF-8, LF line endings, no index column. The dataset
writer formats blocks of rows with one ``%``-template each, so it costs about
what ``repr`` of the values costs. Every JSON document has a "meta" block
(version, seed, resolved config) next to the payload; readers ignore it, so
stripping meta and re-reading reproduces the object. Files and stdout alike
get their JSON from json_text, which refuses NaN and infinities.

Every file problem is a ValidationError naming the path: a missing,
unreadable or unwritable file (any OSError), bytes that are not UTF-8, and a
document of the wrong shape or type. A JSON object that repeats a key is
refused, and so is a grid, SCM, noise spec, matrix or order document that is
not an object, misses a key it needs or has a key neither its own nor "meta".
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .data import CoefMatrix, Dataset
from .errors import ValidationError, check_bytes, whole_number
from .evaluate import RESULT_HEADER, OrderScore
from .graph import POSITIVE, REAL, CausalOrder, Scm
from .noise import NoiseSpec
from .simulate import GridSpec


def meta_block(seed=None, config: dict | None = None) -> dict:
    return {"version": __version__, "seed": seed, "config": config or {}}


_BLOCK_ROWS = 1024  # rows formatted per write; larger blocks add memory, not speed


@contextmanager
def _file_errors(path, action: str):
    """Turn an OS or decode error on ``path`` into a ValidationError."""
    try:
        yield
    except (OSError, UnicodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot {action} {path}: {reason}") from exc


def json_text(doc: dict) -> str:
    """``doc`` as indented JSON with a final newline; a NaN or infinity raises ValueError."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_json(path, payload: dict) -> None:
    text = json_text(payload)
    with _file_errors(path, "write"):
        Path(path).write_text(text, encoding="utf-8")


def _json_object(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key raises ValueError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def read_json(path) -> dict:
    with _file_errors(path, "read"):
        text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text, object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


# Each reader's document keys, (required, optional), stand beside it as _<KIND>_KEYS.
def _document(doc, what: str, required: tuple, optional: tuple = ()) -> dict:
    """``doc``, refused unless an object with the ``required`` keys and none but these or meta."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValidationError(f"{what} missing field {missing[0]!r}")
    keys = required + optional
    unknown = [key for key in doc if key not in keys and key != "meta"]
    if unknown:
        raise ValidationError(f"{what} has unknown key {unknown[0]!r}; "
                              f"its keys are {', '.join(keys)} and meta")
    return doc


_GRID_KEYS = ("n", "p", "alpha"), ("settings", "memory_cap_bytes")


def read_grid(path) -> GridSpec:
    """The grid file at ``path``: TOML if its name ends in .toml, else JSON."""
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise ValidationError(
                    "TOML grids need Python >= 3.11 or the tomli package; use JSON") from exc
        with _file_errors(path, "read"), open(path, "rb") as fh:
            try:
                doc = tomllib.load(fh)
            # TOMLDecodeError, bytes that are not UTF-8, or arrays nested too deep
            except (ValueError, RecursionError) as exc:
                raise ValidationError(f"malformed TOML in {path}: {exc}") from exc
    else:
        doc = read_json(path)
    arrays = isinstance(doc, dict) and all(isinstance(doc.get(key), list)
                                           for key in _GRID_KEYS[0])
    if not arrays or not isinstance(doc.get("settings", []), list):
        raise ValidationError(
            "grid file needs 'n', 'p', and 'alpha' arrays, and 'settings', if given, an array")
    _document(doc, "grid file", *_GRID_KEYS)
    optional = {key: doc[key] for key in _GRID_KEYS[1] if key in doc}
    return GridSpec(doc["n"], doc["p"], doc["alpha"], **optional)


def dataset_to_csv(data: Dataset, path) -> None:
    row = ",".join(["%r"] * data.p) + "\n"
    with _file_errors(path, "write"), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(data.names) + "\n")
        for start in range(0, data.n, _BLOCK_ROWS):
            block = data.values[start:start + _BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def dataset_from_csv(path) -> Dataset:
    with _file_errors(path, "read"), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValidationError(f"{path} is empty")
        names = header.split(",")
        try:
            with warnings.catch_warnings():
                # a header with no rows is reported below, not warned about
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"malformed CSV in {path}: {exc}") from exc
    if values.size == 0:
        raise ValidationError(f"{path} has no data rows")
    return Dataset(names, values)


def results_to_csv(rows, path) -> None:
    """Benchmark results: RESULT_HEADER, then one line per row, floats as repr."""
    with _file_errors(path, "write"), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(RESULT_HEADER) + "\n")
        for row in rows:
            rendered = [repr(v) if isinstance(v, float) else str(v)
                        for v in row.as_csv_values()]
            fh.write(",".join(rendered) + "\n")


def _number(value) -> float:
    """``float(value)``, refusing a boolean: JSON ``true`` is not the number 1."""
    if isinstance(value, bool):
        raise TypeError(f"a boolean is not a number: {value!r}")
    return float(value)


def _check_names(value, what: str) -> None:
    """Raise a ValidationError naming ``what`` unless ``value`` is a list of strings."""
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise ValidationError(f"{what} must be a list of strings")


def _noise_to_dict(spec: NoiseSpec) -> dict:
    return {"family": spec.family, "scale_upper": spec.scale_upper,
            "scale_lower": spec.scale_lower}


def scm_to_dict(scm: Scm) -> dict:
    edges = [[parent, child, scm.coefficients[(parent, child)]]
             for parent, child in sorted(scm.coefficients)]
    specs = [_noise_to_dict(s) for s in scm.noise]
    noise = specs[0] if all(s == specs[0] for s in specs) else specs
    out = {
        "p": scm.p,
        "edges": edges,
        "alpha": scm.alpha,
        "noise": noise,
        "hidden": sorted(scm.hidden),
        "mode": scm.mode,
    }
    if scm.names is not None:
        out["names"] = list(scm.names)
    return out


_NOISE_KEYS = ("family",), ("scale_upper", "scale_lower")


def _noise_from_dict(spec_doc, alpha: float) -> NoiseSpec:
    family = _document(spec_doc, "noise spec", *_NOISE_KEYS)["family"]
    if not isinstance(family, str):
        raise ValidationError(f"noise spec needs a string 'family', got {family!r}")
    try:
        scales = {key: _number(spec_doc.get(key, 1.0)) for key in _NOISE_KEYS[1]}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"noise scales must be numbers: {exc}") from exc
    return NoiseSpec(family, alpha, **scales)


_SCM_KEYS = ("p", "edges", "alpha", "noise"), ("hidden", "mode", "names")


def scm_node_count(doc: dict) -> int:
    """The node count ``p`` an SCM document declares, read before anything is built."""
    return whole_number(_document(doc, "SCM document", *_SCM_KEYS)["p"], "SCM 'p'")


def scm_from_dict(doc: dict) -> Scm:
    p = scm_node_count(doc)
    raw_edges, raw_noise = doc["edges"], doc["noise"]
    try:
        alpha = _number(doc["alpha"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"SCM 'alpha' must be a number: {exc}") from exc
    if not isinstance(raw_edges, list):
        raise ValidationError("SCM 'edges' must be a list of [parent, child, beta]")
    coefficients = {}
    for entry in raw_edges:
        try:
            parent, child, beta = entry
            edge = whole_number(parent, "SCM edge id"), whole_number(child, "SCM edge id")
            beta = _number(beta)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(
                f"edge entries must be [parent, child, beta], got {entry!r}") from exc
        if edge in coefficients:
            raise ValidationError(f"SCM document repeats edge {edge}")
        coefficients[edge] = beta
    try:
        hidden = [whole_number(h, "SCM 'hidden' entry") for h in doc.get("hidden", [])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"SCM 'hidden' must list node indices: {exc}") from exc
    names = doc.get("names")
    if names is not None:
        _check_names(names, "SCM 'names'")
    noise = ([_noise_from_dict(s, alpha) for s in raw_noise] if isinstance(raw_noise, list)
             else _noise_from_dict(raw_noise, alpha))
    mode = doc.get("mode")
    if mode is None:
        mode = POSITIVE if all(v > 0 for v in coefficients.values()) else REAL
    return Scm(p, coefficients, noise, mode=mode, hidden=hidden, names=names)


# Bytes per p**2 that writing the JSON document of a p x p matrix holds at its
# peak, the float64 matrix included: matrix_to_dict's nested lists of floats
# and json_text's chunks and joined string. Beyond the matrix, tracemalloc read
# 141.7 to 143.3 bytes per entry for full-precision values (p = 300 to 1500);
# plus the matrix's 8, rounded up. Whole coefficients and oracle runs peaked at
# 132.5 to 142.5 bytes per p**2 (p = 500 and 1000, both kinds).
_MATRIX_DOCUMENT_BYTES_PER_ENTRY = 152


def check_matrix_document(p: int) -> None:
    """Raise CapacityError if writing the document of a p x p matrix would exceed the cap."""
    check_bytes(_MATRIX_DOCUMENT_BYTES_PER_ENTRY * p * p,
                f"writing the document of a {p} x {p} coefficient matrix")


def matrix_to_dict(matrix: CoefMatrix) -> dict:
    values = [[None if math.isnan(v) else float(v) for v in row]
              for row in matrix.values.tolist()]
    names = list(matrix.names) if matrix.names is not None else [f"x{j}" for j in range(matrix.p)]
    return {"kind": matrix.kind, "names": names, "values": values,
            "estimated": matrix.estimated}


_MATRIX_KEYS = ("kind", "names", "values"), ("estimated",)


def matrix_from_dict(doc: dict) -> CoefMatrix:
    names = _document(doc, "matrix document", *_MATRIX_KEYS)["names"]
    _check_names(names, "matrix 'names'")
    try:
        values = np.array([[np.nan if v is None else _number(v) for v in row]
                           for row in doc["values"]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"matrix 'values' must be equal-length rows of numbers or null: {exc}") from exc
    estimated = doc.get("estimated", False)
    if not isinstance(estimated, bool):
        raise ValidationError("matrix 'estimated' must be true or false")
    return CoefMatrix(values, doc["kind"], tuple(names), estimated)


def order_to_dict(order: CausalOrder, names) -> dict:
    return {"pi_inverse": [names[node] for node in order.sequence]}


_ORDER_KEYS = ("pi_inverse",), ()


def order_names_from_dict(doc: dict) -> list[str]:
    names = _document(doc, "order document", *_ORDER_KEYS)["pi_inverse"]
    _check_names(names, "order 'pi_inverse'")
    if len(set(names)) != len(names):
        raise ValidationError("order repeats names")
    return names


def score_to_dict(score: OrderScore) -> dict:
    return {"metric": "ancestral-violation", **dataclasses.asdict(score)}
