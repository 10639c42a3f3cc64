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
document of the wrong shape or type.
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
from .errors import ValidationError, whole_number
from .evaluate import RESULT_HEADER, OrderScore
from .graph import POSITIVE, REAL, CausalOrder, Dag, Scm
from .noise import NoiseSpec


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


def read_json(path) -> dict:
    with _file_errors(path, "read"):
        text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


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


def _noise_from_dict(spec_doc, alpha: float) -> NoiseSpec:
    if not isinstance(spec_doc, dict):
        raise ValidationError(f"noise spec must be an object, got {spec_doc!r}")
    family = spec_doc.get("family")
    if not isinstance(family, str):
        raise ValidationError(f"noise spec needs a string 'family', got {family!r}")
    try:
        scales = {key: _number(spec_doc.get(key, 1.0)) for key in ("scale_upper", "scale_lower")}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"noise scales must be numbers: {exc}") from exc
    return NoiseSpec(family, alpha, **scales)


def scm_node_count(doc: dict) -> int:
    """The node count ``p`` an SCM document declares, read before anything is built."""
    if not isinstance(doc, dict):
        raise ValidationError("SCM document must be a JSON object")
    try:
        return whole_number(doc["p"], "SCM 'p'")
    except KeyError as exc:
        raise ValidationError(f"SCM document missing field {exc}") from exc


def scm_from_dict(doc: dict) -> Scm:
    p = scm_node_count(doc)
    try:
        alpha = _number(doc["alpha"])
        raw_edges = doc["edges"]
        raw_noise = doc["noise"]
    except KeyError as exc:
        raise ValidationError(f"SCM document missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"SCM 'alpha' must be a number: {exc}") from exc
    if not isinstance(raw_edges, list):
        raise ValidationError("SCM 'edges' must be a list of [parent, child, beta]")
    coefficients = {}
    for entry in raw_edges:
        try:
            parent, child, beta = entry
            edge = whole_number(parent, "SCM edge id"), whole_number(child, "SCM edge id")
            coefficients[edge] = _number(beta)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(
                f"edge entries must be [parent, child, beta], got {entry!r}") from exc
    try:
        hidden = [whole_number(h, "SCM 'hidden' entry") for h in doc.get("hidden", [])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"SCM 'hidden' must list node indices: {exc}") from exc
    names = doc.get("names")
    if names is not None:
        _check_names(names, "SCM 'names'")
    dag = Dag(p, coefficients.keys())
    noise = ([_noise_from_dict(s, alpha) for s in raw_noise] if isinstance(raw_noise, list)
             else _noise_from_dict(raw_noise, alpha))
    mode = doc.get("mode")
    if mode is None:
        mode = POSITIVE if all(v > 0 for v in coefficients.values()) else REAL
    return Scm(dag, coefficients, noise, mode=mode, hidden=hidden, names=names)


def matrix_to_dict(matrix: CoefMatrix) -> dict:
    values = [[None if math.isnan(v) else float(v) for v in row]
              for row in matrix.values.tolist()]
    names = list(matrix.names) if matrix.names is not None else [f"x{j}" for j in range(matrix.p)]
    return {"kind": matrix.kind, "names": names, "values": values,
            "estimated": matrix.estimated}


def matrix_from_dict(doc: dict) -> CoefMatrix:
    if not isinstance(doc, dict):
        raise ValidationError("matrix document must be a JSON object")
    try:
        kind = doc["kind"]
        names = doc["names"]
        raw = doc["values"]
    except KeyError as exc:
        raise ValidationError(f"matrix document missing field {exc}") from exc
    _check_names(names, "matrix 'names'")
    try:
        values = np.array([[np.nan if v is None else _number(v) for v in row] for row in raw])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"matrix 'values' must be equal-length rows of numbers or null: {exc}") from exc
    return CoefMatrix(values, kind, tuple(names), bool(doc.get("estimated", False)))


def order_to_dict(order: CausalOrder, names) -> dict:
    return {"pi_inverse": [names[node] for node in order.sequence]}


def order_names_from_dict(doc: dict) -> list[str]:
    if not isinstance(doc, dict):
        raise ValidationError("order document must be a JSON object")
    try:
        names = doc["pi_inverse"]
    except KeyError as exc:
        raise ValidationError(f"order document missing field {exc}") from exc
    _check_names(names, "order 'pi_inverse'")
    if len(set(names)) != len(names):
        raise ValidationError("order repeats names")
    return names


def score_to_dict(score: OrderScore) -> dict:
    return {"metric": "ancestral-violation", **dataclasses.asdict(score)}
