"""File schemas: dataset CSV, SCM / matrix / order / score JSON.

CSV files carry a header row of column names and shortest-round-trip float
literals, UTF-8, LF line endings, no index column. Every JSON document has a
"meta" block (version, seed, resolved config) next to the payload; readers
ignore it, so stripping meta and re-reading reproduces the object.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .estimators import Dataset
from .evaluate import OrderScore
from .graph import CausalOrder, Dag, Scm
from .noise import NoiseSpec
from .oracle import CoefMatrix


def meta_block(seed=None, config: dict | None = None) -> dict:
    return {"version": __version__, "seed": seed, "config": config or {}}


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n",
                          encoding="utf-8")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def dataset_to_csv(data: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(data.names) + "\n")
        for row in data.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def dataset_from_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValidationError(f"{path} is empty")
        names = header.split(",")
        try:
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"malformed CSV in {path}: {exc}") from exc
    if values.size == 0:
        raise ValidationError(f"{path} has no data rows")
    return Dataset(names, values)


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
        scales = {key: float(spec_doc.get(key, 1.0)) for key in ("scale_upper", "scale_lower")}
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"noise scales must be numbers: {exc}") from exc
    return NoiseSpec(family, alpha, **scales)


def scm_from_dict(doc: dict) -> Scm:
    if not isinstance(doc, dict):
        raise ValidationError("SCM document must be a JSON object")
    try:
        p = int(doc["p"])
        alpha = float(doc["alpha"])
        raw_edges = doc["edges"]
        raw_noise = doc["noise"]
    except KeyError as exc:
        raise ValidationError(f"SCM document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"SCM 'p' must be an integer and 'alpha' a number: {exc}") from exc
    coefficients = {}
    for entry in raw_edges:
        try:
            parent, child, beta = entry
            coefficients[(int(parent), int(child))] = float(beta)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"edge entries must be [parent, child, beta], got {entry!r}") from exc
    dag = Dag(p, coefficients.keys())
    noise = ([_noise_from_dict(s, alpha) for s in raw_noise] if isinstance(raw_noise, list)
             else _noise_from_dict(raw_noise, alpha))
    mode = doc.get("mode")
    if mode is None:
        mode = "positive" if all(v > 0 for v in coefficients.values()) else "real"
    return Scm(dag, coefficients, noise, mode=mode,
               hidden=doc.get("hidden", ()), names=doc.get("names"))


def matrix_to_dict(matrix: CoefMatrix) -> dict:
    values = [[None if math.isnan(v) else float(v) for v in row]
              for row in matrix.values.tolist()]
    names = list(matrix.names) if matrix.names is not None else [f"x{j}" for j in range(matrix.p)]
    return {"kind": matrix.kind, "names": names, "values": values,
            "estimated": matrix.estimated}


def matrix_from_dict(doc: dict) -> CoefMatrix:
    try:
        kind = doc["kind"]
        names = doc["names"]
        raw = doc["values"]
    except KeyError as exc:
        raise ValidationError(f"matrix document missing field {exc}") from exc
    values = np.array([[np.nan if v is None else float(v) for v in row] for row in raw])
    return CoefMatrix(values, kind, tuple(names), bool(doc.get("estimated", False)))


def order_to_dict(order: CausalOrder, names) -> dict:
    return {"pi_inverse": [names[node] for node in order.sequence]}


def order_names_from_dict(doc: dict) -> list[str]:
    try:
        names = doc["pi_inverse"]
    except KeyError as exc:
        raise ValidationError(f"order document missing field {exc}") from exc
    if len(set(names)) != len(names):
        raise ValidationError("order repeats names")
    return [str(s) for s in names]


def score_to_dict(score: OrderScore) -> dict:
    return {
        "metric": "ancestral-violation",
        "valid": score.valid,
        "violations": score.violations,
        "violation_fraction": score.violation_fraction,
        "ancestral_pairs": score.ancestral_pairs,
    }
