"""Scoring estimated orders against ground truth and benchmark sweeps.

The score of an order is the count of ancestor/descendant pairs (over
observed nodes, ancestry taken in the full graph) that the order places
backwards. This ancestral-violation metric is this package's surrogate for
intervention-distance style scores; outputs label it as such and never claim
to be an intervention distance.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from ._rng import as_rng, derived_seed
from .data import Dataset
from .ease import ease
from .errors import ValidationError, check_bytes
from .estimators import EstimatorConfig, coefficient_matrix, resolve_k
from .graph import CausalOrder, Scm, backward_pairs
from .simulate import (GridSpec, Scenario, SimSetting, effective_setting, scenario_streams,
                       simulate, simulate_grid)

METHODS = ("ease_gamma", "ease_psi", "random_order")


# Bytes per p**2 that score_order holds at its peak on a truth of p nodes: the
# ancestor matrix, the backward-pair mask and, with hidden nodes, the matrix
# restricted to the observed ones (tracemalloc: 2.1 to 2.3 all observed, 3.1 to
# 3.3 one hidden, on chains and complete DAGs of 1000 and more nodes), rounded up.
_SCORE_BYTES_PER_PAIR = 4


def check_score_capacity(p: int) -> None:
    """Raise CapacityError if scoring an order against a truth of p nodes would exceed the cap."""
    check_bytes(_SCORE_BYTES_PER_PAIR * p * p, f"the truth graph of {p} nodes")


@dataclass(frozen=True)
class OrderScore:
    valid: bool
    violations: int
    violation_fraction: float
    ancestral_pairs: int


def score_order(truth: Scm, order: CausalOrder) -> OrderScore:
    """Ancestral-violation score of an order over the truth's observed nodes."""
    if order.nodes != frozenset(truth.observed):
        raise ValidationError("order must cover exactly the observed nodes of the truth")
    _, ancestors, backward = backward_pairs(truth.dag, order)
    pairs = int(np.count_nonzero(ancestors))
    violations = int(np.count_nonzero(backward))
    fraction = violations / pairs if pairs else 0.0
    return OrderScore(valid=violations == 0, violations=violations,
                      violation_fraction=fraction, ancestral_pairs=pairs)


@dataclass(frozen=True)
class BenchmarkRow:
    scenario_id: str
    setting: str
    n: int
    p: int
    alpha: float
    method: str
    mean_violation_fraction: float
    se: float
    mistake_rate: float
    wall_ms: float

    def as_csv_values(self) -> tuple:
        return dataclasses.astuple(self)


RESULT_HEADER = tuple(f.name for f in dataclasses.fields(BenchmarkRow))


def recover_order(data: Dataset, config: EstimatorConfig, observed) -> CausalOrder:
    """EASE order of the data's columns, relabelled to the SCM nodes ``observed``.

    A single column has nothing to estimate: its order is the one node.
    """
    if data.p < 2:
        return CausalOrder(observed)
    return ease(coefficient_matrix(data, config)).relabel(observed)


def _ease_order(config: EstimatorConfig, replicate) -> CausalOrder:
    return recover_order(replicate.data, config, replicate.truth.observed)


def _method_order(method: str, seed, scenario: Scenario) -> CausalOrder:
    if method == "random_order":
        key = (0 if seed is None else seed, scenario.n, scenario.p, scenario.alpha, scenario.rep)
        rng = as_rng(derived_seed(*key, 2))
        return CausalOrder(rng.permutation(scenario.truth.observed).tolist())
    return _ease_order(EstimatorConfig(kind="gamma" if method == "ease_gamma" else "psi"),
                       scenario)


def _scores(orderers, replicates) -> list[tuple[tuple[OrderScore, float], ...]]:
    """Per orderer, the (OrderScore, wall ms) of its order of each replicate.

    A replicate is anything with ``truth`` and ``data``: a Scenario or a SimulationResult.
    """
    def score(replicate):
        out = []
        for order_of in orderers:
            start = time.perf_counter()
            result = score_order(replicate.truth, order_of(replicate))
            out.append((result, (time.perf_counter() - start) * 1000.0))
        return out

    # map drops each replicate once scored, before the next one is drawn
    return list(zip(*map(score, replicates)))


def _aggregate(results) -> tuple[float, float, float]:
    """Mean and standard error of the violation fractions, and the share of invalid orders."""
    reps = len(results)
    fractions = [s.violation_fraction for s, _ in results]
    mean = math.fsum(fractions) / reps
    if reps > 1:
        var = math.fsum((f - mean) ** 2 for f in fractions) / (reps - 1)
        se = math.sqrt(var / reps)
    else:
        se = 0.0
    mistake = sum(1 for s, _ in results if not s.valid) / reps
    return mean, se, mistake


def benchmark(grid: GridSpec, methods=METHODS, reps: int = 50, seed=None) -> list[BenchmarkRow]:
    """Per-cell aggregation of method scores over replicates.

    The replicates are the scenarios of ``simulate_grid(grid, reps, seed)``,
    taken ``reps`` per cell in grid order: their streams are shared across
    settings (so rank-invariant settings produce identical score columns)
    and, for the SCM draw, across sample sizes (so trends in n are paired).
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; expected subset of {METHODS}")
    if len(set(methods)) < len(methods):
        raise ValidationError(f"methods must not repeat, got {methods}")

    scenarios = simulate_grid(grid, reps, seed)
    orderers = [functools.partial(_method_order, method, seed) for method in methods]
    rows = []
    for setting, n, p, alpha in grid.cells():
        per_method = _scores(orderers, itertools.islice(scenarios, reps))
        for method, results in zip(methods, per_method):
            mean, se, mistake = _aggregate(results)
            rows.append(BenchmarkRow(
                scenario_id=f"{setting.kind}-n{n}-p{p}-a{alpha:g}",
                setting=setting.kind, n=n, p=p, alpha=alpha, method=method,
                mean_violation_fraction=mean, se=se, mistake_rate=mistake,
                wall_ms=math.fsum(ms for _, ms in results)))
    return rows


@dataclass(frozen=True)
class SensitivityRow:
    exponent: float
    k: int
    mean_violation_fraction: float | None
    se: float | None
    coefficients: dict | None = None


def k_sensitivity(exponents, *, data: Dataset | None = None, scm: Scm | None = None,
                  p: int | None = None, alpha: float | None = None, n: int | None = None,
                  reps: int = 1, seed=None, kind: str = "psi",
                  setting: SimSetting = SimSetting("linear")) -> list[SensitivityRow]:
    """Sweep the exceedance exponent of k = floor(n**e).

    Exactly one source drives the sweep: a fixed ``data`` set (rows then carry
    the estimated off-diagonal coefficients per exponent), a fixed ``scm``
    (rows carry the mean violation fraction over ``reps`` simulated datasets),
    or dimensions ``p`` and ``alpha`` (the ``simulate_grid`` replicates of that
    one cell, a fresh random SCM each: the exponent calibration protocol).
    """
    exponents = [float(e) for e in exponents]
    if not exponents:
        raise ValidationError("need at least one exponent")
    if any(not (0 < e < 1) for e in exponents):
        raise ValidationError("exponents must lie in (0, 1)")
    sources = sum(src is not None for src in (data, scm, p))
    if sources != 1:
        raise ValidationError("give exactly one of data, scm, or p (with alpha)")

    if data is not None:
        rows = []
        for e in exponents:
            config = EstimatorConfig(k_exponent=e, kind=kind)
            matrix = coefficient_matrix(data, config)
            coefs = {
                (data.names[i], data.names[j]): float(matrix.values[i, j])
                for i in range(data.p) for j in range(data.p) if i != j
            }
            rows.append(SensitivityRow(e, resolve_k(data.n, config), None, None, coefs))
        return rows

    if n is None or n < 2:
        raise ValidationError("scm and dimension sweeps need a sample size n >= 2")
    if p is not None and (alpha is None or p < 1):
        raise ValidationError("dimension sweep needs p >= 1 and alpha")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")

    configs = [EstimatorConfig(k_exponent=e, kind=kind) for e in exponents]
    if scm is None:
        replicates = simulate_grid(GridSpec((n,), (p,), (alpha,), (setting,)), reps, seed)
    else:
        drawn = effective_setting(scm, setting)
        replicates = (simulate(scm, drawn, n, scenario_streams(seed, n, scm.p, scm.alpha, rep)[1])
                      for rep in range(reps))
    # every exponent reads the replicate's ECDF, ranked once
    per_config = _scores([functools.partial(_ease_order, c) for c in configs], replicates)

    rows = []
    for e, config, results in zip(exponents, configs, per_config):
        mean, se, _ = _aggregate(results)
        rows.append(SensitivityRow(e, resolve_k(n, config), mean, se))
    return rows


@dataclass(frozen=True)
class MistakeRate:
    rate: float
    mean_violations: float


def mistake_rate(scm: Scm, n: int, config, reps: int, seed=None) -> MistakeRate:
    """Fraction of simulated datasets on which the recovered order is invalid.

    Each replicate simulates ``n`` rows from the SCM, estimates the
    coefficient matrix per ``config``, runs the search, and validates the
    order with :func:`score_order` (ancestry over observed nodes, taken in the
    full graph). Replicate streams derive from (seed, replicate), so results
    do not depend on evaluation order.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    base = 0 if seed is None else seed
    setting = SimSetting("hidden_confounders" if scm.hidden else "linear")
    replicates = (simulate(scm, setting, n, derived_seed(base, rep)) for rep in range(reps))
    [results] = _scores([functools.partial(_ease_order, config)], replicates)
    _, _, rate = _aggregate(results)
    return MistakeRate(rate=rate, mean_violations=sum(s.violations for s, _ in results) / reps)


def sensitivity_rows_to_csv(rows: list[SensitivityRow]) -> str:
    """CSV rendering of a sweep, long format for coefficient rows."""
    lines = []
    if rows and rows[0].coefficients is not None:
        lines.append("exponent,k,from,to,value")
        for row in rows:
            for (a, b), v in sorted(row.coefficients.items()):
                lines.append(f"{row.exponent:g},{row.k},{a},{b},{v!r}")
    else:
        lines.append("exponent,k,mean_violation_fraction,se")
        for row in rows:
            lines.append(f"{row.exponent:g},{row.k},{row.mean_violation_fraction!r},{row.se!r}")
    return "\n".join(lines) + "\n"
