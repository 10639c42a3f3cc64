"""Scoring estimated orders against ground truth and benchmark sweeps.

The score of an order is the count of ancestor/descendant pairs (over
observed nodes, ancestry taken in the full graph) that the order places
backwards. This ancestral-violation metric is this package's surrogate for
intervention-distance style scores; outputs label it as such and never claim
to be an intervention distance.

Both sweeps, :func:`benchmark` over a grid and :func:`k_sensitivity` over
the exponent of k on one cell, take their replicates from
:func:`~heavytail.simulate.simulate_grid` and score them in one loop, so
they share its seeding: a replicate is keyed on (seed, n, p, alpha, rep).
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
from .simulate import GridSpec, Scenario, simulate_grid

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


def _ease_order(config: EstimatorConfig, scenario: Scenario) -> CausalOrder:
    return recover_order(scenario.data, config, scenario.truth.observed)


def _method_order(method: str, seed, scenario: Scenario) -> CausalOrder:
    if method == "random_order":
        key = (0 if seed is None else seed, scenario.n, scenario.p, scenario.alpha, scenario.rep)
        rng = as_rng(derived_seed(*key, 2))
        return CausalOrder(rng.permutation(scenario.truth.observed).tolist())
    return _ease_order(EstimatorConfig(kind="gamma" if method == "ease_gamma" else "psi"),
                       scenario)


def _scores(orderers, scenarios) -> list[tuple[tuple[OrderScore, float], ...]]:
    """Per orderer, the (OrderScore, wall ms) of its order of each scenario."""
    def score(scenario):
        out = []
        for order_of in orderers:
            start = time.perf_counter()
            result = score_order(scenario.truth, order_of(scenario))
            out.append((result, (time.perf_counter() - start) * 1000.0))
        return out

    # map drops each scenario once scored, before the next one is drawn
    return list(zip(*map(score, scenarios)))


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
    A grid whose cells share a scenario id is refused before any is set up.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; expected subset of {METHODS}")
    if len(set(methods)) < len(methods):
        raise ValidationError(f"methods must not repeat, got {methods}")

    cells = {}  # the results CSV keys each cell's rows on its id
    for setting, n, p, alpha in grid.cells():
        scenario_id = f"{setting.kind}-n{n}-p{p}-a{alpha:g}"
        if scenario_id in cells:
            raise ValidationError(f"grid cells repeat the scenario id {scenario_id!r}")
        cells[scenario_id] = setting, n, p, alpha

    scenarios = simulate_grid(grid, reps, seed)
    orderers = [functools.partial(_method_order, method, seed) for method in methods]
    rows = []
    for scenario_id, (setting, n, p, alpha) in cells.items():
        per_method = _scores(orderers, itertools.islice(scenarios, reps))
        for method, results in zip(methods, per_method):
            mean, se, mistake = _aggregate(results)
            rows.append(BenchmarkRow(
                scenario_id=scenario_id,
                setting=setting.kind, n=n, p=p, alpha=alpha, method=method,
                mean_violation_fraction=mean, se=se, mistake_rate=mistake,
                wall_ms=math.fsum(ms for _, ms in results)))
    return rows


@dataclass(frozen=True)
class SensitivityRow:
    exponent: float
    k: int
    mean_violation_fraction: float
    se: float


def k_sensitivity(exponents, *, p: int | None = None, alpha: float | None = None,
                  n: int | None = None, reps: int = 1, seed=None,
                  kind: str = "psi") -> list[SensitivityRow]:
    """Sweep the exceedance exponent of k = floor(n**e): the exponent calibration protocol.

    The rows carry the mean violation fraction over the ``simulate_grid``
    replicates of the one linear cell (n, p, alpha), a fresh random SCM
    each; p, alpha and reps are checked there, and each exponent by its
    EstimatorConfig. To sweep the estimates of one dataset, call
    ``coefficient_matrix`` once per exponent.
    """
    exponents = [float(e) for e in exponents]
    if not exponents:
        raise ValidationError("need at least one exponent")
    if n is None or n < 2:
        raise ValidationError("the sweep needs a sample size n >= 2")

    configs = [EstimatorConfig(k_exponent=e, kind=kind) for e in exponents]
    replicates = simulate_grid(GridSpec((n,), (p,), (alpha,)), reps, seed)
    # every exponent reads the replicate's ECDF, ranked once
    per_config = _scores([functools.partial(_ease_order, c) for c in configs], replicates)

    rows = []
    for e, config, results in zip(exponents, configs, per_config):
        mean, se, _ = _aggregate(results)
        rows.append(SensitivityRow(e, resolve_k(n, config), mean, se))
    return rows


def sensitivity_rows_to_csv(rows: list[SensitivityRow]) -> str:
    """CSV rendering of a sweep: exponent, k, mean violation fraction and its standard error."""
    lines = ["exponent,k,mean_violation_fraction,se"]
    for row in rows:
        lines.append(f"{row.exponent:g},{row.k},{row.mean_violation_fraction!r},{row.se!r}")
    return "\n".join(lines) + "\n"
