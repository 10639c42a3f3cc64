"""Scoring estimated orders against ground truth and benchmark sweeps.

The score of an order is the count of ancestor/descendant pairs (over
observed nodes, ancestry taken in the full graph) that the order places
backwards. This ancestral-violation metric is this package's surrogate for
intervention-distance style scores; outputs label it as such and never claim
to be an intervention distance.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

from ._rng import as_rng, derived_seed
from .ease import ease
from .errors import ValidationError
from .estimators import Dataset, EstimatorConfig, coefficient_matrix, resolve_k
from .graph import CausalOrder, Scm
from .simulate import (GridSpec, Scenario, SimSetting, effective_setting, scenario_streams,
                       simulate, simulate_grid)

METHODS = ("ease_gamma", "ease_psi", "random_order")

RESULT_HEADER = ("scenario_id", "setting", "n", "p", "alpha", "method",
                 "mean_violation_fraction", "se", "mistake_rate", "wall_ms")


@dataclass(frozen=True)
class OrderScore:
    valid: bool
    violations: int
    violation_fraction: float
    ancestral_pairs: int


def score_order(truth: Scm, order: CausalOrder) -> OrderScore:
    """Ancestral-violation score of an order over the truth's observed nodes."""
    observed = frozenset(truth.observed)
    if order.nodes != observed:
        raise ValidationError("order must cover exactly the observed nodes of the truth")
    pairs = truth.dag.ancestral_pairs(observed)
    violations = sum(1 for i, j in pairs if order.position(i) > order.position(j))
    fraction = violations / len(pairs) if pairs else 0.0
    return OrderScore(valid=violations == 0, violations=violations,
                      violation_fraction=fraction, ancestral_pairs=len(pairs))


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
        return (self.scenario_id, self.setting, self.n, self.p, self.alpha, self.method,
                self.mean_violation_fraction, self.se, self.mistake_rate, self.wall_ms)


def recover_order(data: Dataset, config: EstimatorConfig, observed) -> CausalOrder:
    """EASE order of the data's columns, relabelled to the SCM nodes ``observed``.

    A single column has nothing to estimate: its order is the one node.
    """
    if data.p < 2:
        return CausalOrder(observed)
    return ease(coefficient_matrix(data, config)).relabel(observed)


def _method_order(method: str, data: Dataset, truth: Scm, seed_key) -> CausalOrder:
    if method == "random_order":
        rng = as_rng(derived_seed(*seed_key, 2))
        return CausalOrder(rng.permutation(truth.observed).tolist())
    kind = "gamma" if method == "ease_gamma" else "psi"
    return recover_order(data, EstimatorConfig(kind=kind), truth.observed)


def _aggregate(fractions, valids) -> tuple[float, float, float]:
    reps = len(fractions)
    mean = math.fsum(fractions) / reps
    if reps > 1:
        var = math.fsum((f - mean) ** 2 for f in fractions) / (reps - 1)
        se = math.sqrt(var / reps)
    else:
        se = 0.0
    mistake = sum(1 for v in valids if not v) / reps
    return mean, se, mistake


def _score_methods(methods, seed, scenario: Scenario) -> dict[str, tuple[float, bool, float]]:
    """Violation fraction, validity and wall milliseconds of each method on a scenario."""
    key = (0 if seed is None else seed, scenario.n, scenario.p, scenario.alpha, scenario.rep)
    out = {}
    for method in methods:
        start = time.perf_counter()
        score = score_order(scenario.truth,
                            _method_order(method, scenario.data, scenario.truth, key))
        elapsed = (time.perf_counter() - start) * 1000.0
        out[method] = (score.violation_fraction, score.valid, elapsed)
    return out


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

    scenarios = simulate_grid(grid, reps, seed)
    score = functools.partial(_score_methods, methods, seed)
    rows = []
    for setting, n, p, alpha in grid.cells():
        # map drops each scenario once scored, before the next one is drawn
        results = list(map(score, itertools.islice(scenarios, reps)))
        for method in methods:
            fractions = [r[method][0] for r in results]
            valids = [r[method][1] for r in results]
            wall = math.fsum(r[method][2] for r in results)
            mean, se, mistake = _aggregate(fractions, valids)
            rows.append(BenchmarkRow(
                scenario_id=f"{setting.kind}-n{n}-p{p}-a{alpha:g}",
                setting=setting.kind, n=n, p=p, alpha=alpha, method=method,
                mean_violation_fraction=mean, se=se, mistake_rate=mistake,
                wall_ms=wall))
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

    def scores(truth, sample):
        # every exponent reads the replicate's ECDF, ranked once
        return [score_order(truth, recover_order(sample, c, truth.observed)) for c in configs]

    if scm is None:
        grid = GridSpec((n,), (p,), (alpha,), (setting,))
        draws = map(lambda s: (s.truth, s.data), simulate_grid(grid, reps, seed))
    else:
        def draw(rep):
            _, data_seed = scenario_streams(seed, n, scm.p, scm.alpha, rep)
            return scm, simulate(scm, effective_setting(scm, setting), n, data_seed).data
        draws = map(draw, range(reps))
    # starmap drops each replicate once scored, before the next one is drawn
    per_rep = list(itertools.starmap(scores, draws))

    rows = []
    for e, config, column in zip(exponents, configs, zip(*per_rep)):
        mean, se, _ = _aggregate([s.violation_fraction for s in column],
                                 [s.valid for s in column])
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
    mistakes = 0
    violation_total = 0
    for rep in range(reps):
        result = simulate(scm, setting, n, derived_seed(base, rep))
        score = score_order(scm, recover_order(result.data, config, scm.observed))
        mistakes += 0 if score.valid else 1
        violation_total += score.violations
    return MistakeRate(rate=mistakes / reps, mean_violations=violation_total / reps)


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
