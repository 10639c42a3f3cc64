"""Data generation from SCMs under the four experimental settings.

Columns are generated in topological order. The full noise matrix is drawn
up front (one column per node in index order from a single stream), so the
linear, nonlinear, and uniform-margins settings applied to the same SCM and
seed share identical noise; the settings differ only in the deterministic
assignment step, which adds each node's parent terms into its noise column
in place. The sample matrix is column-major (Fortran order), so every noise
column written, every parent term added and every column the estimators
rank is contiguous; the emitted Dataset keeps that layout. Hidden columns
are generated but never emitted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._rng import as_rng, derived_seed
from .errors import CapacityError, DomainError, ValidationError
from .estimators import Dataset, ecdf_values
from .graph import GeneratorConfig, Scm, random_scm
from .noise import sample_noise

SETTINGS = ("linear", "hidden_confounders", "nonlinear", "uniform_margins")


@dataclass(frozen=True)
class SimSetting:
    """Experimental setting; the nonlinear threshold quantile defaults to 0.95.

    A quantile of 0 degenerates the nonlinear setting to the linear one and is
    allowed for exactly that check.
    """

    kind: str = "linear"
    nonlinear_quantile: float = 0.95

    def __post_init__(self):
        if self.kind not in SETTINGS:
            raise ValidationError(f"setting must be one of {SETTINGS}, got {self.kind!r}")
        if not (0 <= self.nonlinear_quantile < 1):
            raise ValidationError("nonlinear_quantile must lie in [0, 1)")


def _quantile_threshold(column: np.ndarray, q: float) -> float:
    """The m-th smallest entry of a column, m the smallest rank with m / n > q.

    ``column >= _quantile_threshold(column, q)`` is ``ecdf_values(column) > q``,
    ties included, as m / n is divided in floats like the ECDF. np.partition
    finds the entry in O(n).
    """
    n = column.size
    m = min(int(q * n) + 1, n)
    while m > 1 and (m - 1) / n > q:
        m -= 1
    while m / n <= q:
        m += 1
    return np.partition(column, m - 1)[m - 1]


@dataclass(frozen=True)
class SimulationResult:
    data: Dataset
    truth: Scm


def simulate(scm: Scm, setting: SimSetting, n: int, seed=None) -> SimulationResult:
    """Simulate ``n`` observations of the SCM's observed variables."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if setting.kind == "hidden_confounders" and not scm.hidden:
        raise ValidationError("hidden_confounders setting needs an SCM with hidden nodes")
    if setting.kind in ("nonlinear", "uniform_margins") and n < 2:
        raise DomainError(f"{setting.kind} needs n >= 2 for a non-degenerate empirical CDF")
    rng = as_rng(seed)
    x = np.empty((n, scm.p), order="F")
    for j in range(scm.p):
        x[:, j] = sample_noise(scm.noise[j], n, rng)

    b = scm.coefficient_matrix()
    nonlinear = setting.kind == "nonlinear"
    thresholds = {}  # parent -> _quantile_threshold of its column, computed once
    for j in scm.dag.topological_order:
        for parent in scm.dag.parents(j):
            col = x[:, parent]
            if nonlinear:
                # threshold on the empirical CDF of the generated parent column
                if parent not in thresholds:
                    thresholds[parent] = _quantile_threshold(col, setting.nonlinear_quantile)
                col = col * (col >= thresholds[parent])
            x[:, j] += b[j, parent] * col

    observed = scm.observed
    data = x[:, observed]
    if setting.kind == "uniform_margins":
        data = np.array([ecdf_values(data[:, c]) for c in range(data.shape[1])]).T
    names = [scm.node_name(j) for j in observed]
    return SimulationResult(data=Dataset(names, data), truth=scm)


@dataclass(frozen=True)
class GridSpec:
    """Cartesian scenario grid over sample sizes, dimensions, tail indices, settings.

    ``memory_cap_bytes`` bounds :func:`simulation_bytes` of every drawn
    scenario; a replicate over it raises CapacityError before it simulates.
    That also bounds the replicate's estimation, which holds its data and its
    cached ECDF (see :func:`simulation_bytes`).
    """

    n_values: tuple[int, ...]
    p_values: tuple[int, ...]
    alpha_values: tuple[float, ...]
    settings: tuple[SimSetting, ...] = (SimSetting("linear"),)
    memory_cap_bytes: int = 1 << 30

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "p_values", tuple(int(v) for v in self.p_values))
        object.__setattr__(self, "alpha_values", tuple(float(v) for v in self.alpha_values))
        settings = tuple(
            s if isinstance(s, SimSetting) else SimSetting(str(s)) for s in self.settings)
        object.__setattr__(self, "settings", settings)
        if not (self.n_values and self.p_values and self.alpha_values and self.settings):
            raise ValidationError("grid must have at least one value on every axis")
        if any(n < 1 for n in self.n_values) or any(p < 1 for p in self.p_values):
            raise ValidationError("grid n and p values must be positive")
        if any(a <= 0 for a in self.alpha_values):
            raise ValidationError("grid alpha values must be positive")

    def cells(self):
        return itertools.product(self.settings, self.n_values, self.p_values, self.alpha_values)


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    setting: SimSetting
    n: int
    p: int
    alpha: float
    rep: int
    data: Dataset
    truth: Scm


def scenario_scm(p: int, alpha: float, setting: SimSetting, seed) -> Scm:
    """Random SCM for one scenario; confounders only under that setting."""
    config = GeneratorConfig(hidden_confounders=setting.kind == "hidden_confounders")
    return random_scm(p, alpha, config, seed)


def effective_setting(scm: Scm, setting: SimSetting) -> SimSetting:
    """Downgrade hidden_confounders to linear when the confounder draw was empty.

    The binomial confounder count can legitimately be zero, in which case the
    generation step is exactly the linear one.
    """
    if setting.kind == "hidden_confounders" and not scm.hidden:
        return SimSetting("linear", nonlinear_quantile=setting.nonlinear_quantile)
    return setting


def scenario_streams(seed, n: int, p: int, alpha: float, rep: int):
    """SCM and data seeds for a grid cell replicate.

    The SCM stream is keyed on (seed, p, alpha, rep): deliberately not on the
    setting (so settings sharing a cell draw the same SCM and noise) and not
    on n (so sample-size comparisons are paired over the same SCM pool). The
    data stream additionally keys on n. ``alpha`` keys as a float, so 2 and
    2.0 draw the same replicate.
    """
    root = 0 if seed is None else seed
    alpha = float(alpha)
    scm_seed = derived_seed(root, p, alpha, rep, 0)
    data_seed = derived_seed(root, n, p, alpha, rep, 1)
    return scm_seed, data_seed


def simulation_bytes(scm: Scm, setting: SimSetting, n: int) -> int:
    """Bytes of the n-row arrays :func:`simulate` holds at once for this SCM.

    These are the matrix over every node (hidden ones included), the copy of
    its observed columns and the Dataset's own copy, plus the stacked ECDF
    columns under uniform margins. Estimating the Dataset later holds its
    values and its cached ECDF, two n x p_observed arrays, which is no more
    than this, so the count bounds a whole benchmark replicate.
    """
    copies = 3 if setting.kind == "uniform_margins" else 2
    return 8 * n * (scm.p + copies * len(scm.observed))


def check_memory(scm: Scm, setting: SimSetting, n: int, cap_bytes: int) -> None:
    """Raise CapacityError if simulating n rows of the SCM would exceed the cap."""
    need = simulation_bytes(scm, setting, n)
    if need > cap_bytes:
        raise CapacityError(
            f"simulating n={n} rows of {scm.p} nodes needs {need} bytes, "
            f"over the memory cap of {cap_bytes} bytes")


def simulate_grid(grid: GridSpec, reps: int, seed=None):
    """Yield one Scenario per (setting, n, p, alpha, replicate), lazily.

    Deterministic: the stream is a pure function of the grid, reps, and seed.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    for setting, n, p, alpha in grid.cells():
        for rep in range(reps):
            scm_seed, data_seed = scenario_streams(seed, n, p, alpha, rep)
            scm = scenario_scm(p, alpha, setting, scm_seed)
            drawn = effective_setting(scm, setting)
            check_memory(scm, drawn, n, grid.memory_cap_bytes)
            # No local keeps the data across the yield, so a consumer that drops
            # each scenario holds one replicate's data, as check_memory assumes.
            yield Scenario(
                scenario_id=f"{setting.kind}-n{n}-p{p}-a{alpha:g}-r{rep}",
                setting=setting, n=n, p=p, alpha=alpha, rep=rep,
                data=simulate(scm, drawn, n, data_seed).data, truth=scm)
