"""Data generation from SCMs under the four experimental settings.

A replicate is drawn, then assigned. The draw (:func:`_draw_noise`) takes
the noise of every node up front, one column per node in index order from a
single stream, so the linear, nonlinear, and uniform-margins settings applied
to the same SCM and seed share identical noise. Each maximal run of
consecutive nodes with one noise spec and one destination is a single
sample_noise call: observed nodes go to the column-major (Fortran order)
array the emitted Dataset adopts without a copy, hidden nodes to a second
array that is dropped once assigned. The settings differ only in the
deterministic assignment step, which adds each node's parent terms into its
noise column in place; every parent term added and every column the
estimators rank is contiguous. A replicate is the Dataset the assignment
step emits; its truth is the SCM it was drawn from. Under uniform margins
each emitted column is its own max-rank ECDF: the columns are ranked once,
and the ranks become the Dataset's rank array, so the estimators never rank
them again.

:func:`simulate_grid` draws replicate r + 1's noise on the one worker of a
``concurrent.futures.ThreadPoolExecutor`` while the caller holds replicate r;
a draw the worker has not started when r + 1 is asked for is cancelled and
drawn by the caller. The draw spends its time in numpy's C loops, which
release the GIL; the streams, and so every output, are those of drawing each
replicate in turn.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rng import as_rng, derived_seed
from .data import Dataset, ranking_bytes
from .errors import (MEMORY_CAP_BYTES, DomainError, HeavytailError, ValidationError,
                     check_bytes, whole_number)
from .graph import REAL, GeneratorConfig, Scm, random_scm
from .noise import SAMPLE_BYTES_PER_VALUE, sample_noise

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


def _noise_runs(scm: Scm):
    """(spec, hidden, first column, length, whole) of each run, in stream order.

    A run is a maximal run of consecutive node indices that share a noise
    spec and a destination, the observed or the hidden array; its nodes
    hold consecutive columns there, all of them when ``whole``.
    """
    widths = (len(scm.observed), len(scm.hidden))
    column = [0, 0]
    for (spec, hidden), nodes in itertools.groupby(
            range(scm.p), key=lambda j: (scm.noise[j], j in scm.hidden)):
        length = len(tuple(nodes))
        yield spec, hidden, column[hidden], length, length == widths[hidden]
        column[hidden] += length


def _draw_noise(scm: Scm, n: int, rng) -> list:
    """The noise of every node: ``[observed, hidden]``, n-row F-order arrays.

    Node j's column is the j-th draw of n values from the stream, whichever
    array holds it. One sample_noise call draws each run of _noise_runs; a
    whole run becomes its array, a shorter one is copied into place.
    """
    widths = (len(scm.observed), len(scm.hidden))
    arrays = [None, None]
    for spec, hidden, start, length, whole in _noise_runs(scm):
        if whole:
            arrays[hidden] = sample_noise(spec, n, rng, columns=length)
            continue
        if arrays[hidden] is None:
            arrays[hidden] = np.empty((n, widths[hidden]), order="F")
        arrays[hidden][:, start:start + length] = sample_noise(spec, n, rng, columns=length)
    if arrays[1] is None:
        arrays[1] = np.empty((n, 0), order="F")
    return arrays


def _draw_scratch(scm: Scm) -> int:
    """Bytes per row a run draw holds beyond the arrays _draw_noise returns.

    A run's draw holds SAMPLE_BYTES_PER_VALUE of its family per value; a
    whole run's draw is its array, a shorter one's is copied into it.
    """
    return max(length * (SAMPLE_BYTES_PER_VALUE[spec.family] - (8 if whole else 0))
               for spec, _, _, length, whole in _noise_runs(scm))


def _add_parent_terms(scm: Scm, setting: SimSetting, noise: list) -> np.ndarray:
    """Add every node's parent terms into its noise column, in place.

    ``noise`` is _draw_noise's list, emptied here: the hidden columns die on
    return, and the returned observed array is the only reference left.
    """
    hidden = noise.pop()
    observed = noise.pop()
    x = [None] * scm.p  # node -> its column
    for array, nodes in ((observed, scm.observed), (hidden, sorted(scm.hidden))):
        for c, j in enumerate(nodes):
            x[j] = array[:, c]

    b = scm.coefficient_matrix()
    nonlinear = setting.kind == "nonlinear"
    thresholds = {}  # parent -> _quantile_threshold of its column, computed once
    # a column that overflows is refused by the Dataset, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        for j in scm.dag.topological_order:
            for parent in scm.dag.parents(j):
                col = x[parent]
                if nonlinear:
                    # threshold on the empirical CDF of the generated parent column
                    if parent not in thresholds:
                        thresholds[parent] = _quantile_threshold(col, setting.nonlinear_quantile)
                    col = col * (col >= thresholds[parent])
                x[j] += b[j, parent] * col
    return observed


def _assign(scm: Scm, setting: SimSetting, noise: list) -> Dataset:
    """The Dataset of the observed nodes, assigned from _draw_noise's list (emptied).

    The parent terms are added in place, and the Dataset adopts the
    observed array without a copy. Under uniform margins its values are the
    max-rank ECDF of each column, computed once from the ranks it then
    holds; the raw columns die with the Dataset they were ranked from.
    """
    observed = _add_parent_terms(scm, setting, noise)
    data = Dataset.adopt([scm.node_name(j) for j in scm.observed], observed)
    return data.ecdf_dataset() if setting.kind == "uniform_margins" else data


def simulate(scm: Scm, setting: SimSetting, n: int, seed=None) -> Dataset:
    """``n`` observations of the SCM's observed variables, as a Dataset.

    The noise is drawn, then the parent terms are added in place; the
    Dataset adopts the observed array without copying it. Under uniform
    margins the emitted values are the max-rank ECDF of each simulated
    column, computed once from the ranks the Dataset then holds, so
    estimating it ranks nothing.
    """
    _check_simulation(scm, setting, n)
    return _assign(scm, setting, _draw_noise(scm, n, as_rng(seed)))


def _check_simulation(scm: Scm, setting: SimSetting, n: int) -> None:
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if setting.kind == "hidden_confounders" and not scm.hidden:
        raise ValidationError("hidden_confounders setting needs an SCM with hidden nodes")
    if setting.kind in ("nonlinear", "uniform_margins") and n < 2:
        raise DomainError(f"{setting.kind} needs n >= 2 for a non-degenerate empirical CDF")


@dataclass(frozen=True)
class GridSpec:
    """Cartesian scenario grid over sample sizes, dimensions, tail indices, settings.

    n, p and ``memory_cap_bytes`` are whole numbers of at least 1, and alpha
    values are positive and finite. Every replicate is checked against the
    cap by :func:`set_up_replicate`, and the next replicate is drawn ahead
    only when the held one's :func:`simulation_bytes` plus that draw's bytes
    fit under it too.
    """

    n_values: tuple[int, ...]
    p_values: tuple[int, ...]
    alpha_values: tuple[float, ...]
    settings: tuple[SimSetting, ...] = (SimSetting("linear"),)
    memory_cap_bytes: int = MEMORY_CAP_BYTES

    def __post_init__(self):
        for field, what in (("n_values", "grid n value"), ("p_values", "grid p value")):
            values = tuple(whole_number(v, what) for v in getattr(self, field))
            object.__setattr__(self, field, values)
        alphas = tuple(self.alpha_values)
        if not all(isinstance(a, numbers.Real) and not isinstance(a, bool)
                   and 0 < a <= sys.float_info.max for a in alphas):
            raise ValidationError(f"grid alpha values must be positive and finite, got {alphas}")
        object.__setattr__(self, "alpha_values", tuple(float(a) for a in alphas))
        settings = tuple(
            s if isinstance(s, SimSetting) else SimSetting(str(s)) for s in self.settings)
        object.__setattr__(self, "settings", settings)
        cap = whole_number(self.memory_cap_bytes, "grid memory_cap_bytes")
        object.__setattr__(self, "memory_cap_bytes", cap)
        if not (self.n_values and self.p_values and self.alpha_values and self.settings):
            raise ValidationError("grid must have at least one value on every axis")
        if any(n < 1 for n in self.n_values) or any(p < 1 for p in self.p_values):
            raise ValidationError("grid n and p values must be positive")
        if cap < 1:
            raise ValidationError(f"grid memory_cap_bytes must be positive, got {cap}")

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


def scenario_scm(p: int, alpha: float, setting: SimSetting, seed, mode: str = REAL,
                 coefficient_law: str = "intervals") -> Scm:
    """Random SCM for one scenario; confounders only under that setting."""
    config = GeneratorConfig(mode=mode, coefficient_law=coefficient_law,
                             hidden_confounders=setting.kind == "hidden_confounders")
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
    """Bytes of the n-row arrays a replicate of this SCM holds at once.

    :func:`simulate` holds one float64 column per node, p in all (the
    observed ones in the array the Dataset adopts, the hidden ones in a
    second array), plus its largest temporary: a run draw not yet in place
    (see :func:`_draw_scratch`; its bytes per row depend on the family,
    noise.SAMPLE_BYTES_PER_VALUE), or the parent term being added, one column
    (two under the nonlinear setting, where the thresholded parent column is
    a second). Ranking the emitted Dataset holds data.ranking_bytes: under
    uniform margins simulate ranks it and builds its ECDF before the raw
    columns are dropped. The count is the larger of the two phases.
    Estimation's tail gathers add a scratch of at most 2**16 weights, unless
    one column's tails alone are longer.
    """
    assigning = 8 * (2 if setting.kind == "nonlinear" else 1)
    simulating = n * (8 * scm.p + max(_draw_scratch(scm), assigning))
    ranking = ranking_bytes(n, len(scm.observed), ecdf=setting.kind == "uniform_margins")
    return max(simulating, ranking)


def _draw_bytes(scm: Scm, n: int) -> int:
    """Bytes :func:`_draw_noise` holds at once: its arrays and one run draw."""
    return n * (8 * scm.p + _draw_scratch(scm))


# Bytes per p**2 that scenario_scm holds at its peak drawing an SCM of p
# observed nodes: path_weights' float64 coefficient and path-weight matrices
# over every node, the confounders included (tracemalloc, p from 150 to 2000,
# up to 40 seeds each: 16.4 to 19.2 without confounders, 27.0 to 37.3 with
# them), rounded up. A small SCM's Dag, dicts and per-node tuples cost a few
# KB besides: below p = 150 the peaks exceed the p**2 term by up to 16.4 KB
# (40 seeds, p = 1 to 100), which _SCM_FIXED_BYTES covers.
_SCM_BYTES_PER_P2 = 20
_CONFOUNDED_SCM_BYTES_PER_P2 = 40
_SCM_FIXED_BYTES = 1 << 15


class _Replicate(NamedTuple):
    """One replicate, its SCM drawn and checked against the memory cap."""

    setting: SimSetting
    n: int
    p: int
    alpha: float
    rep: int
    scm: Scm
    drawn: SimSetting  # the setting effective_setting gives for this SCM
    data_seed: np.random.SeedSequence

    def draw(self) -> list:
        return _draw_noise(self.scm, self.n, as_rng(self.data_seed))

    def scenario(self, noise: list) -> Scenario:
        """This replicate's Scenario, assigned from its drawn noise (emptied)."""
        return Scenario(
            scenario_id=f"{self.setting.kind}-n{self.n}-p{self.p}-a{self.alpha:g}-r{self.rep}",
            setting=self.setting, n=self.n, p=self.p, alpha=self.alpha, rep=self.rep,
            data=_assign(self.scm, self.drawn, noise), truth=self.scm)


def set_up_replicate(seed, cap_bytes: int, setting: SimSetting, n: int, p: int, alpha: float,
                     rep: int, mode: str = REAL, coefficient_law: str = "intervals"):
    """Replicate ``rep`` of the cell (setting, n, p, alpha), its SCM drawn by scenario_scm.

    Raises CapacityError if the replicate would exceed ``cap_bytes``: the
    SCM draw is bounded from p and the setting before it is made (with
    confounders the total node count is known only after it), and
    :func:`simulation_bytes` of the drawn SCM before anything is simulated.
    Raises ValidationError for a p, an n or an alpha out of range before
    any seed is derived, and for an n too small for the setting.
    """
    if p < 1:  # before p * p is taken as a size
        raise ValidationError(f"p must be >= 1, got {p}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not (0 < alpha <= sys.float_info.max):
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")
    confounded = setting.kind == "hidden_confounders"
    per_p2 = _CONFOUNDED_SCM_BYTES_PER_P2 if confounded else _SCM_BYTES_PER_P2
    scm_bytes = per_p2 * p * p + _SCM_FIXED_BYTES
    check_bytes(scm_bytes, f"drawing an SCM of {p} nodes", cap_bytes)
    scm_seed, data_seed = scenario_streams(seed, n, p, alpha, rep)
    scm = scenario_scm(p, alpha, setting, scm_seed, mode, coefficient_law)
    drawn = effective_setting(scm, setting)
    check_bytes(simulation_bytes(scm, drawn, n), f"simulating n={n} rows of {scm.p} nodes",
                cap_bytes)
    _check_simulation(scm, drawn, n)
    return _Replicate(setting, n, p, alpha, rep, scm, drawn, data_seed)


# Fewest values a draw must have to be drawn ahead. Handing a draw to the
# helper and back costs about as much as drawing 5000 Student-t values inline
# (benchmark calls of 20 replicates on a 2-vCPU host, ahead against inline:
# draws of 2000 values took 9% longer, 5000 values 4% longer, 8000 values 14%
# less and 20000 values 27% less).
_AHEAD_MIN_VALUES = 8000


def simulate_grid(grid: GridSpec, reps: int, seed=None):
    """Yield one Scenario per (setting, n, p, alpha, replicate), lazily.

    Deterministic: the stream is a pure function of the grid, reps, and seed.
    Each replicate is set up (its SCM drawn, its memory checked) and
    assigned on the calling thread; an error setting up a replicate is
    raised when that replicate is asked for. While the caller holds
    replicate r, the one worker of a thread pool executor draws replicate
    r + 1's noise, if the draw has at least _AHEAD_MIN_VALUES values and
    simulation_bytes of r plus the draw's bytes fit under
    ``grid.memory_cap_bytes``; otherwise r + 1 is drawn when it is asked
    for, as is the first replicate. A draw the worker has not started when
    r + 1 is asked for is cancelled and drawn on the calling thread, so a
    worker starved of the GIL or of a CPU costs no waiting; what a draw
    raised is raised again when its replicate is asked for. The executor is
    started with the first draw ahead, and closing the generator shuts it
    down: a draw not started is cancelled, one in flight finishes, and the
    worker is joined.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    cap = grid.memory_cap_bytes
    keys = ((setting, n, p, alpha, rep)
            for setting, n, p, alpha in grid.cells() for rep in range(reps))

    def set_up(key):
        # an error is returned, to be raised when its replicate is asked for
        try:
            return set_up_replicate(seed, cap, *key)
        except HeavytailError as exc:
            return exc

    following = set_up(next(keys))
    helper = None  # started with the first replicate drawn ahead
    ahead = None  # the helper's draw of the next replicate, if it has one
    try:
        while following is not None:
            if isinstance(following, HeavytailError):
                raise following
            current = following
            # the next replicate is set up while the helper may still draw
            # this one, so that the helper can start the next draw at once
            key = next(keys, None)
            following = None if key is None else set_up(key)
            # a draw the helper has not started is cancelled and drawn here
            noise = current.draw() if ahead is None or ahead.cancel() else ahead.result()
            ahead = None
            if (isinstance(following, _Replicate)
                    and following.n * following.scm.p >= _AHEAD_MIN_VALUES
                    and simulation_bytes(current.scm, current.drawn, current.n)
                    + _draw_bytes(following.scm, following.n) <= cap):
                if helper is None:
                    import concurrent.futures  # only a grid call that draws ahead needs it

                    helper = concurrent.futures.ThreadPoolExecutor(1, "heavytail-draw-ahead")
                ahead = helper.submit(following.draw)
            # the scenario empties noise and no local keeps the data across
            # the yield, so a consumer that drops each scenario holds one
            # replicate's data, plus the next one's noise being drawn
            yield current.scenario(noise)
    finally:
        if helper is not None:
            # a draw still in flight is of a replicate nobody asked for
            helper.shutdown(wait=True, cancel_futures=True)
