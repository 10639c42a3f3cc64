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
estimators rank is contiguous. Under uniform margins each emitted column is
its own max-rank ECDF: the columns are ranked once, and the ranks become the
Dataset's rank array, so the estimators never rank them again. The
hidden-confounders setting differs only in the SCM :func:`set_up_replicate`
draws for it; its assignment is the linear one.

A grid replicate is one :class:`Scenario`: its cell, the SCM it was drawn
from (its truth), its data stream and, once assigned, its Dataset.

:func:`simulate_grid` draws the noise of the replicates beyond the one its
caller holds on a helper thread, within the grid's memory cap; the schedule
is :class:`_DrawWindow`'s.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._rng import FLOAT_KEY_MAX, as_rng, derived_seed
from .data import HELPER_LOCK, Dataset, ranking_bytes
from .errors import (MEMORY_CAP_BYTES, DomainError, HeavytailError, ValidationError,
                     check_bytes, integer, whole_number)
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
                x[j] += scm.coefficients[parent, j] * col
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
    n = _check_simulation(setting, n)
    return _assign(scm, setting, _draw_noise(scm, n, as_rng(seed)))


def _check_simulation(setting: SimSetting, n: int) -> int:
    """``n`` as an int, refused unless the setting can simulate that many rows."""
    n = integer(n, "n", 1)
    if setting.kind in ("nonlinear", "uniform_margins") and n < 2:
        raise DomainError(f"{setting.kind} needs n >= 2 for a non-degenerate empirical CDF")
    return n


@dataclass(frozen=True)
class GridSpec:
    """Cartesian scenario grid over sample sizes, dimensions, tail indices, settings.

    n, p and ``memory_cap_bytes`` are whole numbers of at least 1, and alpha
    values are positive and finite, at most FLOAT_KEY_MAX, the largest that
    keys a seed stream. Every replicate is checked against the cap by
    :func:`set_up_replicate`, and :func:`simulate_grid` draws noise ahead
    only within it: the held replicate's simulation_bytes plus the draws
    handed on beyond it stay within the cap at every step.
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
                   and 0 < a <= FLOAT_KEY_MAX for a in alphas):
            raise ValidationError(f"grid alpha values must be positive and finite, "
                                  f"at most {FLOAT_KEY_MAX}, got {alphas}")
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
    """Replicate ``rep`` of the grid cell (setting, n, p, alpha).

    ``truth`` is the SCM drawn for it, and ``data_seed`` the stream its
    noise is drawn from. :func:`set_up_replicate` returns it with ``data``
    None; :func:`simulate_grid` yields it with ``data`` the simulated Dataset.
    """

    setting: SimSetting
    n: int
    p: int
    alpha: float
    rep: int
    truth: Scm
    data_seed: np.random.SeedSequence
    data: Dataset | None = None


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
    Estimation's tail gathers add a block scratch of at most 2**16 weights
    per thread that sums (two when a wide sample's tail sums are split),
    unless one column's tails alone are longer; coefficient_matrix checks
    it with the p x p matrices.
    """
    assigning = 8 * (2 if setting.kind == "nonlinear" else 1)
    simulating = n * (8 * scm.p + max(_draw_scratch(scm), assigning))
    ranking = ranking_bytes(n, len(scm.observed), ecdf=setting.kind == "uniform_margins")
    return max(simulating, ranking)


def _draw_bytes(scm: Scm, n: int) -> int:
    """Bytes :func:`_draw_noise` holds at once: its arrays and one run draw."""
    return n * (8 * scm.p + _draw_scratch(scm))


# Bytes per p**2 that random_scm holds at its peak drawing an SCM of p
# observed nodes: path_weights' float64 path-weight matrix over every node,
# the confounders included, and check_path_faithful's ancestor mask and the
# weights it gathers (tracemalloc, p from 150 to 2000, 40 seeds each: 9.5 to
# 15.7 without confounders, 16.1 to 25.0 with them), rounded up. A small
# SCM's Dag, dicts and per-node tuples cost a few KB besides: below p = 150
# the peaks exceed the p**2 term by up to 13.6 KB, 25.8 KB with confounders
# (40 seeds, p = 1 to 150), which _SCM_FIXED_BYTES covers; at 25 bytes per
# p**2 with confounders that excess would be 32.2 KB, too close to it.
_SCM_BYTES_PER_P2 = 16
_CONFOUNDED_SCM_BYTES_PER_P2 = 26
_SCM_FIXED_BYTES = 1 << 15


def _draw(replicate: Scenario) -> list:
    """The replicate's noise, drawn from its own stream: _draw_noise's list."""
    return _draw_noise(replicate.truth, replicate.n, as_rng(replicate.data_seed))


def set_up_replicate(seed, cap_bytes: int, setting: SimSetting, n: int, p: int, alpha: float,
                     rep: int, mode: str = REAL, coefficient_law: str = "intervals") -> Scenario:
    """Replicate ``rep`` of the cell (setting, n, p, alpha), its SCM drawn by random_scm.

    The SCM has hidden confounders exactly under the hidden-confounders
    setting. The Scenario's ``data`` is None: ``simulate(s.truth, s.setting,
    s.n, s.data_seed)`` is the Dataset :func:`simulate_grid` yields for it.
    Raises CapacityError if the replicate would exceed ``cap_bytes``: the
    SCM draw is bounded from p and the setting before it is made (with
    confounders the total node count is known only after it), and
    :func:`simulation_bytes` of the drawn SCM before anything is simulated.
    Raises ValidationError for an n, a p or an alpha out of range, and
    DomainError for an n too small for the setting, before any seed is
    derived or SCM drawn.
    """
    n = _check_simulation(setting, n)
    p = integer(p, "p", 1)  # before p * p is taken as a size
    if not (0 < alpha <= FLOAT_KEY_MAX):
        raise ValidationError(f"alpha must be positive and finite, at most {FLOAT_KEY_MAX}, "
                              f"got {alpha}")
    confounded = setting.kind == "hidden_confounders"
    per_p2 = _CONFOUNDED_SCM_BYTES_PER_P2 if confounded else _SCM_BYTES_PER_P2
    scm_bytes = per_p2 * p * p + _SCM_FIXED_BYTES
    check_bytes(scm_bytes, f"drawing an SCM of {p} nodes", cap_bytes)
    scm_seed, data_seed = scenario_streams(seed, n, p, alpha, rep)
    scm = random_scm(p, alpha, GeneratorConfig(mode, coefficient_law, confounded), scm_seed)
    check_bytes(simulation_bytes(scm, setting, n), f"simulating n={n} rows of {scm.p} nodes",
                cap_bytes)
    return Scenario(setting, n, p, alpha, rep, scm, data_seed)


# Fewest values a draw must have to be drawn ahead. Handing a draw to the
# helper and back costs about as much as drawing 5000 Student-t values inline
# (benchmark calls of 20 replicates on a 2-vCPU host, ahead against inline:
# draws of 2000 values took 9% longer, 5000 values 4% longer, 8000 values 14%
# less and 20000 values 27% less).
_AHEAD_MIN_VALUES = 8000
# Replicates set up beyond the held one: the helper runs the draw of one and
# has the other's queued, for the caller to take over if it would wait.
_DRAWS_AHEAD = 2


def _fits(cap: int, held, draws) -> bool:
    """The cap rule: whether each replicate in the window fits once held.

    ``held`` lists the simulation_bytes of each replicate in the window, in
    replicate order, and ``draws`` the _draw_bytes of each draw handed on
    beyond the first, in order. Replicate i fits if ``held[i]`` plus the
    draws after it, ``sum(draws[i:])``, is at most ``cap``: a total equal to
    ``cap`` fits.
    """
    return all(size + sum(draws[i:]) <= cap for i, size in enumerate(held))


class _Slot:
    """A replicate in the window (or its set-up error), and its draw.

    ``held`` is the replicate's simulation_bytes, 0 for a set-up error.
    ``bytes`` is its _draw_bytes if it may be drawn ahead (a Scenario of at
    least _AHEAD_MIN_VALUES values), else None. ``draw`` is None until a
    draw is handed on: then the helper's future, or a finished future the
    caller made when it took the draw over.
    """

    def __init__(self, replicate):
        self.replicate, self.held, self.bytes, self.draw = replicate, 0, None, None
        if isinstance(replicate, Scenario):
            self.held = simulation_bytes(replicate.truth, replicate.setting, replicate.n)
            if replicate.n * replicate.truth.p >= _AHEAD_MIN_VALUES:
                self.bytes = _draw_bytes(replicate.truth, replicate.n)


class _DrawWindow:
    """The replicates of a grid call from the held one on, and their noise draws.

    ``replicates`` yields each replicate set up, or the HeavytailError that
    setting it up raised; ``slots`` holds the held replicate first, then the
    replicates set up beyond it. Each replicate's noise is drawn from its own
    stream by whichever thread is free: the caller, or the one worker of a
    thread pool executor, the helper. The draw spends its time in numpy's C
    loops, which release the GIL, and every output is that of drawing each
    replicate in turn, whichever thread drew it. The helper draws noise
    only: assignment and ranking stay on the caller.

    While the caller holds replicate r, the helper is handed the draws of
    r + 1 and r + 2, one running and one queued (r + 2 is set up only once
    r + 1's draw is handed on). A draw is handed on only if it has at least
    _AHEAD_MIN_VALUES values and the window fits with it (:func:`_fits`):
    once held, each replicate in the window must fit under ``cap`` beside
    the _draw_bytes of every draw after it. The check is made once, when a
    draw is handed on, and holds from then until the draw is taken, so no
    draw is ever withdrawn for the cap: the draws go out in replicate order,
    only the last slot can lack one, and the held replicate's
    simulation_bytes plus every draw handed on and not yet taken is within
    ``cap`` at every step.

    :meth:`take` hands the held replicate over with its noise. A draw of it
    that the helper has not started is cancelled, the next draws are handed
    on, and the caller draws it, as it does the first replicate; a draw of
    it in flight is waited on only after the caller has drawn the draw
    queued behind it itself. What a set-up or a draw raised is raised again
    when its replicate is taken, and nothing beyond a set-up error is set
    up or drawn. The executor is started with the first draw handed on, so
    a one-replicate grid starts no thread, and :meth:`close` shuts it down:
    a queued draw is cancelled, one in flight finishes, and the worker is
    joined.

    heavytail runs at most one helper thread at a time (see heavytail.data):
    the window holds data.HELPER_LOCK from its first draw handed on until
    :meth:`close`, so no wide sample's ranks or tail sums are split while it
    draws ahead, and a window that cannot get the lock draws inline.
    """

    def __init__(self, replicates, cap: int):
        self.replicates, self.cap, self.helper = replicates, cap, None
        self.slots = [_Slot(next(replicates))]

    def take(self):
        """The held replicate and its noise, _draw_noise's list; its slot leaves the window."""
        held = self.slots[0]
        if isinstance(held.replicate, HeavytailError):
            raise held.replicate
        if held.draw is not None and held.draw.cancel():
            held.draw = None  # the helper never started it
        self.hand_on()
        self.slots.pop(0)
        if held.draw is not None and not held.draw.done():
            self.take_over()
        return held.replicate, _draw(held.replicate) if held.draw is None else held.draw.result()

    def hand_on(self) -> None:
        """Hand on the last slot's draw if the window fits with it, then set up the next one."""
        while True:
            last = self.slots[-1]
            if len(self.slots) > 1 and last.draw is None:
                # a slot with no draw ends the window: beyond it, and beyond
                # a set-up error, which has none, nothing is set up
                if last.bytes is None or not _fits(self.cap, [slot.held for slot in self.slots],
                                                   [slot.bytes for slot in self.slots[1:]]):
                    return
                if self.helper is None:
                    if not HELPER_LOCK.acquire(blocking=False):
                        return  # another helper thread runs: the caller draws
                    import concurrent.futures  # only a call that draws ahead needs it

                    self.helper = concurrent.futures.ThreadPoolExecutor(1, "heavytail-draw-ahead")
                last.draw = self.helper.submit(_draw, last.replicate)
            if len(self.slots) > _DRAWS_AHEAD or (replicate := next(self.replicates, None)) is None:
                return
            self.slots.append(_Slot(replicate))

    def take_over(self) -> None:
        """Draw on the calling thread the first draw the helper has not started."""
        import concurrent.futures

        for slot in self.slots:
            if slot.draw is not None and slot.draw.cancel():
                slot.draw = concurrent.futures.Future()
                try:
                    slot.draw.set_result(_draw(slot.replicate))
                except Exception as exc:  # raised when its replicate is taken
                    slot.draw.set_exception(exc)
                return

    def close(self) -> None:
        if self.helper is not None:
            # a draw still in flight is of a replicate nobody asked for
            self.helper.shutdown(wait=True, cancel_futures=True)
            self.helper = None
            HELPER_LOCK.release()


def simulate_grid(grid: GridSpec, reps: int, seed=None):
    """Yield one Scenario per (setting, n, p, alpha, replicate), lazily.

    Deterministic: the stream is a pure function of the grid, reps, and seed.
    Each replicate is set up (its SCM drawn, its memory checked) and
    assigned on the calling thread; an error setting up a replicate is
    raised when that replicate is asked for, and nothing beyond it is set
    up or drawn. Noise is drawn ahead on a helper thread as
    :class:`_DrawWindow` describes, within ``grid.memory_cap_bytes``.
    """
    reps = integer(reps, "reps", 1)

    def set_up(cell, rep):
        # an error is returned, to be raised when its replicate is asked for
        try:
            return set_up_replicate(seed, grid.memory_cap_bytes, *cell, rep)
        except HeavytailError as exc:
            return exc

    window = _DrawWindow(itertools.starmap(set_up, itertools.product(grid.cells(), range(reps))),
                         grid.memory_cap_bytes)
    try:
        while window.slots:
            replicate, noise = window.take()
            # the assignment empties noise and no local keeps the data across
            # the yield, so a consumer that drops each scenario holds one
            # replicate's data, plus the draws held or in flight
            yield replace(replicate, data=_assign(replicate.truth, replicate.setting, noise))
    finally:
        window.close()
