"""One helper thread: a wide sample's ranks and tail sums split across the
caller and one short-lived worker, unless a draw-ahead window holds it."""

import concurrent.futures
import importlib
import threading
import tracemalloc

import numpy as np
import pytest

from heavytail import Dataset, EstimatorConfig, GridSpec, benchmark, coefficient_matrix
from heavytail.data import HELPER_LOCK, in_two
from heavytail.estimators import _matrix_bytes, resolve_k
from heavytail.evaluate import METHODS

from conftest import RecordingExecutor, bitwise_equal

data_module = importlib.import_module("heavytail.data")
estimators_module = importlib.import_module("heavytail.estimators")
simulate_module = importlib.import_module("heavytail.simulate")


@pytest.fixture
def split_always(monkeypatch):
    """Split whatever the size, and record every executor started."""
    monkeypatch.setattr(data_module, "SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(data_module, "SPLIT_MIN_COLUMNS", 0)
    monkeypatch.setattr(estimators_module, "SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor.record())
    return RecordingExecutor


def _samples():
    rng = np.random.default_rng(5)
    continuous = rng.standard_t(1.5, size=(300, 7))
    tied = np.round(rng.standard_t(1.5, size=(300, 6)))
    constant = continuous[:, :5].copy()
    constant[:, 2] = 1.0  # every upper row ties: an empty tail slice
    return {"continuous-odd-p": continuous, "tied": tied, "constant-column": constant,
            "p2": continuous[:40, :2], "tied-p2": np.round(continuous[:40, :2])}


@pytest.mark.parametrize("name", list(_samples()))
def test_split_ranks_and_matrices_equal_inline_bit_for_bit(name, split_always):
    values = _samples()[name]
    names = [f"x{j}" for j in range(values.shape[1])]
    configs = [EstimatorConfig(kind=kind, k=k) for kind in ("gamma", "psi")
               for k in (1, 7, values.shape[0] - 1)]
    with HELPER_LOCK:  # the helper is taken: everything runs inline
        inline = Dataset(names, values)
        inline_ranks = inline.ranks()
        expected = [coefficient_matrix(inline, c).values for c in configs]
    assert split_always.helpers == []
    split = Dataset(names, values)
    assert np.array_equal(split.ranks(), inline_ranks)
    for config, matrix in zip(configs, expected):
        assert bitwise_equal(coefficient_matrix(split, config).values, matrix)
    # the ranks split once, each matrix's tail sums once, each worker joined
    assert len(split_always.helpers) == 1 + len(configs)
    assert not any(t.is_alive() for h in split_always.helpers for t in h._threads)
    assert not HELPER_LOCK.locked()


def test_worker_error_reaches_the_caller_and_the_worker_is_joined():
    threads = {}

    def work(half):
        threads[half] = threading.current_thread()
        if half == "second":
            raise MemoryError("worker half failed")

    with pytest.raises(MemoryError, match="worker half failed"):
        in_two(work, "first", "second")
    caller, worker = threads["first"], threads["second"]
    assert caller is threading.current_thread() and worker is not caller
    assert not worker.is_alive() and not HELPER_LOCK.locked()


def test_caller_error_joins_the_worker():
    done = []

    def work(half):
        if half == "first":
            raise ValueError("caller half failed")
        done.append(threading.current_thread())

    with pytest.raises(ValueError, match="caller half failed"):
        in_two(work, "first", "second")
    (worker,) = done
    assert not worker.is_alive() and not HELPER_LOCK.locked()


def test_no_split_while_the_helper_is_held():
    threads = []
    with HELPER_LOCK:
        in_two(lambda half: threads.append(threading.current_thread()), 1, 2)
    assert threads == [threading.current_thread()] * 2


GRID = GridSpec((120,), (5,), (1.5,), settings=("hidden_confounders",))


def test_multi_replicate_grid_splits_nothing_while_drawing_ahead(split_always, monkeypatch):
    monkeypatch.setattr(simulate_module, "_AHEAD_MIN_VALUES", 0)
    rows = benchmark(GRID, METHODS, reps=3, seed=2)
    # only the window's executor ran, and only draws were handed to it
    (helper,) = split_always.helpers
    assert len(split_always.submitted) == 2
    assert all(hasattr(r, "truth") for r in split_always.submitted)
    assert not any(t.is_alive() for t in helper._threads) and not HELPER_LOCK.locked()
    monkeypatch.setattr(simulate_module, "_AHEAD_MIN_VALUES", 1 << 62)
    inline = benchmark(GRID, METHODS, reps=3, seed=2)
    assert [r.as_csv_values()[:-1] for r in rows] == [r.as_csv_values()[:-1] for r in inline]


def test_single_replicate_grid_splits_and_leaves_no_thread(split_always):
    rows = benchmark(GRID, METHODS, reps=1, seed=2)
    # a one-replicate grid draws nothing ahead; its ranks and both matrices split
    assert len(split_always.helpers) == 3
    assert not any(t.is_alive() for h in split_always.helpers for t in h._threads)
    assert not any(t.name.startswith("heavytail") for t in threading.enumerate())
    assert not HELPER_LOCK.locked()
    with HELPER_LOCK:
        inline = benchmark(GRID, METHODS, reps=1, seed=2)
    assert [r.as_csv_values()[:-1] for r in rows] == [r.as_csv_values()[:-1] for r in inline]


@pytest.mark.parametrize("split", [True, False], ids=["split", "inline"])
@pytest.mark.parametrize("kind", ["gamma", "psi"])
@pytest.mark.parametrize("n, p", [(3, 1000), (200, 1000), (2000, 150)])
def test_matrix_peak_is_within_the_checked_bound(n, p, kind, split):
    rng = np.random.default_rng(n + p)
    data = Dataset([f"x{j}" for j in range(p)], rng.standard_t(1.5, size=(n, p)))
    data.ranks()  # the ranks are the sample's, counted by ranking_bytes
    config = EstimatorConfig(kind=kind)
    tracemalloc.start()
    try:
        if split:
            coefficient_matrix(data, config)
        else:
            with HELPER_LOCK:
                coefficient_matrix(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = _matrix_bytes(p, resolve_k(n, config), kind == "psi")
    assert peak <= bound + 64 * 1024
