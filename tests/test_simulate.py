import concurrent.futures
import dataclasses
import importlib
import itertools
import re
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavytail import (CapacityError, Dataset, DomainError, EstimatorConfig,
                       GeneratorConfig, GridSpec, NoiseSpec, Scenario, Scm, SimSetting,
                       ValidationError,
                       coefficient_matrix, gamma_estimate, random_scm, simulate,
                       ecdf_values, simulate_grid)
from heavytail.data import rank_kernel
from heavytail.errors import MEMORY_CAP_BYTES
from heavytail.formats import scm_from_dict, scm_to_dict
from heavytail.simulate import (SETTINGS, _draw_bytes, _draw_noise, _fits, _noise_runs,
                                _quantile_threshold, scenario_streams, set_up_replicate,
                                simulation_bytes)

from conftest import (RecordingExecutor, bitwise_equal, make_chain, reference_noise,
                      take_each_checking_the_cap)

simulate_module = importlib.import_module("heavytail.simulate")
CONFOUNDED = GeneratorConfig(hidden_confounders=True)


def scm_config(setting: SimSetting) -> GeneratorConfig:
    """The generator config of set_up_replicate: confounders under that setting only."""
    return GeneratorConfig(hidden_confounders=setting.kind == "hidden_confounders")


def test_setting_validation():
    with pytest.raises(ValidationError):
        SimSetting("quadratic")
    with pytest.raises(ValidationError):
        SimSetting("nonlinear", nonlinear_quantile=1.0)
    SimSetting("nonlinear", nonlinear_quantile=0.0)  # degenerate threshold allowed


def test_simulate_guards():
    scm = make_chain([1.0])
    with pytest.raises(ValidationError):
        simulate(scm, SimSetting("linear"), 0, seed=0)
    with pytest.raises(DomainError):
        simulate(scm, SimSetting("nonlinear"), 1, seed=0)
    with pytest.raises(DomainError):
        simulate(scm, SimSetting("uniform_margins"), 1, seed=0)


def test_set_up_replicate_refuses_a_small_n_before_drawing(monkeypatch):
    # the setting's n check comes first: no seed derived, no SCM drawn
    def refuse(*args, **kwargs):
        raise AssertionError("drew for a replicate that is refused")

    monkeypatch.setattr(simulate_module, "random_scm", refuse)
    monkeypatch.setattr(simulate_module, "scenario_streams", refuse)
    for kind in ("nonlinear", "uniform_margins"):
        with pytest.raises(DomainError):
            set_up_replicate(0, MEMORY_CAP_BYTES, SimSetting(kind), 1, 4, 1.5, 0)


@pytest.mark.parametrize("family, scale_upper", [
    ("symmetric_pareto", 1.0), ("shifted_pareto", 1.0), ("shifted_pareto", 3.0)],
    ids=["symmetric_pareto", "shifted_pareto", "shifted_pareto-scale3"])
def test_pareto_overflow_is_refused_without_a_warning(family, scale_upper):
    # at alpha = 0.001 the inverse transform overflows to inf for most
    # uniforms, and so does the shifted family's scale 3 ** 1000; the Dataset
    # refuses the sample, and numpy does not warn
    spec = NoiseSpec(family, 0.001, scale_upper=scale_upper)
    scm = Scm(2, {(0, 1): 1.0}, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            simulate(scm, SimSetting("linear"), 1000, seed=0)


def test_simulate_determinism():
    scm = make_chain([1.0, 0.5], mode="positive")
    a = simulate(scm, SimSetting("linear"), 500, seed=7).values
    b = simulate(scm, SimSetting("linear"), 500, seed=7).values
    assert np.array_equal(a, b)


def test_linear_chain_estimates_near_oracle():
    scm = make_chain([1.0], alpha=1.0)
    sample = simulate(scm, SimSetting("linear"), 2 * 10**5, seed=2)
    value = gamma_estimate(sample, 1, 0, EstimatorConfig(k_exponent=0.4))
    assert abs(value - 0.75) < 0.08


def test_uniform_margins_columns_are_rank_grids():
    scm = make_chain([0.8, -0.6], mode="real", alpha=2.5)
    sample = simulate(scm, SimSetting("uniform_margins"), 400, seed=3)
    expected = np.arange(1, 401) / 400
    for c in range(sample.p):
        assert np.array_equal(np.sort(sample.values[:, c]), expected)


def test_nonlinear_quantile_zero_is_linear_bitwise():
    scm = make_chain([0.9, -0.4], mode="real", alpha=2.5)
    linear = simulate(scm, SimSetting("linear"), 1000, seed=4).values
    degenerate = simulate(scm, SimSetting("nonlinear", nonlinear_quantile=0.0),
                          1000, seed=4).values
    assert np.array_equal(linear, degenerate)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 1.0, 5.0]), min_size=2, max_size=40),
                 st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40)),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                 st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])),
       st.integers(0, 40), st.sampled_from([-1, 0, 1]))
@example([3.0, 3.0], 0.0, 0, 0)
@example([1.0, -1.0], 0.5, 0, 0)
@example([0.0, -0.0], 0.5, 0, 0)
def test_quantile_threshold_mask_matches_ecdf_mask(values, q, rank, nudge):
    # q is also drawn at the ECDF grid r / n and its float neighbours, where
    # the comparison ecdf > q turns over
    column = np.array(values)
    n = column.size
    if rank:
        q = min(rank, n - 1) / n
        if nudge:
            q = max(float(np.nextafter(q, nudge * np.inf)), 0.0)
    mask = column >= _quantile_threshold(column, q)
    assert np.array_equal(mask, ecdf_values(column) > q)


def test_nonlinear_threshold_changes_children_only():
    scm = make_chain([0.9], mode="real", alpha=2.5)
    linear = simulate(scm, SimSetting("linear"), 1000, seed=5).values
    nonlinear = simulate(scm, SimSetting("nonlinear"), 1000, seed=5).values
    assert np.array_equal(linear[:, 0], nonlinear[:, 0])
    assert not np.array_equal(linear[:, 1], nonlinear[:, 1])
    # below the parent's 0.95 quantile the parent contribution is dropped
    cutoff = np.quantile(linear[:, 0], 0.95)
    mask = linear[:, 0] <= cutoff
    noise = linear[:, 1] - 0.9 * linear[:, 0]
    assert np.allclose(nonlinear[mask, 1], noise[mask])


def test_hidden_columns_dropped():
    scm = random_scm(6, 2.5, GeneratorConfig(hidden_confounders=True), seed=0)
    assert scm.hidden
    data = simulate(scm, SimSetting("hidden_confounders"), 200, seed=0)
    assert isinstance(data, Dataset)
    assert data.p == len(scm.observed)
    assert data.names == tuple(f"x{j}" for j in scm.observed)


def test_uniform_margins_estimates_match_linear_bitwise():
    scm = make_chain([0.9, -0.7], mode="real", alpha=2.5)
    linear = simulate(scm, SimSetting("linear"), 2000, seed=6)
    uniform = simulate(scm, SimSetting("uniform_margins"), 2000, seed=6)
    config = EstimatorConfig(k_exponent=0.4, kind="psi")
    a = coefficient_matrix(linear, config).values
    b = coefficient_matrix(uniform, config).values
    assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))


def test_ols_recovers_coefficients_in_finite_variance_regime():
    scm = make_chain([0.8, -0.5], mode="real", alpha=3.5)
    sample = simulate(scm, SimSetting("linear"), 10**5, seed=8).values
    for child, parent, beta in ((1, 0, 0.8), (2, 1, -0.5)):
        x = sample[:, parent][:, None]
        fit = np.linalg.lstsq(x, sample[:, child], rcond=None)[0][0]
        assert abs(fit - beta) < 0.05


def test_hidden_confounders_setting_assigns_any_scm_as_linear():
    # the setting chooses the SCM generator only: on an SCM without hidden
    # nodes, as on one with them, simulate assigns the linear sample
    confounded = next(s for s in (random_scm(5, 1.5, CONFOUNDED, seed) for seed in range(50))
                      if s.hidden)
    for scm in (make_chain([1.0, -0.5], mode="real"), confounded):
        hidden = simulate(scm, SimSetting("hidden_confounders"), 100, seed=3)
        linear = simulate(scm, SimSetting("linear"), 100, seed=3)
        assert hidden.names == linear.names and bitwise_equal(hidden.values, linear.values)
        assert (simulation_bytes(scm, SimSetting("hidden_confounders"), 100)
                == simulation_bytes(scm, SimSetting("linear"), 100))


def test_grid_validation_and_counts():
    with pytest.raises(ValidationError):
        GridSpec((), (4,), (1.5,))
    grid = GridSpec((100,), (3,), (2.5,), settings=("linear",))
    scenarios = list(simulate_grid(grid, reps=1, seed=0))
    assert len(scenarios) == 1
    (s,) = scenarios
    assert (s.setting.kind, s.n, s.p, s.alpha, s.rep) == ("linear", 100, 3, 2.5, 0)

    desk = GridSpec((100, 200), (3, 4, 5), (1.5, 2.5, 3.5),
                    settings=("linear", "hidden_confounders", "nonlinear", "uniform_margins"))
    assert sum(1 for _ in simulate_grid(desk, reps=2, seed=0)) == 2 * 3 * 3 * 4 * 2


_CAP = MEMORY_CAP_BYTES


@pytest.mark.parametrize("n, p, alpha, cap, message", [
    ((40.9,), (3,), (1.5,), _CAP, "grid n value must be a whole number, got 40.9"),
    ((40,), (3.7,), (1.5,), _CAP, "grid p value must be a whole number, got 3.7"),
    ((float("nan"),), (3,), (1.5,), _CAP, "grid n value must be a whole number, got nan"),
    ((True,), (3,), (2.5,), _CAP, "grid n value must be a whole number, got True"),
    ((40,), (3,), (float("nan"),), _CAP, "grid alpha values must be positive and finite"),
    ((40,), (3,), (float("inf"),), _CAP, "grid alpha values must be positive and finite"),
    ((40,), (3,), ("2.5",), _CAP, "grid alpha values must be positive and finite"),
    ((40,), (3,), (10 ** 400,), _CAP, "grid alpha values must be positive and finite"),
    ((40,), (3,), (1.5,), 5.7, "grid memory_cap_bytes must be a whole number, got 5.7"),
    ((40,), (3,), (1.5,), True, "grid memory_cap_bytes must be a whole number, got True"),
    ((40,), (3,), (1.5,), -5, "grid memory_cap_bytes must be positive, got -5"),
    ((40,), (3,), (1.5,), 0, "grid memory_cap_bytes must be positive, got 0"),
], ids=["fractional-n", "fractional-p", "nan-n", "bool-n", "nan-alpha", "inf-alpha",
        "string-alpha", "huge-alpha", "fractional-cap", "bool-cap", "negative-cap", "zero-cap"])
def test_grid_refuses_fractional_sizes_and_non_finite_alpha(n, p, alpha, cap, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        GridSpec(n, p, alpha, memory_cap_bytes=cap)


def test_grid_keeps_integral_float_sizes():
    grid = GridSpec((1e6,), (4.0,), (1.5,), memory_cap_bytes=1e6)
    assert (grid.n_values, grid.p_values, grid.memory_cap_bytes) == ((10**6,), (4,), 10**6)
    assert all(type(v) is int for v in grid.n_values + grid.p_values + (grid.memory_cap_bytes,))


def test_grid_memory_cap_is_checked_before_the_scm_draw():
    # the SCM draw alone holds a p x p float64 array, 32 MB at p = 2000
    grid = GridSpec((10,), (2000,), (1.5,), memory_cap_bytes=10**5)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="memory cap"):
            next(simulate_grid(grid, reps=1, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


@pytest.mark.parametrize("kind", ["linear", "hidden_confounders"])
def test_scm_memory_bound_covers_the_scm_draw(kind):
    setting = SimSetting(kind)
    for p in (300, 600):
        seed = scenario_streams(0, 10, p, 1.5, 0)[0]
        tracemalloc.start()
        try:
            random_scm(p, 1.5, scm_config(setting), seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bound is at least what the draw held
        with pytest.raises(CapacityError, match=f"drawing an SCM of {p} nodes"):
            set_up_replicate(0, peak - 1, setting, 10, p, 1.5, 0)
        set_up_replicate(0, 2 * peak, setting, 10, p, 1.5, 0)  # and not far above it


@pytest.mark.parametrize("kind", ["linear", "hidden_confounders"])
@pytest.mark.parametrize("p", [1, 2, 4, 10, 30, 60, 100])
def test_scm_memory_bound_covers_small_scm_draws(kind, p):
    # a small SCM's Dag, dicts and per-node tuples cost a few KB beyond p**2
    setting = SimSetting(kind)
    peak = 0
    for rep in range(10):
        seed = scenario_streams(0, 10, p, 1.5, rep)[0]
        tracemalloc.start()
        try:
            random_scm(p, 1.5, scm_config(setting), seed)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    with pytest.raises(CapacityError, match=f"drawing an SCM of {p} nodes"):
        set_up_replicate(0, peak - 1, setting, 10, p, 1.5, 0)


def test_grid_stream_determinism():
    grid = GridSpec((150,), (4,), (2.5,), settings=("linear", "uniform_margins"))
    first = [s.data.values for s in simulate_grid(grid, reps=2, seed=9)]
    second = [s.data.values for s in simulate_grid(grid, reps=2, seed=9)]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_grid_shares_noise_across_settings():
    grid = GridSpec((300,), (4,), (2.5,), settings=("linear", "uniform_margins"))
    scenarios = list(simulate_grid(grid, reps=1, seed=10))
    linear, uniform = scenarios[0], scenarios[1]
    assert linear.truth.coefficients == uniform.truth.coefficients
    config = EstimatorConfig(k_exponent=0.4, kind="psi")
    a = coefficient_matrix(linear.data, config).values
    b = coefficient_matrix(uniform.data, config).values
    assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))


def test_grid_memory_cap():
    grid = GridSpec((10**6,), (200,), (2.5,), memory_cap_bytes=10**6)
    with pytest.raises(CapacityError):
        next(iter(simulate_grid(grid, reps=1, seed=0)))


def test_memory_cap_counts_hidden_nodes_and_copies():
    setting = SimSetting("hidden_confounders")
    scm = random_scm(8, 2.5, CONFOUNDED, seed=3)
    assert scm.hidden
    n = 100
    p_obs = len(scm.observed)
    need = simulation_bytes(scm, setting, n)
    # simulate's column of every node, hidden ones included, and one noise
    # draw set it; the observed columns are not copied
    assert need == 8 * n * (scm.p + 1)
    # the nonlinear setting adds the thresholded parent column
    assert simulation_bytes(scm, SimSetting("nonlinear"), n) == 8 * n * (scm.p + 2)
    # uniform margins ranks in simulate: the raw columns, their uint8 ranks
    # and their ECDF
    assert simulation_bytes(scm, SimSetting("uniform_margins"), n) == n * (8 * 2 * p_obs + p_obs)
    # below 3 nodes a Dataset's ranking sets it: its columns, its ranks and
    # the rank kernel's 3 columns of scratch; the rank dtype widens at n = 256
    chain = make_chain([1.0, 1.0])
    assert simulation_bytes(chain, SimSetting("linear"), n) == n * (9 * 3 + 8 * 3)
    assert simulation_bytes(chain, SimSetting("linear"), 256) == 256 * (10 * 3 + 8 * 3)
    # a run draw that fills its array is that array; a shorter run's draw
    # (9 bytes a value for symmetric_pareto) is held until copied into place
    mixed = Scm(10, {}, (NoiseSpec("student_t", 1.5),)
                + (NoiseSpec("symmetric_pareto", 1.5),) * 9)
    assert simulation_bytes(mixed, SimSetting("linear"), n) == n * (8 * 10 + 9 * 9)
    # set_up_replicate passes a cap of exactly this count and refuses one byte
    # less; at n = 1000, where the count is over the bound of the SCM draw
    n = 1000
    replicate = set_up_replicate(3, MEMORY_CAP_BYTES, setting, n, 8, 2.5, 0)
    need = simulation_bytes(replicate.truth, setting, n)
    set_up_replicate(3, need, setting, n, 8, 2.5, 0)
    with pytest.raises(CapacityError, match=f"simulating n={n} rows .* needs about {need} bytes"):
        set_up_replicate(3, need - 1, setting, n, 8, 2.5, 0)


@pytest.mark.parametrize("kind", SETTINGS)
@pytest.mark.parametrize("p", [1, 2, 4, 10])
def test_memory_cap_bounds_what_simulate_allocates(kind, p):
    n = 20_000
    setting = SimSetting(kind)
    confounded = SimSetting("hidden_confounders")
    # every setting also runs on a confounded SCM: its hidden columns must die
    # before simulate ranks the Dataset under uniform margins
    for seed, scm_setting in itertools.product(range(2), (setting, confounded)):
        scm = random_scm(p, 1.5, scm_config(scm_setting), seed)
        tracemalloc.start()
        try:
            data = simulate(scm, setting, n, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulation_bytes(scm, setting, n) + 64 * 1024
        assert data.n == n


@pytest.mark.parametrize("p", [1000, 2000])
def test_simulate_holds_no_p_by_p_array(p):
    # at n = 10 the columns are tiny, so a p x p coefficient matrix (8 MB at
    # p = 1000) would dwarf the count; beyond it simulate holds each node's
    # column view and name, under 256 bytes a node
    for scm_setting in (SimSetting("linear"), SimSetting("hidden_confounders")):
        scm = random_scm(p, 1.5, scm_config(scm_setting), scenario_streams(0, 10, p, 1.5, 0)[0])
        for kind in SETTINGS:
            setting = SimSetting(kind)
            tracemalloc.start()
            try:
                simulate(scm, setting, 10, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= simulation_bytes(scm, setting, 10) + 64 * 1024 + 256 * scm.p, kind


def test_simulate_holds_one_column_per_node():
    # the observed columns are sampled into the array the Dataset adopts:
    # no x[:, observed] copy and no Dataset copy, only one noise draw on top
    n = 20_000
    setting = SimSetting("hidden_confounders")
    scm = next(s for s in (random_scm(10, 1.5, CONFOUNDED, seed) for seed in range(50))
               if len(s.hidden) >= 3)
    assert len(scm.observed) == 10
    tracemalloc.start()
    try:
        data = simulate(scm, setting, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (scm.p + 1) + 64 * 1024
    assert data.values.flags.f_contiguous and not data.values.flags.writeable


@pytest.mark.parametrize("family", ["student_t", "shifted_pareto", "symmetric_pareto"])
def test_memory_cap_counts_the_noise_draw(family):
    n = 20_000
    for scm in (make_chain([1.0, 0.5], alpha=1.5, family=family),
                Scm(2, {(0, 1): 1.0},
                    (NoiseSpec(family, 1.5), NoiseSpec("symmetric_pareto", 1.5, 1.0, 1e6)))):
        tracemalloc.start()
        try:
            simulate(scm, SimSetting("linear"), n, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulation_bytes(scm, SimSetting("linear"), n) + 64 * 1024


def test_uniform_margins_ranks_each_column_once(monkeypatch):
    scm = random_scm(6, 1.5, GeneratorConfig(hidden_confounders=True), seed=2)
    assert scm.hidden
    ranked = []

    def counting_kernel(column, out=None):
        ranked.append(column.copy())
        return rank_kernel(column, out)

    monkeypatch.setattr("heavytail.data.rank_kernel", counting_kernel)
    linear = simulate(scm, SimSetting("hidden_confounders"), 3000, seed=8)
    assert ranked == []
    uniform = simulate(scm, SimSetting("uniform_margins"), 3000, seed=8)
    assert [c.tolist() for c in ranked] == [
        linear.values[:, c].tolist() for c in range(linear.p)]
    ranked.clear()
    for kind in ("gamma", "psi"):
        coefficient_matrix(uniform, EstimatorConfig(kind=kind))
    assert ranked == []
    for c in range(linear.p):
        assert np.array_equal(uniform.values[:, c], ecdf_values(linear.values[:, c]))
    assert not uniform.values.flags.writeable


def test_mixed_noise_families_supported():
    scm = Scm(2, {(0, 1): 1.0},
              (NoiseSpec("student_t", 1.5), NoiseSpec("symmetric_pareto", 1.5)),
              mode="positive")
    sample = simulate(scm, SimSetting("linear"), 500, seed=0)
    assert sample.n == 500 and sample.p == 2


def _per_column_noise(scm, n, seed):
    """Reference draw: one column per node in index order, each put in place."""
    rng = np.random.default_rng(seed)
    observed = np.empty((n, len(scm.observed)))
    hidden = np.empty((n, len(scm.hidden)))
    where = {j: (observed, c) for c, j in enumerate(scm.observed)}
    where.update({j: (hidden, c) for c, j in enumerate(sorted(scm.hidden))})
    for j in range(scm.p):
        array, c = where[j]
        array[:, c] = reference_noise(scm.noise[j], n, rng)
    return observed, hidden


def _mixed_family_scm():
    t, sym, shifted = (NoiseSpec("student_t", 1.5), NoiseSpec("symmetric_pareto", 1.5, 1.0, 1e6),
                       NoiseSpec("shifted_pareto", 1.5, 2.0, 0.5))
    return Scm(10, {(j, j + 1): 0.5 for j in range(9)},
               (t, t, t, sym, sym, shifted, t, t, sym, sym))


def _interleaved_hidden_scm():
    # hidden nodes 1 and 4 sit among the observed ones and split the runs
    return scm_from_dict({
        "p": 7, "alpha": 2.0, "mode": "real", "hidden": [1, 4],
        "edges": [[1, 0, 0.5], [1, 2, -0.8], [4, 3, 1.0], [4, 5, 0.7], [3, 6, 0.9]],
        "noise": [{"family": "student_t"}, {"family": "student_t"},
                  {"family": "symmetric_pareto", "scale_upper": 2.0, "scale_lower": 0.5},
                  {"family": "symmetric_pareto", "scale_upper": 2.0, "scale_lower": 0.5},
                  {"family": "shifted_pareto"}, {"family": "shifted_pareto"},
                  {"family": "shifted_pareto"}]})


@pytest.mark.parametrize("n", [1, 7, 31, 1001])
def test_run_draws_match_per_column_draws_bitwise(n):
    confounded = next(s for s in (random_scm(6, 1.5, CONFOUNDED, seed) for seed in range(50))
                      if s.hidden)
    for scm in (_mixed_family_scm(), _interleaved_hidden_scm(), confounded):
        observed, hidden = _draw_noise(scm, n, np.random.default_rng(5))
        ref_observed, ref_hidden = _per_column_noise(scm, n, 5)
        assert observed.flags.f_contiguous and hidden.flags.f_contiguous
        assert bitwise_equal(observed, ref_observed) and bitwise_equal(hidden, ref_hidden)
    # random_scm puts its confounders last: one run per array
    assert [run[1:] for run in _noise_runs(confounded)] == [
        (False, 0, len(confounded.observed), True), (True, 0, len(confounded.hidden), True)]
    assert len(list(_noise_runs(_interleaved_hidden_scm()))) == 5


def _alive(helper):
    return any(thread.is_alive() for thread in helper._threads)


@pytest.fixture
def helpers(monkeypatch):
    # draw ahead however small the draw, so that small grids run the pipeline
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor.record())
    monkeypatch.setattr(simulate_module, "_AHEAD_MIN_VALUES", 0)
    return RecordingExecutor


@pytest.mark.parametrize("kind", SETTINGS)
def test_grid_pipeline_matches_sequential_simulate(kind, helpers):
    grid = GridSpec((40, 300), (3, 5), (1.5, 2.0), settings=(SimSetting(kind),))
    scenarios = list(simulate_grid(grid, reps=2, seed=4))
    expected = [(setting, n, p, alpha, rep) for setting, n, p, alpha in grid.cells()
                for rep in range(2)]
    assert [(s.setting, s.n, s.p, s.alpha, s.rep) for s in scenarios] == expected
    for s in scenarios:
        scm_seed, data_seed = scenario_streams(4, s.n, s.p, s.alpha, s.rep)
        scm = random_scm(s.p, s.alpha, scm_config(s.setting), scm_seed)
        data = simulate(scm, s.setting, s.n, data_seed)
        assert s.truth.coefficients == scm.coefficients and s.truth.hidden == scm.hidden
        assert s.data.names == data.names and bitwise_equal(s.data.values, data.values)
    # every replicate but the first was handed to one helper, and each draw
    # handed on was settled once: read, or cancelled and drawn by the caller
    (helper,) = helpers.helpers
    assert [(r.n, r.p, r.alpha, r.rep) for r in helpers.submitted] == [
        key[1:] for key in expected[1:]]
    assert len({id(f) for f in helpers.read}) == len(helpers.read) == len(helpers.submitted)
    assert not _alive(helper)


def test_grid_pipeline_under_a_short_switch_interval(helpers, monkeypatch):
    # threads switch after every few bytecodes: the draws handed between the
    # helper and the caller still come out whole and in order
    grid = GridSpec((200,), (4, 6), (1.5,), settings=("linear", "hidden_confounders"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pipelined = list(simulate_grid(grid, reps=4, seed=3))
    finally:
        sys.setswitchinterval(interval)
    assert len(helpers.submitted) == len(pipelined) - 1
    monkeypatch.setattr(simulate_module, "_AHEAD_MIN_VALUES", 1 << 62)
    sequential = list(simulate_grid(grid, reps=4, seed=3))
    assert all(bitwise_equal(a.data.values, b.data.values)
               for a, b in zip(pipelined, sequential, strict=True))


def test_grid_draws_ahead_only_draws_of_enough_values(monkeypatch):
    for n, ahead in ((simulate_module._AHEAD_MIN_VALUES // 4 - 1, 0),
                     (simulate_module._AHEAD_MIN_VALUES // 4, 2)):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor.record())
        list(simulate_grid(GridSpec((n,), (4,), (1.5,)), reps=3, seed=0))
        assert len(RecordingExecutor.submitted) == ahead


def test_grid_single_replicate_starts_no_thread(helpers):
    scenarios = list(simulate_grid(GridSpec((100,), (3,), (1.5,)), reps=1, seed=0))
    assert len(scenarios) == 1 and helpers.helpers == []


def _helper_draw(monkeypatch, action):
    """Patch the draw so that on the helper thread it signals, then runs ``action``."""
    taken = threading.Event()

    def draw(scm, n, rng):
        if threading.current_thread() is not threading.main_thread():
            taken.set()
            action()
        return _draw_noise(scm, n, rng)

    monkeypatch.setattr(simulate_module, "_draw_noise", draw)
    return taken


def test_grid_close_joins_the_helper(helpers, monkeypatch):
    started = []
    taken = _helper_draw(monkeypatch, lambda: (started.append(1), time.sleep(0.2)))
    scenarios = simulate_grid(GridSpec((100,), (3,), (1.5,)), reps=3, seed=0)
    next(scenarios)
    assert taken.wait(timeout=10)
    (helper,) = helpers.helpers
    # replicate 1's draw in flight, replicate 2's queued behind it
    assert len(helpers.submitted) == 2 and _alive(helper)
    scenarios.close()
    # the draw in flight finished, the queued one never started, and close
    # returned only once the helper had joined
    assert not _alive(helper)
    assert started == [1] and helpers.read == []


def test_grid_helper_error_surfaces_when_its_replicate_is_asked_for(helpers, monkeypatch):
    def fail():
        raise MemoryError("draw failed")

    taken = _helper_draw(monkeypatch, fail)
    scenarios = simulate_grid(GridSpec((100,), (3,), (1.5,)), reps=2, seed=0)
    assert next(scenarios).rep == 0
    assert taken.wait(timeout=10)
    with pytest.raises(MemoryError, match="draw failed"):
        next(scenarios)
    assert not _alive(helpers.helpers[0])


def _stall(helpers, monkeypatch):
    """Keep the helper busy with a first job until the returned Event is set.

    The blocking job's future is appended to the returned list.
    """
    release = threading.Event()
    started = []

    def stalled(*args):
        helper = helpers(*args)
        started.append(ThreadPoolExecutor.submit(helper, release.wait, 10))
        return helper

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", stalled)
    return release, started


def test_grid_draws_a_draw_the_helper_has_not_taken_itself(helpers, monkeypatch):
    # a worker kept busy by a first job it cannot finish: every draw is
    # cancelled and drawn inline
    release, started = _stall(helpers, monkeypatch)
    threads = []
    monkeypatch.setattr(simulate_module, "_draw_noise", lambda scm, n, rng: (
        threads.append(threading.current_thread()), _draw_noise(scm, n, rng))[1])
    grid = GridSpec((200,), (4,), (1.5,), settings=("linear", "nonlinear"))
    scenarios = simulate_grid(grid, reps=3, seed=2)
    drawn = [next(scenarios) for _ in range(6)]
    assert len(helpers.submitted) == 5 and len(helpers.read) == 5
    assert all(future.cancelled() for future in helpers.read)
    assert threads == [threading.main_thread()] * 6
    release.set()
    assert next(scenarios, None) is None
    (blocker,) = started
    assert blocker.result(timeout=10) and not _alive(helpers.helpers[0])
    monkeypatch.setattr(simulate_module, "_AHEAD_MIN_VALUES", 1 << 62)
    sequential = list(simulate_grid(grid, reps=3, seed=2))
    assert all(bitwise_equal(a.data.values, b.data.values)
               for a, b in zip(drawn, sequential, strict=True))


def test_grid_caller_draws_the_queued_replicate_while_the_helper_draws(helpers, monkeypatch):
    # the helper is held inside replicate 1's draw until the caller has drawn
    # replicate 2, queued behind it, itself
    main = threading.main_thread()
    stolen = threading.Event()
    taken = _helper_draw(monkeypatch, lambda: stolen.wait(10))
    drawn = {}  # rep -> the thread that drew it
    draw = simulate_module._draw

    def recorded(replicate):
        drawn[replicate.rep] = threading.current_thread()
        if drawn[replicate.rep] is main and replicate.rep:
            stolen.set()
        return draw(replicate)

    monkeypatch.setattr(simulate_module, "_draw", recorded)
    grid = GridSpec((300,), (4,), (1.5,))
    scenarios = simulate_grid(grid, reps=3, seed=5)
    pipelined = [next(scenarios)]
    assert taken.wait(timeout=10)
    pipelined += list(scenarios)
    (worker,) = helpers.helpers[0]._threads
    assert drawn == {0: main, 1: worker, 2: main}
    assert [r.rep for r in helpers.submitted] == [1, 2]
    monkeypatch.setattr(simulate_module, "_AHEAD_MIN_VALUES", 1 << 62)
    for a, b in zip(pipelined, simulate_grid(grid, reps=3, seed=5), strict=True):
        assert bitwise_equal(a.data.values, b.data.values)
        scm_seed, data_seed = scenario_streams(5, a.n, a.p, a.alpha, a.rep)
        scm = random_scm(a.p, a.alpha, scm_config(a.setting), scm_seed)
        alone = simulate(scm, a.setting, a.n, data_seed)
        assert bitwise_equal(a.data.values, alone.values)


def test_grid_capacity_error_surfaces_when_its_replicate_is_asked_for(helpers):
    grid = GridSpec((100, 10**6), (4,), (1.5,), memory_cap_bytes=10**6)
    scenarios = simulate_grid(grid, reps=1, seed=0)
    assert next(scenarios).n == 100
    assert helpers.submitted == []
    with pytest.raises(CapacityError):
        next(scenarios)


def test_grid_draws_ahead_only_when_both_replicates_fit(helpers):
    n, p = 1000, 4
    scms = [random_scm(p, 1.5, GeneratorConfig(), scenario_streams(0, n, p, 1.5, rep)[0])
            for rep in range(3)]
    (need,) = {simulation_bytes(a, SimSetting("linear"), n) + _draw_bytes(b, n)
               for a, b in zip(scms, scms[1:])}
    for cap, ahead in ((need - 1, 0), (need, 2)):
        helpers.submitted.clear()
        list(simulate_grid(GridSpec((n,), (p,), (1.5,), memory_cap_bytes=cap), reps=3, seed=0))
        assert len(helpers.submitted) == ahead


def _set_up(grid, reps):
    return [set_up_replicate(0, grid.memory_cap_bytes, *cell, rep)
            for cell in grid.cells() for rep in range(reps)]


def test_set_up_replicate_is_the_yielded_scenario_without_its_data(helpers):
    # one record: the grid yields each replicate set_up_replicate returns,
    # with its Dataset assigned and every other field as it was
    grid = GridSpec((40, 300), (3, 5), (1.5,), settings=("linear", "hidden_confounders"))
    yielded = list(simulate_grid(grid, reps=2, seed=0))
    assert helpers.submitted
    for s, r in zip(yielded, _set_up(grid, 2), strict=True):
        assert type(s) is type(r) is Scenario
        assert r.data is None and isinstance(s.data, Dataset)
        for field in dataclasses.fields(Scenario):
            a, b = getattr(s, field.name), getattr(r, field.name)
            if field.name == "truth":
                assert scm_to_dict(a) == scm_to_dict(b)
            elif field.name == "data_seed":
                assert (a.entropy, a.spawn_key) == (b.entropy, b.spawn_key)
            elif field.name != "data":
                assert a == b, field.name


def test_grid_hands_on_two_draws_only_when_both_fit(helpers):
    # the held replicate's simulation_bytes, plus every draw held or in
    # flight: a cap with room for one draw hands one on per replicate, one
    # with room for two hands two on with the first
    n, p = 1000, 4
    replicates = _set_up(GridSpec((n,), (p,), (1.5,)), 3)
    (held,) = {simulation_bytes(r.truth, r.setting, n) for r in replicates}
    (draw,) = {_draw_bytes(r.truth, n) for r in replicates}
    for cap, first in ((held + draw, 1), (held + 2 * draw - 1, 1), (held + 2 * draw, 2)):
        helpers.submitted.clear()
        scenarios = simulate_grid(GridSpec((n,), (p,), (1.5,), memory_cap_bytes=cap), reps=3,
                                  seed=0)
        next(scenarios)
        assert len(helpers.submitted) == first
        list(scenarios)
        assert [r.rep for r in helpers.submitted] == [1, 2]


# Replicates are indexed in grid order: SAME holds three alike (n = 1000),
# GROWING two of n = 10, then two of n = 1000. At _growing_cap replicate 3's
# draw fits beside replicate 1 held, but not beside replicate 2.
SAME, GROWING = GridSpec((1000,), (4,), (1.5,)), GridSpec((10, 1000), (4,), (1.5,))


def _sizes(grid):
    """simulation_bytes and _draw_bytes of each replicate of the grid (3 reps of SAME, else 2)."""
    replicates = _set_up(grid, 3 if grid is SAME else 2)
    return ([simulation_bytes(r.truth, r.setting, r.n) for r in replicates],
            [_draw_bytes(r.truth, r.n) for r in replicates])


def _growing_cap(held, draws):
    return held[1] + draws[2] + draws[3]


def test_grid_keeps_the_memory_cap_at_every_take(helpers):
    # however soon the helper finishes each draw, the held replicate and
    # the draws handed on beyond it stay within the cap
    grid = dataclasses.replace(GROWING, memory_cap_bytes=_growing_cap(*_sizes(GROWING)))
    take_each_checking_the_cap(grid, 2, 0)


def test_grid_hands_on_only_draws_that_fit_once_held(helpers, monkeypatch):
    # replicate 3's draw would not fit beside replicate 2 held, so it is
    # never handed on: the caller draws it, and no draw is withdrawn
    drawn = {}  # (n, rep) -> the thread that drew it
    draw = simulate_module._draw

    def recorded(replicate):
        drawn[replicate.n, replicate.rep] = threading.current_thread()
        return draw(replicate)

    monkeypatch.setattr(simulate_module, "_draw", recorded)
    held, draws = _sizes(GROWING)
    assert held[0] + draws[1] + draws[2] <= _growing_cap(held, draws) < held[2] + draws[3]
    take_each_checking_the_cap(
        dataclasses.replace(GROWING, memory_cap_bytes=_growing_cap(held, draws)), 2, 0)
    assert [(r.n, r.rep) for r in helpers.submitted] == [(10, 1), (1000, 0)]
    assert drawn[1000, 1] is threading.main_thread()
    assert len(helpers.read) == 2 and not any(future.cancelled() for future in helpers.read)


# The cap rule at the caps the threaded tests above compute, without
# threads. A case is (grid, the window's replicates, cap, whether it fits).
_CAP_RULE_CASES = {
    # test_grid_draws_ahead_only_when_both_replicates_fit
    "r + 1 does not fit": (SAME, [0, 1], lambda h, d: h[0] + d[1] - 1, False),
    "r + 1 fits": (SAME, [0, 1], lambda h, d: h[0] + d[1] + 1, True),
    # test_grid_hands_on_two_draws_only_when_both_fit
    "r + 2 does not fit": (SAME, [0, 1, 2], lambda h, d: h[0] + d[1] + d[2] - 1, False),
    "r + 2 fits": (SAME, [0, 1, 2], lambda h, d: h[0] + d[1] + d[2] + 1, True),
    # test_grid_hands_on_only_draws_that_fit_once_held
    "two draws fit beside the small one": (GROWING, [0, 1, 2], _growing_cap, True),
    "a later held replicate that would not fit refuses the draw": (
        GROWING, [1, 2, 3], _growing_cap, False),
    "r + 1 does not fit beside the large one": (GROWING, [2, 3], _growing_cap, False),
    # a total equal to the cap fits
    "boundary, one draw": (SAME, [0, 1], lambda h, d: h[0] + d[1], True),
    "boundary, two draws": (SAME, [0, 1, 2], lambda h, d: h[0] + d[1] + d[2], True),
    "boundary, a later held replicate": (GROWING, [1, 2, 3], lambda h, d: h[2] + d[3], True),
}


@pytest.mark.parametrize("case", _CAP_RULE_CASES)
def test_cap_rule_without_threads(case):
    grid, window, cap, expected = _CAP_RULE_CASES[case]
    h, d = _sizes(grid)
    assert _fits(cap(h, d), [h[j] for j in window], [d[j] for j in window[1:]]) is expected
