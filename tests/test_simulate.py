import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavytail import (CapacityError, DomainError, EstimatorConfig, GeneratorConfig,
                       GridSpec, NoiseSpec, SimSetting, ValidationError,
                       coefficient_matrix, gamma_estimate, random_scm, simulate,
                       ecdf_values, simulate_grid)
from heavytail.simulate import (_quantile_threshold, check_memory, scenario_scm,
                                simulation_bytes)

from conftest import make_chain


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
    with pytest.raises(ValidationError, match="hidden"):
        simulate(scm, SimSetting("hidden_confounders"), 100, seed=0)
    with pytest.raises(DomainError):
        simulate(scm, SimSetting("nonlinear"), 1, seed=0)
    with pytest.raises(DomainError):
        simulate(scm, SimSetting("uniform_margins"), 1, seed=0)


def test_simulate_determinism():
    scm = make_chain([1.0, 0.5], mode="positive")
    a = simulate(scm, SimSetting("linear"), 500, seed=7).data.values
    b = simulate(scm, SimSetting("linear"), 500, seed=7).data.values
    assert np.array_equal(a, b)


def test_linear_chain_estimates_near_oracle():
    scm = make_chain([1.0], alpha=1.0)
    sample = simulate(scm, SimSetting("linear"), 2 * 10**5, seed=2).data
    value = gamma_estimate(sample, 1, 0, EstimatorConfig(k_exponent=0.4))
    assert abs(value - 0.75) < 0.08


def test_uniform_margins_columns_are_rank_grids():
    scm = make_chain([0.8, -0.6], mode="real", alpha=2.5)
    sample = simulate(scm, SimSetting("uniform_margins"), 400, seed=3).data
    expected = np.arange(1, 401) / 400
    for c in range(sample.p):
        assert np.array_equal(np.sort(sample.values[:, c]), expected)


def test_nonlinear_quantile_zero_is_linear_bitwise():
    scm = make_chain([0.9, -0.4], mode="real", alpha=2.5)
    linear = simulate(scm, SimSetting("linear"), 1000, seed=4).data.values
    degenerate = simulate(scm, SimSetting("nonlinear", nonlinear_quantile=0.0),
                          1000, seed=4).data.values
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
    linear = simulate(scm, SimSetting("linear"), 1000, seed=5).data.values
    nonlinear = simulate(scm, SimSetting("nonlinear"), 1000, seed=5).data.values
    assert np.array_equal(linear[:, 0], nonlinear[:, 0])
    assert not np.array_equal(linear[:, 1], nonlinear[:, 1])
    # below the parent's 0.95 quantile the parent contribution is dropped
    cutoff = np.quantile(linear[:, 0], 0.95)
    mask = linear[:, 0] <= cutoff
    noise = linear[:, 1] - 0.9 * linear[:, 0]
    assert np.allclose(nonlinear[mask, 1], noise[mask])


def test_hidden_columns_dropped_but_kept_in_truth():
    scm = random_scm(6, 2.5, GeneratorConfig(hidden_confounders=True), seed=0)
    assert scm.hidden
    result = simulate(scm, SimSetting("hidden_confounders"), 200, seed=0)
    assert result.data.p == len(scm.observed)
    assert result.data.names == tuple(f"x{j}" for j in scm.observed)
    assert result.truth is scm


def test_uniform_margins_estimates_match_linear_bitwise():
    scm = make_chain([0.9, -0.7], mode="real", alpha=2.5)
    linear = simulate(scm, SimSetting("linear"), 2000, seed=6).data
    uniform = simulate(scm, SimSetting("uniform_margins"), 2000, seed=6).data
    config = EstimatorConfig(k_exponent=0.4, kind="psi")
    a = coefficient_matrix(linear, config).values
    b = coefficient_matrix(uniform, config).values
    assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))


def test_ols_recovers_coefficients_in_finite_variance_regime():
    scm = make_chain([0.8, -0.5], mode="real", alpha=3.5)
    sample = simulate(scm, SimSetting("linear"), 10**5, seed=8).data.values
    for child, parent, beta in ((1, 0, 0.8), (2, 1, -0.5)):
        x = sample[:, parent][:, None]
        fit = np.linalg.lstsq(x, sample[:, child], rcond=None)[0][0]
        assert abs(fit - beta) < 0.05


def test_grid_validation_and_counts():
    with pytest.raises(ValidationError):
        GridSpec((), (4,), (1.5,))
    grid = GridSpec((100,), (3,), (2.5,), settings=("linear",))
    scenarios = list(simulate_grid(grid, reps=1, seed=0))
    assert len(scenarios) == 1
    assert scenarios[0].scenario_id == "linear-n100-p3-a2.5-r0"

    desk = GridSpec((100, 200), (3, 4, 5), (1.5, 2.5, 3.5),
                    settings=("linear", "hidden_confounders", "nonlinear", "uniform_margins"))
    assert sum(1 for _ in simulate_grid(desk, reps=2, seed=0)) == 2 * 3 * 3 * 4 * 2


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
    scm = scenario_scm(8, 2.5, setting, seed=3)
    assert scm.hidden
    n = 100
    need = simulation_bytes(scm, setting, n)
    assert need == 8 * n * (scm.p + 2 * len(scm.observed))
    assert simulation_bytes(scm, SimSetting("uniform_margins"), n) == need + 8 * n * 8
    check_memory(scm, setting, n, need)
    with pytest.raises(CapacityError):
        check_memory(scm, setting, n, need - 1)


def test_mixed_noise_families_supported():
    from heavytail import Dag, Scm

    dag = Dag(2, [(0, 1)])
    scm = Scm(dag, {(0, 1): 1.0},
              (NoiseSpec("student_t", 1.5), NoiseSpec("symmetric_pareto", 1.5)),
              mode="positive")
    sample = simulate(scm, SimSetting("linear"), 500, seed=0).data
    assert sample.n == 500 and sample.p == 2
