import math
import re
import tracemalloc

import numpy as np
import pytest

from heavytail import (CapacityError, CausalOrder, EstimatorConfig, GeneratorConfig,
                       GridSpec, NoiseSpec, Scm, SimSetting, ValidationError, benchmark,
                       k_sensitivity, random_scm, score_order, sensitivity_rows_to_csv,
                       simulate)
from heavytail._rng import derived_seed
from heavytail.simulate import scenario_streams, simulation_bytes
import heavytail.evaluate as evaluate_module
from heavytail.evaluate import (_SCORE_BYTES_PER_PAIR, RESULT_HEADER, check_score_capacity,
                                recover_order)

from brute_oracles import brute_backward_pairs
from conftest import make_chain, mistake_rate


def test_score_order_chain_examples():
    scm = make_chain([1.0, 1.0])
    good = score_order(scm, CausalOrder([0, 1, 2]))
    assert good.valid
    assert (good.violations, good.violation_fraction, good.ancestral_pairs) == (0, 0.0, 3)
    bad = score_order(scm, CausalOrder([2, 1, 0]))
    assert not bad.valid
    assert bad.violations == 3 and bad.violation_fraction == 1.0


def test_score_order_diamond_interleaved(diamond_scm):
    score = score_order(diamond_scm, CausalOrder([0, 2, 1, 3]))
    assert score.valid and score.ancestral_pairs == 5


def test_score_order_node_set_mismatch(diamond_scm):
    with pytest.raises(ValidationError):
        score_order(diamond_scm, CausalOrder([0, 1, 2]))


def test_score_order_counts_pairs_through_hidden_nodes():
    scm = Scm(3, {(0, 1): 1.0, (1, 2): 1.0}, NoiseSpec("student_t", 1.5),
              mode="positive", hidden=[1])
    score = score_order(scm, CausalOrder([2, 0]))
    assert not score.valid and score.violations == 1 and score.ancestral_pairs == 1


def test_score_order_no_pairs_fraction_zero():
    scm = Scm(2, {}, NoiseSpec("student_t", 1.5))
    score = score_order(scm, CausalOrder([1, 0]))
    assert score.valid and score.violation_fraction == 0.0


def test_random_order_baseline_near_half():
    rng = np.random.default_rng(0)
    scm = make_chain([1.0, 1.0, 1.0])
    fractions = []
    for _ in range(10**4):
        order = CausalOrder(rng.permutation(4).tolist())
        fractions.append(score_order(scm, order).violation_fraction)
    assert abs(np.mean(fractions) - 0.5) < 0.05


def test_benchmark_trivial_single_node_grid():
    grid = GridSpec((50,), (1,), (2.5,), settings=("linear",))
    rows = benchmark(grid, reps=3, seed=0)
    assert {r.method for r in rows} == {"ease_gamma", "ease_psi", "random_order"}
    for row in rows:
        assert row.mean_violation_fraction == 0.0
        assert row.mistake_rate == 0.0


def test_benchmark_rows_reproducible():
    grid = GridSpec((300,), (4,), (2.5,), settings=("linear",))
    a = benchmark(grid, reps=6, seed=3)
    b = benchmark(grid, reps=6, seed=3)
    strip = lambda rows: [(r.scenario_id, r.method, r.mean_violation_fraction,
                           r.se, r.mistake_rate) for r in rows]
    assert strip(a) == strip(b)


def test_benchmark_linear_uniform_margin_rows_identical():
    grid = GridSpec((400,), (4,), (2.5,), settings=("linear", "uniform_margins"))
    rows = benchmark(grid, methods=("ease_psi",), reps=5, seed=4)
    linear = next(r for r in rows if r.setting == "linear")
    uniform = next(r for r in rows if r.setting == "uniform_margins")
    assert (linear.mean_violation_fraction, linear.se, linear.mistake_rate) == (
        uniform.mean_violation_fraction, uniform.se, uniform.mistake_rate)


def test_benchmark_header_and_validation():
    assert RESULT_HEADER[:6] == ("scenario_id", "setting", "n", "p", "alpha", "method")
    grid = GridSpec((50,), (2,), (2.5,))
    with pytest.raises(ValidationError):
        benchmark(grid, methods=("pc_rank",), reps=1, seed=0)
    with pytest.raises(ValidationError):
        benchmark(grid, reps=0, seed=0)
    with pytest.raises(ValidationError, match="repeat"):
        benchmark(grid, methods=("ease_psi", "random_order", "ease_psi"), reps=1, seed=0)


@pytest.mark.parametrize("grid, scenario_id", [
    (GridSpec((50, 50), (3,), (2, 2.0)), "linear-n50-p3-a2"),
    (GridSpec((50,), (3,), (1.5, 1.5000001)), "linear-n50-p3-a1.5"),
    (GridSpec((50,), (3,), (1.5,), settings=(SimSetting("nonlinear", 0.9),
                                             SimSetting("nonlinear", 0.95))),
     "nonlinear-n50-p3-a1.5"),
], ids=["repeated-n", "alphas-equal-under-g", "nonlinear-quantiles"])
def test_benchmark_refuses_cells_sharing_a_scenario_id(monkeypatch, grid, scenario_id):
    # the results CSV would hold both cells' rows under one id; nothing is set up first
    monkeypatch.setattr(evaluate_module, "simulate_grid", None)
    with pytest.raises(ValidationError, match=re.escape(f"scenario id {scenario_id!r}")):
        benchmark(grid, methods=("random_order",), reps=2, seed=0)


def test_benchmark_enforces_memory_cap():
    grid = GridSpec((10**6,), (200,), (2.5,), memory_cap_bytes=10**6)
    with pytest.raises(CapacityError):
        benchmark(grid, reps=1, seed=0)


def _benchmark_peak(reps, cap_bytes):
    grid = GridSpec((50000,), (4,), (1.5,), memory_cap_bytes=cap_bytes)
    tracemalloc.start()
    try:
        benchmark(grid, methods=("random_order",), reps=reps, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_benchmark_draws_the_next_replicates_noise_ahead():
    # while one replicate is scored the next two replicates' noise, an n x p
    # draw each, is drawn or held; nothing more is held
    dataset_bytes = 8 * 50000 * 4
    one = _benchmark_peak(1, 1 << 30)
    assert _benchmark_peak(3, 1 << 30) < one + 2 * dataset_bytes + dataset_bytes / 2


def test_benchmark_holds_one_replicate_at_a_time():
    # a cap that holds a replicate but not the next one's noise besides: the
    # next replicate is drawn only once the held one is dropped
    scm = random_scm(4, 1.5, GeneratorConfig(), scenario_streams(0, 50000, 4, 1.5, 0)[0])
    dataset_bytes = 8 * 50000 * 4
    cap = simulation_bytes(scm, SimSetting("linear"), 50000) + dataset_bytes - 1
    one = _benchmark_peak(1, cap)
    assert _benchmark_peak(3, cap) < one + dataset_bytes / 2


def test_k_sensitivity_rows_and_guards():
    cell = {"p": 2, "alpha": 2.5, "n": 500}
    rows = k_sensitivity([0.4], **cell, reps=4, seed=6)
    assert [row.k for row in rows] == [12]
    assert 0 <= rows[0].mean_violation_fraction <= 1
    # an exponent is refused by EstimatorConfig, p, alpha and reps by GridSpec and simulate_grid
    for exponents, bad in [([], {}), ([1.2], {}), ([0.4], {"n": None}), ([0.4], {"n": 1}),
                           ([0.4], {"p": None}), ([0.4], {"p": 0}), ([0.4], {"alpha": None}),
                           ([0.4], {"alpha": True}), ([0.4], {"alpha": 1.9e302}),
                           ([0.4], {"reps": 0})]:
        with pytest.raises(ValidationError):
            k_sensitivity(exponents, **{**cell, **bad})


def test_score_validity_matches_enumeration_with_hidden_nodes():
    import itertools

    from brute_oracles import all_causal_orders

    scm = Scm(4, {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0},
              NoiseSpec("student_t", 1.5), mode="positive", hidden=[1])
    observed = scm.observed
    restricted = {tuple(v for v in o if v in observed)
                  for o in all_causal_orders(scm.dag)}
    for perm in itertools.permutations(observed):
        assert score_order(scm, CausalOrder(perm)).valid == (perm in restricted)


def test_k_sensitivity_fresh_scm_mode_matches_benchmark():
    rows = k_sensitivity([0.4], p=4, alpha=2.5, n=400, reps=5, seed=4, kind="psi")
    grid = GridSpec((400,), (4,), (2.5,), settings=("linear",))
    bench = benchmark(grid, methods=("ease_psi",), reps=5, seed=4)
    assert rows[0].mean_violation_fraction == bench[0].mean_violation_fraction
    assert rows[0].se == bench[0].se
    text = sensitivity_rows_to_csv(rows)
    assert text.startswith("exponent,k,mean_violation_fraction,se\n")


def test_int_and_float_alpha_draw_the_same_fresh_scm_replicates():
    rows = [k_sensitivity([0.4], p=6, alpha=a, n=400, reps=8, seed=4, kind="psi")[0]
            for a in (2, 2.0)]
    assert rows[0] == rows[1]
    bench = benchmark(GridSpec((400,), (6,), (2,)), methods=("ease_psi",), reps=8, seed=4)
    assert rows[0].mean_violation_fraction == bench[0].mean_violation_fraction


def test_mistake_rate_on_hidden_scm_matches_a_double_loop_over_pairs():
    scm = random_scm(6, 1.5, GeneratorConfig(hidden_confounders=True), seed=0)
    assert scm.hidden
    config = EstimatorConfig(kind="psi")
    mistakes = violations = 0
    for rep in range(20):
        data = simulate(scm, SimSetting("hidden_confounders"), 300, derived_seed(7, rep))
        order = recover_order(data, config, scm.observed)
        backward = brute_backward_pairs(scm.p, scm.dag.edges, order.sequence)
        mistakes += bool(backward)
        violations += len(backward)
    rate, mean_violations = mistake_rate(scm, n=300, config=config, reps=20, seed=7)
    assert (rate, mean_violations) == (mistakes / 20, violations / 20)
    assert 0 < rate < 1


@pytest.mark.parametrize("hidden", [(), (0,)], ids=["all-observed", "one-hidden"])
@pytest.mark.parametrize("p, complete", [(1000, False), (500, True)], ids=["chain", "complete"])
def test_score_order_peak_stays_under_its_capacity_constant(p, complete, hidden):
    # every pair ancestral and placed backwards: a chain, or a complete DAG; a
    # hidden node adds the restricted copy of the ancestor matrix. p is large
    # enough that numpy's fixed ufunc buffer is small against p**2 bytes.
    edges = [(i, j) for i in range(p) for j in range(i + 1, p)] if complete else [
        (j, j + 1) for j in range(p - 1)]
    truth = Scm(p, {e: 1.0 for e in edges}, NoiseSpec("student_t", 1.5),
                hidden=hidden)
    order = CausalOrder(truth.observed[::-1])
    tracemalloc.start()
    try:
        score = score_order(truth, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    observed = p - len(hidden)
    assert score.violations == score.ancestral_pairs == observed * (observed - 1) // 2
    assert peak <= _SCORE_BYTES_PER_PAIR * p * p
    check_score_capacity(16384)
    with pytest.raises(CapacityError, match="the truth graph of 16385 nodes"):
        check_score_capacity(16385)


def test_aggregate_standard_error_by_hand():
    # fractions 0, 1/2, 1: mean 1/2, sample variance (1/4 + 0 + 1/4) / (3 - 1)
    # = 1/4, standard error sqrt(1/4 / 3); two of the three orders are invalid
    scores = [evaluate_module.OrderScore(f == 0.0, int(2 * f), f, 2) for f in (0.0, 0.5, 1.0)]
    mean, se, mistake = evaluate_module._aggregate([(s, 1.0) for s in scores])
    assert (mean, mistake) == (0.5, 2 / 3)
    assert se == math.sqrt(0.25 / 3)
