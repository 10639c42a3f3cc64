import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import (CoefMatrix, EstimatorConfig, GeneratorConfig, ValidationError,
                       ease, ease_trace, gamma_population, mistake_bound_margin,
                       psi_population, random_scm, score_order)
from heavytail.ease import EaseStep
from heavytail.formats import matrix_from_dict, read_json

from conftest import make_chain, mistake_rate, random_positive_scm_pool


@pytest.fixture(scope="module")
def finance_matrix():
    doc = read_json(importlib.resources.files("heavytail")
                    .joinpath("fixtures/swiss_finance_psi.json"))
    return matrix_from_dict(doc)


def test_financial_fixture_order(finance_matrix):
    order = ease(finance_matrix)
    names = [finance_matrix.names[i] for i in order.sequence]
    assert names == ["EURCHF", "NOVN", "ROG", "NESN"]


def test_financial_fixture_trace(finance_matrix):
    steps = ease_trace(finance_matrix)
    assert [finance_matrix.names[s.chosen] for s in steps] == [
        "EURCHF", "NOVN", "ROG", "NESN"]
    first = {finance_matrix.names[i]: v for i, v in steps[0].scores.items()}
    assert first == {"EURCHF": 0.72, "NESN": 0.94, "NOVN": 0.9, "ROG": 0.9}


def test_single_node_identity():
    matrix = CoefMatrix(np.array([[np.nan]]), "gamma")
    assert ease(matrix).sequence == (0,)


def test_tie_break_smallest_index():
    values = np.full((2, 2), 0.5)
    np.fill_diagonal(values, np.nan)
    matrix = CoefMatrix(values, "gamma")
    steps = ease_trace(matrix)
    assert steps[0].chosen == 0
    assert steps[0].scores == {0: 0.5, 1: 0.5}
    assert ease(matrix).sequence == (0, 1)


def test_oracle_chain_recovers_identity():
    scm = make_chain([1.0, 1.0], alpha=1.0)
    order = ease(gamma_population(scm))
    assert order.sequence == (0, 1, 2)


def test_oracle_diamond_first_pick_is_source(diamond_scm):
    steps = ease_trace(gamma_population(diamond_scm))
    assert steps[0].chosen == 0
    # only the source has every incoming coefficient below 1
    assert steps[0].scores[0] < 1.0
    assert all(steps[0].scores[i] == 1.0 for i in (1, 2, 3))


def test_trace_matches_ease_and_shrinks(finance_matrix):
    steps = ease_trace(finance_matrix)
    assert [len(s.remaining) for s in steps] == [4, 3, 2, 1]
    assert tuple(s.chosen for s in steps) == ease(finance_matrix).sequence


def test_rejects_non_finite_matrix():
    values = np.array([[np.nan, np.inf], [0.5, np.nan]])
    with pytest.raises(ValidationError, match="finite"):
        ease(CoefMatrix(values, "gamma"))


def test_determinism_and_bijection():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 1.0, size=(6, 6))
    np.fill_diagonal(values, np.nan)
    matrix = CoefMatrix(values, "psi")
    first = ease(matrix)
    assert first == ease(matrix)
    assert sorted(first.sequence) == list(range(6))


def test_shift_invariance():
    rng = np.random.default_rng(1)
    values = rng.uniform(0.5, 1.0, size=(5, 5))
    np.fill_diagonal(values, np.nan)
    shifted = values + 0.125  # exact float shift
    assert ease(CoefMatrix(values, "gamma")) == ease(CoefMatrix(shifted, "gamma"))


def test_population_correctness_sweep():
    for scm in random_positive_scm_pool(100, seed=11):
        order = ease(gamma_population(scm))
        assert score_order(scm, order).valid


def test_population_correctness_with_hidden_nodes():
    from heavytail import GeneratorConfig, random_scm

    checked = 0
    for seed in range(80):
        scm = random_scm(6, 1.5, GeneratorConfig(mode="positive", hidden_confounders=True),
                         seed=seed)
        if not scm.hidden:
            continue
        observed = scm.observed
        population = gamma_population(scm).values[np.ix_(observed, observed)]
        order = ease(CoefMatrix(population, "gamma")).relabel(observed)
        assert score_order(scm, order).valid
        checked += 1
    assert checked > 30


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8), st.sampled_from([1.0, 1.5, 2.5]),
       st.sampled_from(["intervals", "four_point"]),
       st.sampled_from([("gamma", "positive"), ("psi", "positive"), ("psi", "real")]),
       st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_perturbation_inside_error_bound_gives_valid_order(p, alpha, law, kind_mode, hidden,
                                                           seed, draw):
    # the paper's bound: with M the largest coefficient over non-ancestral
    # pairs, estimates within (1 - M) / 2 of the population matrix give a
    # valid order; with hidden confounders EASE sees the observed submatrix,
    # and ancestry is taken in the full graph
    kind, mode = kind_mode
    config = GeneratorConfig(mode=mode, coefficient_law=law, hidden_confounders=hidden)
    scm = random_scm(p, alpha, config, seed=seed)
    observed = scm.observed
    oracle = gamma_population if kind == "gamma" else psi_population
    population = oracle(scm).values[np.ix_(observed, observed)]
    # just inside the bound, so rounding the perturbed entries cannot close
    # the gap between a root's score and a non-root's
    scale = (1.0 - mistake_bound_margin(scm, kind)) / 2 * (1.0 - 2.0 ** -30)
    if draw.draw(st.booleans(), label="adversarial"):
        # the worst case: every ancestral coefficient (exactly 1) pushed
        # down, every other one pushed up
        unit = np.where(population == 1.0, -1.0, 1.0)
    else:
        entries = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
        unit = np.array(draw.draw(st.lists(entries, min_size=p * p, max_size=p * p),
                                  label="unit perturbation")).reshape(p, p)
    order = ease(CoefMatrix(population + scale * unit, kind)).relabel(observed)
    assert score_order(scm, order).violations == 0


def reference_steps(values):
    """The search as a pure-Python loop over the remaining nodes."""
    remaining = list(range(values.shape[0]))
    steps = []
    while remaining:
        if len(remaining) == 1:
            scores = {remaining[0]: float("-inf")}
        else:
            scores = {i: max(float(values[j, i]) for j in remaining if j != i)
                      for i in remaining}
        chosen = min(remaining, key=lambda i: (scores[i], i))
        steps.append(EaseStep(tuple(remaining), scores, chosen))
        remaining.remove(chosen)
    return steps


def test_matches_reference_loop_on_tied_matrices():
    rng = np.random.default_rng(2)
    for trial in range(300):
        p = int(rng.integers(1, 12))
        # few distinct values, so scores tie within and across steps
        values = rng.choice([0.25, 0.5, 0.75, 1.0], size=(p, p))
        if trial % 2:
            values = values + rng.uniform(0, 1e-3, size=(p, p)).round(4)
        np.fill_diagonal(values, np.nan)
        matrix = CoefMatrix(values, "gamma")
        expected = reference_steps(values)
        assert ease_trace(matrix) == expected
        assert ease(matrix).sequence == tuple(s.chosen for s in expected)


def test_mistake_rate_trivial():
    from heavytail import NoiseSpec, Scm

    single = Scm(1, {}, NoiseSpec("student_t", 1.5), mode="positive")
    assert mistake_rate(single, n=100, config=EstimatorConfig(), reps=3, seed=0) == (0.0, 0.0)


def test_mistake_rate_chain_consistency():
    scm = make_chain([1.0], alpha=1.5)
    config = EstimatorConfig(k_exponent=0.4)
    large, _ = mistake_rate(scm, n=10**4, config=config, reps=100, seed=5)
    assert large < 0.1
    small, _ = mistake_rate(scm, n=100, config=config, reps=100, seed=5)
    assert large <= small
