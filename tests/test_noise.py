import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import DomainError, NoiseSpec, ValidationError, hill_tail_index, sample_noise
from heavytail.noise import HillEstimate

from conftest import bitwise_equal, max_sum_tail_ratio, reference_noise


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        NoiseSpec("student_t", 0.0)
    with pytest.raises(ValidationError):
        NoiseSpec("student_t", -1.5)
    with pytest.raises(ValidationError):
        NoiseSpec("symmetric_pareto", 1.0, scale_upper=0.0)
    with pytest.raises(ValidationError, match="symmetric"):
        NoiseSpec("student_t", 1.0, scale_upper=2.0, scale_lower=1.0)
    with pytest.raises(ValidationError, match="family"):
        NoiseSpec("cauchy", 1.0)


def test_empty_sample_forbidden():
    with pytest.raises(ValidationError):
        sample_noise(NoiseSpec("student_t", 1.5), 0, seed=1)


def test_seed_determinism():
    spec = NoiseSpec("symmetric_pareto", 1.5)
    a = sample_noise(spec, 1000, seed=42)
    b = sample_noise(spec, 1000, seed=42)
    c = sample_noise(spec, 1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


RUN_SPECS = [
    NoiseSpec("student_t", 1.5),
    NoiseSpec("student_t", 0.7),
    NoiseSpec("shifted_pareto", 1.0),
    NoiseSpec("shifted_pareto", 2.0, 3.0, 0.5),
    NoiseSpec("symmetric_pareto", 1.5),
    NoiseSpec("symmetric_pareto", 2.0, 2.0, 0.5),
    NoiseSpec("symmetric_pareto", 2.5, 1.0, 1e6),
    NoiseSpec("symmetric_pareto", 0.5, 1e6, 1.0),
]


@pytest.mark.parametrize("spec", RUN_SPECS, ids=repr)
@pytest.mark.parametrize("n", [1, 7, 31, 1001, 10**4])
def test_run_draw_matches_per_column_draws_bitwise(spec, n):
    seed = 1000 + n
    assert bitwise_equal(sample_noise(spec, n, seed=seed),
                         reference_noise(spec, n, np.random.default_rng(seed)))
    for columns in (1, 2, 13):
        rng = np.random.default_rng(seed + columns)
        reference = np.column_stack([reference_noise(spec, n, rng) for _ in range(columns)])
        run = sample_noise(spec, n, seed=seed + columns, columns=columns)
        assert run.flags.f_contiguous
        assert bitwise_equal(run, reference)
    with pytest.raises(ValidationError):
        sample_noise(spec, n, seed=seed, columns=0)


def test_symmetric_pareto_survival_value():
    spec = NoiseSpec("symmetric_pareto", 2.0)
    x = sample_noise(spec, 10**6, seed=7)
    w_up = spec.scale_upper / (spec.scale_upper + spec.scale_lower)
    exact = w_up * 2.0 ** -spec.alpha  # P(X > x) = w_up * x ** -alpha on x >= 1
    assert exact == 0.125
    assert abs(np.mean(x > 2.0) - exact) < 0.003


def test_symmetric_pareto_scale_split():
    # P(X > 0) equals the upper-tail weight c+ / (c+ + c-)
    spec = NoiseSpec("symmetric_pareto", 1.0, scale_upper=3.0, scale_lower=1.0)
    x = sample_noise(spec, 10**5, seed=11)
    assert abs(np.mean(x > 0) - 0.75) < 0.01
    assert np.all(np.abs(x) >= 1.0)


def test_student_t_median_centered():
    x = sample_noise(NoiseSpec("student_t", 2.5), 10**6, seed=5)
    assert abs(np.median(x)) < 0.01


@pytest.mark.parametrize("family,alpha", [("symmetric_pareto", 1.5), ("student_t", 2.5)])
def test_tail_symmetry_within_binomial_fluctuation(family, alpha):
    x = sample_noise(NoiseSpec(family, alpha), 10**6, seed=9)
    threshold = np.quantile(np.abs(x), 0.998)
    upper = int(np.sum(x > threshold))
    lower = int(np.sum(x < -threshold))
    assert abs(upper - lower) <= 3.0 * math.sqrt(upper + lower)


def test_shifted_pareto_support():
    spec = NoiseSpec("shifted_pareto", 2.0, scale_upper=4.0)
    x = sample_noise(spec, 10**4, seed=3)
    assert np.all(x >= 4.0 ** 0.5)


def test_hill_hand_example():
    estimate = hill_tail_index([1.0, math.e, math.e**2, math.e**3], k=3)
    assert estimate.xi_hat == pytest.approx(2.0, abs=1e-12)
    assert estimate.alpha_hat == pytest.approx(0.5, abs=1e-12)
    assert estimate.k == 3


def test_hill_scale_closure():
    rng = np.random.default_rng(0)
    x = rng.pareto(2.0, size=500) + 1.0
    base = hill_tail_index(x, k=50).xi_hat
    # power-of-two scaling keeps every float product exact
    assert hill_tail_index(4.0 * x, k=50).xi_hat == base
    assert hill_tail_index(3.7 * x, k=50).xi_hat == pytest.approx(base, rel=1e-12)


def test_hill_consistent_for_exact_pareto():
    n = 10**5
    x = sample_noise(NoiseSpec("shifted_pareto", 1.0), n, seed=21)
    k = int(n ** 0.4)
    estimate = hill_tail_index(x, k=k)
    assert abs(estimate.alpha_hat - 1.0) < 0.1


def full_sort_hill(values, k):
    """Reference for hill_tail_index: the top k + 1 values of a full sort."""
    top = np.sort(np.asarray(values, dtype=float))[-(k + 1):]
    if top[0] <= 0:
        raise DomainError("not positive")
    with np.errstate(over="ignore"):
        xi = float(np.mean(np.log(top[1:] / top[0])))
    if not math.isfinite(xi):
        raise DomainError("not finite")
    if xi == 0.0:
        raise DomainError("degenerate")
    return HillEstimate(alpha_hat=1.0 / xi, xi_hat=xi, k=k)


def hill_outcome(estimator, values, k):
    try:
        return repr(estimator(values, k))
    except DomainError:
        return "DomainError"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.5, 1.0, 2.0, 2.0, 3.5, 8.0, -1.0, 0.0, math.nan]),
                min_size=3, max_size=40), st.data())
def test_hill_partial_sort_matches_full_sort_on_ties_and_nan(values, data):
    k = data.draw(st.integers(2, len(values) - 1))  # k = n - 1 uses every value
    assert hill_outcome(hill_tail_index, values, k) == hill_outcome(full_sort_hill, values, k)


@pytest.mark.parametrize("values, k", [
    ([1.0, 3.0, 3.0, 2.0, 3.0, 5.0, 5.0], 4),  # ties at and above the threshold
    ([2.0, math.nan, 1.0, 4.0, 3.0], 3),  # NaN sorts last, into the top values
    ([4.0, 1.0, 2.0, 9.0], 3),  # n = k + 1
])
def test_hill_partial_sort_examples(values, k):
    assert hill_outcome(hill_tail_index, values, k) == hill_outcome(full_sort_hill, values, k)


def test_hill_guards():
    with pytest.raises(ValidationError):
        hill_tail_index([1.0, 2.0, 3.0], k=1)
    with pytest.raises(DomainError, match="observations"):
        hill_tail_index([1.0, 2.0], k=3)
    with pytest.raises(DomainError, match="positive"):
        hill_tail_index([-5.0, -4.0, -3.0, -2.0], k=3)
    with pytest.raises(DomainError, match="degenerate"):
        hill_tail_index([7.0, 7.0, 7.0, 7.0, 7.0], k=3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values, xi", [
    ([5e-324] + [1e308] * 5, "inf"),  # every ratio to the smallest overflows
    ([1.0, 2.0, 3.0, math.inf], "inf"),
    ([2.0, math.nan, 1.0, 4.0, 3.0], "nan"),  # NaN sorts last, into the top values
])
def test_hill_refuses_a_non_finite_xi(values, xi):
    with pytest.raises(DomainError, match=f"log-excess of the top order statistics is {xi}"):
        hill_tail_index(values, k=len(values) - 1)


def test_max_sum_single_column_is_one():
    rng = np.random.default_rng(1)
    samples = rng.pareto(1.5, size=(2000, 1)) + 1.0
    assert max_sum_tail_ratio(samples, 0.99) == 1.0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_max_sum_equivalence_for_heavy_tails(m):
    spec = NoiseSpec("shifted_pareto", 1.5)
    cols = [sample_noise(spec, 10**6, seed=100 * m + i) for i in range(m)]
    ratio = max_sum_tail_ratio(np.column_stack(cols), 0.999)
    assert 0.8 <= ratio <= 1.2


def test_max_sum_fails_for_bounded_noise():
    rng = np.random.default_rng(2)
    samples = rng.random((10**5, 3))
    assert max_sum_tail_ratio(samples, 0.999) < 0.5
