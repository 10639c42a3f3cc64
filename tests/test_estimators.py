import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import (ConfigError, Dataset, EstimatorConfig, NoiseSpec,
                       ValidationError, coefficient_matrix, ecdf_values, gamma_estimate,
                       psi_estimate, resolve_k, sample_noise)
from heavytail.data import _RANK_SCRATCH_COLUMNS, ecdf_from_ranks, rank_kernel
from heavytail.estimators import _BLOCK_ELEMENTS, _exceedance_rows, _slice_sums, _tail_sums

from brute_oracles import brute_gamma, brute_psi


def two_col(col0, col1):
    return Dataset(["a", "b"], np.column_stack([col0, col1]))


def cached_ecdf(data, j):
    """The ECDF of column j, from the Dataset's rank array."""
    return ecdf_from_ranks(data.ranks()[:, j], data.n)


def test_empirical_cdf_examples():
    assert cached_ecdf(two_col([3.0, 1.0, 2.0], [0, 0, 0]), 0).tolist() == [
        1.0, 1 / 3, 2 / 3]
    constant = Dataset(["a"], np.full((4, 1), 2.5))
    assert cached_ecdf(constant, 0).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert cached_ecdf(two_col([1.0, 1.0, 2.0], [0, 0, 0]), 0).tolist() == [
        2 / 3, 2 / 3, 1.0]


def test_gamma_identical_columns():
    x = np.arange(1.0, 101.0)
    data = two_col(x, x)
    value = gamma_estimate(data, 0, 1, EstimatorConfig(k=10))
    assert value == pytest.approx(1 - 9 / 200, abs=1e-12)  # 0.955


def test_gamma_negated_columns():
    x = np.arange(1.0, 101.0)
    value = gamma_estimate(two_col(x, -x), 0, 1, EstimatorConfig(k=10))
    assert value == pytest.approx(11 / 200, abs=1e-12)  # 0.055


def test_gamma_independent_columns_near_half():
    spec = NoiseSpec("student_t", 2.5)
    a = sample_noise(spec, 10**5, seed=1)
    b = sample_noise(spec, 10**5, seed=2)
    value = gamma_estimate(two_col(a, b), 0, 1, EstimatorConfig(k_exponent=0.4))
    assert abs(value - 0.5) < 0.1


def test_psi_identical_columns_brute_forced():
    x = np.arange(1.0, 101.0)
    data = two_col(x, x)
    value = psi_estimate(data, 0, 1, EstimatorConfig(k=10))
    assert value == brute_psi(data.values.tolist(), 0, 1, 10)
    assert value == pytest.approx(0.9, abs=1e-12)


def test_psi_negation_symmetry():
    x = np.arange(1.0, 101.0)
    config = EstimatorConfig(k=10)
    assert psi_estimate(two_col(x, -x), 0, 1, config) == psi_estimate(
        two_col(x, x), 0, 1, config)


def test_psi_independent_columns_near_half():
    spec = NoiseSpec("student_t", 2.5)
    a = sample_noise(spec, 10**5, seed=3)
    b = sample_noise(spec, 10**5, seed=4)
    value = psi_estimate(two_col(a, b), 0, 1, EstimatorConfig(k_exponent=0.4))
    assert abs(value - 0.5) < 0.1


def test_resolve_k():
    assert resolve_k(10**6, EstimatorConfig(k_exponent=0.4)) == 251
    assert resolve_k(3832, EstimatorConfig(k=10)) == 10
    assert resolve_k(2, EstimatorConfig(k_exponent=0.4)) == 1
    assert resolve_k(100, EstimatorConfig()) == 6  # default exponent 0.4
    with pytest.raises(ConfigError):
        resolve_k(10, EstimatorConfig(k=10))
    with pytest.raises(ValidationError):
        resolve_k(1, EstimatorConfig(k_exponent=0.4))


def test_config_validation():
    with pytest.raises(ConfigError):
        EstimatorConfig(k=5, k_exponent=0.4)
    with pytest.raises(ConfigError):
        EstimatorConfig(k=0)
    with pytest.raises(ConfigError):
        EstimatorConfig(k_exponent=1.0)
    with pytest.raises(ConfigError):
        EstimatorConfig(kind="tau")


def test_dataset_validation():
    with pytest.raises(ValidationError, match="finite"):
        Dataset(["a"], [[np.nan]])
    with pytest.raises(ValidationError, match="unique"):
        Dataset(["a", "a"], [[1.0, 2.0]])
    with pytest.raises(ValidationError):
        Dataset(["a"], np.empty((0, 1)))
    with pytest.raises(ValidationError):
        gamma_estimate(two_col([1.0, 2.0], [1.0, 2.0]), 0, 0, EstimatorConfig(k=1))


def test_matrix_consistent_with_scalar_calls():
    rng = np.random.default_rng(8)
    data = Dataset(["a", "b", "c"], rng.standard_t(2.0, size=(400, 3)))
    for kind, scalar in (("gamma", gamma_estimate), ("psi", psi_estimate)):
        config = EstimatorConfig(k=20, kind=kind)
        matrix = coefficient_matrix(data, config)
        for j in range(3):
            for c in range(3):
                if j != c:
                    assert matrix.values[j, c] == scalar(data, j, c, config)
        assert np.isnan(np.diag(matrix.values)).all()


def test_row_permutation_invariance_bitwise():
    rng = np.random.default_rng(9)
    values = rng.standard_t(1.5, size=(500, 3))
    data = Dataset(["a", "b", "c"], values)
    shuffled = Dataset(["a", "b", "c"], values[rng.permutation(500)])
    for kind in ("gamma", "psi"):
        config = EstimatorConfig(k_exponent=0.4, kind=kind)
        a = coefficient_matrix(data, config).values
        b = coefficient_matrix(shuffled, config).values
        assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))


def test_monotone_transform_invariance_bitwise():
    rng = np.random.default_rng(10)
    values = rng.standard_t(1.5, size=(500, 2))
    data = Dataset(["a", "b"], values)
    warped = Dataset(["a", "b"], np.column_stack([
        np.exp(values[:, 0]), values[:, 1] ** 3]))
    for kind in ("gamma", "psi"):
        config = EstimatorConfig(k_exponent=0.4, kind=kind)
        a = coefficient_matrix(data, config).values
        b = coefficient_matrix(warped, config).values
        assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))


@pytest.mark.parametrize("ties", [False, True])
def test_brute_force_oracle_equivalence(ties):
    rng = np.random.default_rng(11 if ties else 12)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n))
        if ties:
            values = rng.integers(0, 4, size=(n, 2)).astype(float)
        else:
            values = rng.standard_normal((n, 2))
        data = Dataset(["a", "b"], values)
        listed = values.tolist()
        assert gamma_estimate(data, 0, 1, EstimatorConfig(k=k)) == brute_gamma(listed, 0, 1, k)
        assert gamma_estimate(data, 1, 0, EstimatorConfig(k=k)) == brute_gamma(listed, 1, 0, k)
        assert psi_estimate(data, 0, 1, EstimatorConfig(k=k)) == brute_psi(listed, 0, 1, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=24),
       st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=24),
       st.integers(1, 3), st.data())
def test_estimates_stay_in_unit_interval(col0, col1, k, data_strategy):
    n = min(len(col0), len(col1))
    if k >= n:
        k = n - 1
    data = two_col(col0[:n], col1[:n])
    config = EstimatorConfig(k=k)
    assert 0.0 <= gamma_estimate(data, 0, 1, config) <= 1.0
    assert 0.0 <= psi_estimate(data, 0, 1, config) <= 1.0


def test_psi_tails_balance_on_negation_symmetric_data():
    # augmenting data with its negation makes the two tail terms agree up to
    # the 1/n offset the max-rank tie convention introduces
    import math

    rng = np.random.default_rng(13)
    base = rng.standard_t(2.0, size=(300, 2))
    values = np.vstack([base, -base])
    data = Dataset(["a", "b"], values)
    n, k = 600, 25
    sig = np.abs(2.0 * ecdf_values(data.column(1)) - 1.0)
    col = data.column(0)
    upper = col > np.sort(col)[n - k - 1]
    lower = -col > np.sort(-col)[n - k - 1]
    up_term = math.fsum(sig[upper].tolist()) / (2 * k)
    lo_term = math.fsum(sig[lower].tolist()) / (2 * k)
    assert abs(up_term - lo_term) <= 1.0 / n
    total = psi_estimate(data, 0, 1, EstimatorConfig(k=k))
    assert total == pytest.approx(up_term + lo_term, abs=1e-15)


def test_estimated_matrix_flag_drives_classification_default():
    from heavytail import classify_pair

    rng = np.random.default_rng(14)
    data = Dataset(["a", "b"], rng.standard_t(1.5, size=(2000, 2)))
    matrix = coefficient_matrix(data, EstimatorConfig(k_exponent=0.4))
    assert matrix.estimated
    # estimated default widens the anchor tolerance to 0.1
    assert classify_pair(matrix, 0, 1) == classify_pair(matrix, 0, 1, tol=0.1)


def test_consistency_improves_with_sample_size():
    # chain 0 -> 1 with unit coefficient: conditioning on the child tends to 0.75
    from conftest import make_chain
    from heavytail import SimSetting, simulate

    scm = make_chain([1.0], alpha=1.0)
    errors = {}
    for n in (10**3, 10**5):
        config = EstimatorConfig(k_exponent=0.4)
        errs = []
        for seed in range(5):
            sample = simulate(scm, SimSetting("linear"), n, seed=seed)
            errs.append(abs(gamma_estimate(sample, 1, 0, config) - 0.75))
        errors[n] = np.mean(errs)
    assert errors[10**5] < errors[10**3]


# Columns with heavy ties: a few small integers, some of them signed zeros.
tied_columns = st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]),
                        min_size=2, max_size=30)


@settings(max_examples=200, deadline=None)
@given(st.one_of(tied_columns, st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30)),
       st.data())
def test_rank_kernel_matches_sort_formulas(values, draw):
    # the reference: max ranks as searchsorted counts over a sorted copy,
    # tails by masks over one sort of the column and one of its negation;
    # the tails under test are read off the kernel's ranks
    column = np.array(values)
    n = column.size
    k = draw.draw(st.integers(1, n - 1))  # k >= n/2 makes the two tails overlap
    ranks = rank_kernel(column)
    counts = np.searchsorted(np.sort(column), column, side="right")
    assert ranks.dtype == np.uint8 and np.array_equal(ranks, counts)
    assert np.array_equal(ecdf_values(column), counts / n)
    out = np.zeros(n, dtype=np.int64)
    assert rank_kernel(column, out) is out and np.array_equal(out, counts)
    expected_upper = np.flatnonzero(column > np.sort(column)[n - k - 1])
    expected_lower = np.flatnonzero(-column > np.sort(-column)[n - k - 1])
    assert np.array_equal(_exceedance_rows(ranks, k, psi=False), expected_upper)
    both = _exceedance_rows(ranks, k, psi=True)
    assert np.array_equal(both, np.concatenate([expected_upper, expected_lower]))


def fresh_estimates(values, k):
    """Every estimate of the values at k, each on a Dataset of its own."""
    names = [f"x{c}" for c in range(values.shape[1])]
    out = []
    for kind, pair in (("gamma", gamma_estimate), ("psi", psi_estimate)):
        config = EstimatorConfig(k=k, kind=kind)
        out.append(coefficient_matrix(Dataset(names, values), config).values)
        out.append(pair(Dataset(names, values), 2, 0, config))
    return out


def test_dataset_ranks_each_column_once(monkeypatch):
    rng = np.random.default_rng(17)
    values = rng.standard_t(2.0, size=(300, 4))
    values[:, 1] = np.round(values[:, 1])  # a tied column
    ranked = []

    def counting_kernel(column, out=None):
        ranked.append(column.copy())
        return rank_kernel(column, out)

    monkeypatch.setattr("heavytail.data.rank_kernel", counting_kernel)
    data = Dataset([f"x{c}" for c in range(4)], values)
    # a pair estimate ranks the whole Dataset, a column at a time
    first = gamma_estimate(data, 2, 0, EstimatorConfig(k=30))
    assert [c.tolist() for c in ranked] == [values[:, c].tolist() for c in range(4)]
    shared = []
    for k in (30, 11):  # gamma, then psi, then a second k
        for kind, pair in (("gamma", gamma_estimate), ("psi", psi_estimate)):
            config = EstimatorConfig(k=k, kind=kind)
            shared.append(coefficient_matrix(data, config).values)
            shared.append(pair(data, 2, 0, config))
    # the ECDF Dataset shares the rank array, so its estimates rank nothing
    ecdf = data.ecdf_dataset()
    assert ecdf.ranks() is data.ranks()
    column = values[:, 3]
    assert np.array_equal(ecdf.values[:, 3],
                          np.searchsorted(np.sort(column), column, side="right") / 300)
    assert np.array_equal(coefficient_matrix(ecdf, config).values, shared[-2], equal_nan=True)
    assert len(ranked) == 4
    assert first == shared[1]
    fresh = fresh_estimates(values, 30) + fresh_estimates(values, 11)
    for a, b in zip(shared, fresh):
        assert np.array_equal(a, b, equal_nan=True)


def test_cached_ecdf_is_read_only():
    rng = np.random.default_rng(18)
    data = Dataset(["a", "b", "c"], rng.standard_normal((50, 3)))
    config = EstimatorConfig(k=5, kind="psi")
    before = coefficient_matrix(data, config).values
    assert np.array_equal(cached_ecdf(data, 1), ecdf_values(data.column(1)))
    r = data.ranks()[:, 1]
    with pytest.raises(ValueError):
        r[0] = 0
    with pytest.raises(ValueError):
        r.setflags(write=True)
    with pytest.raises(ValueError):
        np.asarray(r)[:] = 1
    # a column out of range is refused, not wrapped round to the last one
    for pair in (gamma_estimate, psi_estimate):
        for j, c in ((data.p, 0), (0, data.p), (-1, 0), (0, -1)):
            with pytest.raises(ValidationError):
                pair(data, j, c, config)
    # a second Dataset over the same values is ranked afresh and agrees
    again = Dataset(data.names, data.values)
    assert np.array_equal(coefficient_matrix(data, config).values, before, equal_nan=True)
    assert np.array_equal(coefficient_matrix(again, config).values, before, equal_nan=True)


def test_ecdf_ranks_nan_last_as_one_run():
    column = np.array([np.nan, 1.0, np.nan, -np.inf, np.inf, 1.0, 0.0, -0.0])
    expected = np.searchsorted(np.sort(column), column, side="right") / column.size
    assert np.array_equal(ecdf_values(column), expected)
    assert ecdf_values([]).size == 0


@pytest.mark.parametrize("kind", ["gamma", "psi"])
def test_matrix_matches_brute_oracle_on_ties(kind):
    brute = brute_gamma if kind == "gamma" else brute_psi
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        p = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        values = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(n, p))
        matrix = coefficient_matrix(Dataset([f"x{c}" for c in range(p)], values),
                                    EstimatorConfig(k=k, kind=kind)).values
        listed = values.tolist()
        for j in range(p):
            for c in range(p):
                if j != c:
                    assert matrix[j, c] == brute(listed, j, c, k)
        assert np.isnan(np.diag(matrix)).all()


def fsum_slices(weights, rows, bounds, divisor):
    """Reference for the tail sums: one math.fsum per (slice, column), then the divisor."""
    return np.array([[math.fsum(weights[rows[a:b], c].tolist()) / divisor
                      for c in range(weights.shape[1])]
                     for a, b in zip(bounds, bounds[1:])]).reshape(-1, weights.shape[1])


def draw_ranks(family, n, m, rng):
    """n x m ranks in the rank dtype of n; their weights r / n lie on the ECDF grid."""
    if family == "ecdf":
        ranks = rng.integers(1, n + 1, size=(n, m))
    elif family == "ecdf_upper":  # one binade, as in the upper tail of a dependent column:
        # the weights' unit is then close to the total's last bit, so an inexact
        # limb sum changes the result
        ranks = rng.integers(n // 2, n + 1, size=(n, m))
    elif family == "half":  # r = n / 2 in a fifth of the entries: psi's |2u - 1| is 0
        ranks = rng.integers(1, n + 1, size=(n, m))
        ranks[rng.random((n, m)) < 0.2] = n // 2
    else:  # zero weights
        ranks = np.zeros((n, m), dtype=int)
    return ranks.astype(np.min_scalar_type(n))


def draw_weights(family, n, m, rng):
    if family == "float":  # arbitrary floats spanning [2**-60, 1]
        weights = 2.0 ** rng.uniform(-60.0, 0.0, size=(n, m))
        weights.flat[:2] = [2.0 ** -60, 1.0]
        return weights
    weights = draw_ranks(family, n, m, rng) / n
    return np.abs(2.0 * weights - 1.0) if family == "half" else weights


# Slice lengths: empty, single rows, and 2**b - 1, the longest slice a limb
# width of 53 - b bits must keep exact.
slice_sizes = st.lists(st.one_of(st.just(0), st.just(1), st.integers(0, 40),
                                 st.sampled_from([3, 7, 31, 127])),
                       min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["ecdf", "ecdf_upper", "half", "zeros"]), st.booleans(),
       st.integers(1, 200), st.sampled_from([1, 3, 700]), slice_sizes,
       st.integers(0, 2**32 - 1))
def test_tail_sums_match_fsum_reference(family, psi, half, m, sizes, seed):
    # m = 700 columns splits the rows into gather blocks of 93; the weights
    # are the ECDF r / n of the gathered ranks, |2u - 1| of it for psi
    rng = np.random.default_rng(seed)
    n = 2 * half
    ranks = draw_ranks(family, n, m, rng)
    weights = ranks / n
    if psi:
        weights = np.abs(2.0 * weights - 1.0)
    bounds = np.cumsum([0] + sizes)
    rows = rng.integers(0, n, size=bounds[-1])
    divisor = int(rng.integers(1, 2 * n + 1))
    expected = fsum_slices(weights, rows, bounds, divisor)
    assert np.array_equal(_tail_sums(ranks, rows, bounds, divisor, psi), expected)


def slice_sums(weights, rows, sizes):
    """_slice_sums of weights[rows] over nonempty slices of the given sizes."""
    block = weights[rows]
    starts = np.cumsum([0] + sizes[:-1])
    return _slice_sums(block, np.empty_like(block), starts, max(sizes))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["float", "ecdf", "ecdf_upper", "half", "zeros"]), st.integers(1, 200),
       st.sampled_from([1, 3, 700]),
       st.lists(st.one_of(st.just(1), st.integers(1, 40), st.sampled_from([3, 7, 31, 127])),
                min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_slice_sums_match_fsum_reference(family, half, m, sizes, seed):
    # any weights in [0, 1], arbitrary floats included, not only the ECDF grid
    rng = np.random.default_rng(seed)
    n = 2 * half
    weights = draw_weights(family, n, m, rng)
    rows = rng.integers(0, n, size=sum(sizes))
    expected = fsum_slices(weights, rows, np.cumsum([0] + sizes), 1)
    assert np.array_equal(slice_sums(weights, rows, sizes), expected)


@pytest.mark.parametrize("seed", range(3))
def test_tail_sums_with_three_or_more_limbs(seed):
    # the limb sums under _tail_sums, on weights over 60 binades: slices of
    # up to 4095 rows need 113 bits in limbs of 41, so three limb sums per
    # entry, combined by math.fsum (ECDF weights r / n need that only at
    # n >= 2**60, so the floats go to _slice_sums directly)
    rng = np.random.default_rng(seed)
    weights = draw_weights("float", 5000, 40, rng)
    sizes = [4095, 2047, 1, 4095]
    rows = rng.integers(0, 5000, size=sum(sizes))
    expected = fsum_slices(weights, rows, np.cumsum([0] + sizes), 1)
    assert np.array_equal(slice_sums(weights, rows, sizes), expected)
    # 1 + 2**-53 + 2**-107 lies just above the midpoint between 1 and its
    # successor: adding the three limb sums in float, low to high, gives 1.0
    weights = np.array([[1.0], [2.0 ** -53], [2.0 ** -107]])
    assert slice_sums(weights, np.array([2, 1, 0]), [3]).tolist() == [[1.0 + 2.0 ** -52]]


def test_tail_sums_of_empty_and_zero_slices_are_zero():
    ranks = np.zeros((6, 2), dtype=np.uint8)
    ranks[5] = 6  # the only nonzero weight, 6 / 6
    rows = np.array([0, 1, 2, 5])
    sums = _tail_sums(ranks, rows, [0, 0, 3, 3, 4, 4], 2)
    assert sums.tolist() == [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]]
    assert _tail_sums(ranks, rows[:0], [0, 0, 0], 1).tolist() == [[0.0, 0.0], [0.0, 0.0]]
    # r = n / 2 is psi's zero weight
    ranks[:5] = 3
    sums = _tail_sums(ranks, rows, [0, 3, 3, 4], 2, psi=True)
    assert sums.tolist() == [[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]]


def sort_formula_matrix(values, k, psi):
    """Reference matrix: tails from sort formulas, the ECDF from searchsorted, math.fsum sums.

    Also returns the tail bounds, whose last entry is the number of tail rows.
    """
    n, p = values.shape
    weights = np.empty((n, p))
    tails = []
    for c in range(p):
        column = values[:, c]
        u = np.searchsorted(np.sort(column), column, side="right") / n
        weights[:, c] = np.abs(2.0 * u - 1.0) if psi else u
        signs = (1.0, -1.0) if psi else (1.0,)
        tails.append(np.concatenate([
            np.flatnonzero(s * column > np.sort(s * column)[n - k - 1]) for s in signs]))
    bounds = np.cumsum([0] + [t.size for t in tails])
    expected = fsum_slices(weights, np.concatenate(tails), bounds, 2 * k if psi else k)
    np.fill_diagonal(expected, np.nan)
    return expected, bounds


@pytest.mark.parametrize("kind", ["gamma", "psi"])
def test_matrix_spanning_gather_blocks_matches_fsum_reference(kind):
    # tied data and a constant column, whose slices are empty
    rng = np.random.default_rng(16)
    n, p, k = 600, 40, 150
    values = rng.integers(0, 60, size=(n, p)).astype(float)
    values[:, 3] = 1.0
    expected, bounds = sort_formula_matrix(values, k, kind == "psi")
    assert p * bounds[-1] > 2 * _BLOCK_ELEMENTS  # several gather blocks
    matrix = coefficient_matrix(Dataset([f"x{c}" for c in range(p)], values),
                                EstimatorConfig(k=k, kind=kind)).values
    assert np.array_equal(matrix, expected, equal_nan=True)


@pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16),
                                      (65535, np.uint16), (65536, np.uint32)])
def test_rank_dtype_boundaries_match_fsum_reference(n, dtype):
    # the cached ranks take the narrowest unsigned dtype that holds n; the
    # estimates at either side of each width change equal the reference
    rng = np.random.default_rng(n)
    values = np.column_stack([
        rng.standard_t(1.5, size=n),                     # continuous
        np.round(rng.standard_t(1.5, size=n)),           # ties
        rng.integers(0, 4, size=n).astype(float),        # heavy ties, top run > k
        rng.choice([-1.0, -0.0, 0.0, 1.0], size=n),      # signed zeros tie
    ])
    names = [f"x{c}" for c in range(values.shape[1])]
    for k in (resolve_k(n, EstimatorConfig()), n // 3, n - 1):
        for kind, pair in (("gamma", gamma_estimate), ("psi", psi_estimate)):
            config = EstimatorConfig(k=k, kind=kind)
            expected, _ = sort_formula_matrix(values, k, kind == "psi")
            data = Dataset(names, values)
            assert np.array_equal(coefficient_matrix(data, config).values, expected,
                                  equal_nan=True)
            assert data.ranks().dtype == dtype
            for j, c in ((0, 1), (2, 0), (1, 3)):
                assert pair(Dataset(names, values), j, c, config) == expected[j, c]
    for c in range(values.shape[1]):
        u = ecdf_values(values[:, c])
        assert u.dtype == np.float64
        assert np.array_equal(u, cached_ecdf(data, c))
        assert np.array_equal(u, np.searchsorted(np.sort(values[:, c]), values[:, c],
                                                 side="right") / n)


def test_estimation_holds_compact_ranks():
    # gamma then psi on a fresh Dataset: the rank kernel's scratch and the
    # gathers come and go, the Dataset keeps 2 bytes per entry at n = 20000
    n, p = 20_000, 10
    rng = np.random.default_rng(19)
    values = rng.standard_t(2.0, size=(n, p))
    values[:, 1] = np.round(values[:, 1])
    data = Dataset([f"x{c}" for c in range(p)], values)
    tracemalloc.start()
    try:
        for kind in ("gamma", "psi"):
            coefficient_matrix(data, EstimatorConfig(kind=kind))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2 * n * p + 64 * 1024
    assert peak <= 2 * n * p + 8 * n * _RANK_SCRATCH_COLUMNS + 2 * 8 * 2 ** 16 + 64 * 1024
