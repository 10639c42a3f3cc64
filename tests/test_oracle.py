import numpy as np
import pytest

from heavytail import (COMMON_CAUSE, I_CAUSES_J, INDETERMINATE, J_CAUSES_I,
                       NO_CAUSAL_LINK, CoefMatrix, Dag, DomainError, ModeError, NoiseSpec, Scm,
                       ValidationError, classify_pair, gamma_population,
                       mistake_bound_margin, psi_population)

from conftest import make_chain, random_positive_scm_pool


def classify_truth(dag, i, j):
    """Graph-derived ground truth for an ordered pair."""
    if i in dag.strict_ancestors(j):
        return I_CAUSES_J
    if j in dag.strict_ancestors(i):
        return J_CAUSES_I
    if dag.ancestors(i) & dag.ancestors(j):
        return COMMON_CAUSE
    return NO_CAUSAL_LINK


def test_gamma_disconnected(disconnected_scm):
    gamma = gamma_population(disconnected_scm).values
    assert gamma[0, 1] == 0.5 and gamma[1, 0] == 0.5


def test_gamma_diamond(diamond_scm):
    gamma = gamma_population(diamond_scm).values
    assert gamma[0, 3] == 1.0
    assert gamma[3, 0] == pytest.approx(0.7, abs=1e-15)


def test_gamma_chain(chain2_scm):
    gamma = gamma_population(chain2_scm).values
    assert gamma[1, 0] == pytest.approx(0.75, abs=1e-15)
    assert gamma[0, 1] == 1.0


def test_gamma_mode_and_scale_guards():
    scm = make_chain([-0.7], mode="real")
    with pytest.raises(ModeError):
        gamma_population(scm)
    dag = Dag(2, [(0, 1)])
    uneven = Scm(dag, {(0, 1): 1.0},
                 (NoiseSpec("symmetric_pareto", 1.0, scale_upper=1.0),
                  NoiseSpec("symmetric_pareto", 1.0, scale_upper=2.0, scale_lower=2.0)),
                 mode="positive")
    with pytest.raises(ValidationError, match="scale"):
        gamma_population(uneven)


def test_gamma_invariant_to_common_scale():
    def build(scale):
        dag = Dag(3, [(0, 1), (1, 2)])
        spec = NoiseSpec("symmetric_pareto", 1.5, scale_upper=scale, scale_lower=scale)
        return Scm(dag, {(0, 1): 0.5, (1, 2): 0.8}, spec, mode="positive")

    a = gamma_population(build(1.0)).values
    b = gamma_population(build(3.0)).values
    assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))


def test_psi_equals_gamma_for_symmetric_positive():
    for scm in random_positive_scm_pool(40, seed=3):
        gamma = gamma_population(scm).values
        psi = psi_population(scm).values
        diff = np.abs(np.nan_to_num(gamma) - np.nan_to_num(psi)).max()
        assert diff < 1e-12


def test_psi_negative_chain():
    scm = make_chain([-0.7], mode="real")
    psi = psi_population(scm).values
    assert psi[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert 0.5 < psi[1, 0] < 1.0


def test_psi_disconnected():
    dag = Dag(2, [])
    scm = Scm(dag, {}, NoiseSpec("student_t", 1.5), mode="real")
    psi = psi_population(scm).values
    assert psi[0, 1] == 0.5 and psi[1, 0] == 0.5


def test_psi_asymmetric_scales_shift_value():
    # a negative path maps the source's upper tail into the target's lower tail
    dag = Dag(2, [(0, 1)])
    spec = NoiseSpec("symmetric_pareto", 1.0, scale_upper=4.0, scale_lower=1.0)
    scm = Scm(dag, {(0, 1): -1.0}, (spec, spec), mode="real")
    psi = psi_population(scm).values
    assert psi[0, 1] == pytest.approx(1.0, abs=1e-15)
    # upper ratio 4/(4+4), lower ratio 1/(1+1) by the flipped constants
    expected = 0.5 + 0.25 * (4.0 / 8.0) + 0.25 * (1.0 / 2.0)
    assert psi[1, 0] == pytest.approx(expected, abs=1e-15)


def test_classify_pair_table_cells():
    def matrix(v_ij, v_ji):
        values = np.array([[np.nan, v_ij], [v_ji, np.nan]])
        return CoefMatrix(values, "gamma")

    assert classify_pair(matrix(1.0, 0.7), 0, 1) == I_CAUSES_J
    assert classify_pair(matrix(0.7, 1.0), 0, 1) == J_CAUSES_I
    assert classify_pair(matrix(0.5, 0.5), 0, 1) == NO_CAUSAL_LINK
    assert classify_pair(matrix(0.8, 0.8), 0, 1) == COMMON_CAUSE
    assert classify_pair(matrix(1.0, 1.0), 0, 1) == INDETERMINATE
    assert classify_pair(matrix(1.0, 0.5), 0, 1) == INDETERMINATE
    assert classify_pair(matrix(0.3, 0.5), 0, 1) == INDETERMINATE


def test_classify_pair_tolerance_and_guards():
    values = np.array([[np.nan, 0.97], [0.8, np.nan]])
    estimated = CoefMatrix(values, "psi")
    assert classify_pair(estimated, 0, 1, tol=0.1) == I_CAUSES_J
    assert classify_pair(estimated, 0, 1, tol=1e-9) == COMMON_CAUSE
    with pytest.raises(ValidationError):
        classify_pair(estimated, 0, 1, tol=0.25)
    with pytest.raises(ValidationError):
        classify_pair(estimated, 0, 0)


def test_classification_matches_graph_truth_on_sweep():
    for scm in random_positive_scm_pool(60, seed=5):
        gamma = gamma_population(scm)
        for i in range(scm.p):
            for j in range(scm.p):
                if i != j:
                    assert classify_pair(gamma, i, j, tol=1e-9) == classify_truth(scm.dag, i, j)


def test_margin_examples(disconnected_scm, chain2_scm):
    assert mistake_bound_margin(disconnected_scm) == 0.5
    assert mistake_bound_margin(chain2_scm) == pytest.approx(0.75, abs=1e-15)


def test_margin_strictly_below_one():
    for scm in random_positive_scm_pool(60, seed=7):
        if scm.p >= 2:
            assert mistake_bound_margin(scm) < 1.0


def test_margin_needs_two_nodes():
    scm = Scm(Dag(1), {}, NoiseSpec("student_t", 1.5), mode="positive")
    with pytest.raises(ValidationError):
        mistake_bound_margin(scm)


# path weights up to 2**11, raised to alpha = 100, overflow float64
OVERFLOWING_CHAIN = make_chain([2.0] * 11, alpha=100.0)
# two roots whose weights into the child are finite, 1e308 each, but whose sum
# is not: the child's row read 0.5, finite and wrong, before the sums were checked
OVERFLOWING_SUM = Scm(Dag(3, [(0, 2), (1, 2)]), {(0, 2): 1e154, (1, 2): 1e154},
                      NoiseSpec("student_t", 2.0), mode="positive")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("population", [gamma_population, psi_population])
@pytest.mark.parametrize("scm", [OVERFLOWING_CHAIN, OVERFLOWING_SUM], ids=["chain", "sum"])
def test_population_overflow_is_a_domain_error(population, scm):
    with pytest.raises(DomainError, match="overflow float64"):
        population(scm)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["gamma", "psi"])
def test_margin_refuses_overflowing_weights(kind):
    with pytest.raises(DomainError, match="overflow float64"):
        mistake_bound_margin(OVERFLOWING_CHAIN, kind)


def test_coefmatrix_validation_and_submatrix():
    with pytest.raises(ValidationError):
        CoefMatrix(np.zeros((2, 3)), "gamma")
    with pytest.raises(ValidationError):
        CoefMatrix(np.zeros((2, 2)), "rho")
    m = CoefMatrix(np.arange(9.0).reshape(3, 3), "gamma", ("a", "b", "c"))
    sub = m.submatrix([0, 2])
    assert sub.names == ("a", "c")
    assert np.array_equal(sub.values, np.array([[0.0, 2.0], [6.0, 8.0]]))
