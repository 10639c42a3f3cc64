"""End-to-end acceptance suite.

Each test covers one exit criterion at its stated tolerance and wall-clock
budget; the terminal summary (see conftest) prints one line per criterion.
"""

import importlib.resources
import time

import numpy as np

from heavytail import (Dag, EstimatorConfig, GeneratorConfig, GridSpec, NoiseSpec,
                       Scm, SimSetting, benchmark, classify_pair,
                       coefficient_matrix, ease, ease_trace, gamma_estimate,
                       gamma_population, hill_tail_index, k_sensitivity, psi_estimate,
                       random_scm, sample_noise, simulate, validate_order)
from heavytail.cli import main
from heavytail.formats import read_json

from brute_oracles import brute_gamma, brute_psi
from conftest import max_sum_tail_ratio
from test_oracle import classify_truth


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"exceeded the {self.seconds:.0f} s budget: {self.elapsed:.1f} s")
        return False


def sweep_scms(count, seed):
    rng = np.random.default_rng(seed)
    config = GeneratorConfig(mode="positive")
    out = []
    for _ in range(count):
        p = int(rng.integers(2, 9))
        alpha = float((1.0, 1.5, 2.5)[int(rng.integers(0, 3))])
        out.append(random_scm(p, alpha, config, seed=int(rng.integers(0, 2**31))))
    return out


def test_a1_financial_fixture_regression(tmp_path):
    with Budget(1.0):
        fixture = importlib.resources.files("heavytail").joinpath(
            "fixtures/swiss_finance_psi.json")
        out = tmp_path / "order.json"
        assert main(["discover", "--matrix", str(fixture), "--out", str(out)]) == 0
        assert read_json(out)["pi_inverse"] == ["EURCHF", "NOVN", "ROG", "NESN"]


def test_a2_population_oracle_correctness():
    with Budget(10.0):
        scms = sweep_scms(500, seed=2024)
        for scm in scms:
            gamma = gamma_population(scm)
            for i in range(scm.p):
                for j in range(scm.p):
                    if i == j:
                        continue
                    assert classify_pair(gamma, i, j, tol=1e-9) == classify_truth(
                        scm.dag, i, j)
            assert validate_order(scm.dag, ease(gamma)).valid


def test_a3_estimator_to_oracle_convergence():
    with Budget(120.0):
        config = EstimatorConfig(k_exponent=0.4)
        assert config.k is None  # resolves to floor(1e6 ** 0.4) = 251

        def chain(beta, mode):
            return Scm(Dag(2, [(0, 1)]), {(0, 1): beta},
                       NoiseSpec("student_t", 1.0), mode=mode)

        positive, negative = chain(1.0, "positive"), chain(-1.0, "real")
        err_g21, err_g12, err_psi, err_g21_small = [], [], [], []
        for seed in range(20):
            sample = simulate(positive, SimSetting("linear"), 10**6, seed=seed)
            err_g21.append(abs(gamma_estimate(sample, 1, 0, config) - 0.75))
            err_g12.append(abs(gamma_estimate(sample, 0, 1, config) - 1.0))
            flipped = simulate(negative, SimSetting("linear"), 10**6, seed=seed)
            err_psi.append(abs(psi_estimate(flipped, 0, 1, config) - 1.0))
            small = simulate(positive, SimSetting("linear"), 10**3, seed=seed)
            err_g21_small.append(abs(gamma_estimate(small, 1, 0, config) - 0.75))
        assert np.mean(err_g21) < 0.05
        assert np.mean(err_g12) < 0.05
        assert np.mean(err_psi) < 0.05
        assert np.mean(err_g21) < np.mean(err_g21_small)


def test_a4_consistency_trend():
    with Budget(300.0):
        grid = GridSpec((500, 1000, 10000), (4,), (2.5,), settings=("linear",))
        rows = benchmark(grid, methods=("ease_psi", "random_order"), reps=50, seed=0)
        ease_by_n = {r.n: r.mean_violation_fraction for r in rows if r.method == "ease_psi"}
        rand_by_n = {r.n: r.mean_violation_fraction for r in rows if r.method == "random_order"}
        assert ease_by_n[500] >= ease_by_n[1000] >= ease_by_n[10000]
        assert ease_by_n[10000] < 0.05
        assert ease_by_n[10000] < rand_by_n[10000]
        assert 0.35 < rand_by_n[10000] < 0.65


def test_a5_robustness_settings():
    with Budget(300.0):
        grid = GridSpec((10000,), (4,), (2.5,),
                        settings=("hidden_confounders", "nonlinear",
                                  "linear", "uniform_margins"))
        rows = benchmark(grid, methods=("ease_psi",), reps=50, seed=0)
        by_setting = {r.setting: r for r in rows}
        assert by_setting["hidden_confounders"].mean_violation_fraction < 0.1
        assert by_setting["nonlinear"].mean_violation_fraction < 0.1
        linear, uniform = by_setting["linear"], by_setting["uniform_margins"]
        assert (linear.mean_violation_fraction, linear.se, linear.mistake_rate) == (
            uniform.mean_violation_fraction, uniform.se, uniform.mistake_rate)


def test_a6_k_sensitivity():
    with Budget(180.0):
        exponents = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
        rows = k_sensitivity(exponents, p=10, alpha=1.5, n=1000, reps=20,
                             seed=0, kind="psi")
        best = min(rows, key=lambda r: (r.mean_violation_fraction, r.exponent))
        assert 0.3 <= best.exponent <= 0.5


def test_a7_brute_force_estimator_oracle():
    with Budget(5.0):
        from heavytail import Dataset

        rng = np.random.default_rng(7)
        for draw in range(200):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n))
            if draw % 3 == 0:  # integer draws force ties
                values = rng.integers(-2, 3, size=(n, 2)).astype(float)
            else:
                values = rng.standard_t(2.0, size=(n, 2))
            data = Dataset(["a", "b"], values)
            listed = values.tolist()
            config = EstimatorConfig(k=k)
            assert gamma_estimate(data, 0, 1, config) == brute_gamma(listed, 0, 1, k)
            assert gamma_estimate(data, 1, 0, config) == brute_gamma(listed, 1, 0, k)
            assert psi_estimate(data, 0, 1, config) == brute_psi(listed, 0, 1, k)
            assert psi_estimate(data, 1, 0, config) == brute_psi(listed, 1, 0, k)


def test_a8_regular_variation_properties():
    with Budget(30.0):
        spec = NoiseSpec("shifted_pareto", 1.5)
        columns = [sample_noise(spec, 10**6, seed=800 + i) for i in range(3)]
        ratio = max_sum_tail_ratio(np.column_stack(columns), 0.999)
        assert 0.8 <= ratio <= 1.2
        n = 10**5
        k = int(n ** 0.4)
        for alpha, seed in ((1.0, 81), (2.0, 82)):
            x = sample_noise(NoiseSpec("shifted_pareto", alpha), n, seed=seed)
            estimate = hill_tail_index(x, k=k)
            assert abs(estimate.alpha_hat - alpha) <= 0.1 * alpha


def test_a9_invariance_suite():
    with Budget(10.0):
        from heavytail import Dataset

        rng = np.random.default_rng(9)
        values = rng.standard_t(1.5, size=(2000, 3))
        data = Dataset(["a", "b", "c"], values)
        warped = Dataset(["a", "b", "c"], np.column_stack(
            [np.exp(values[:, 0]), values[:, 1] ** 3, np.arctan(values[:, 2])]))
        shuffled = Dataset(["a", "b", "c"], values[rng.permutation(2000)])
        for kind in ("gamma", "psi"):
            config = EstimatorConfig(k_exponent=0.4, kind=kind)
            baseline = coefficient_matrix(data, config).values
            for other in (warped, shuffled):
                candidate = coefficient_matrix(other, config).values
                assert np.array_equal(np.nan_to_num(baseline), np.nan_to_num(candidate))

        # search determinism and index tie-break
        matrix = coefficient_matrix(data, EstimatorConfig(k_exponent=0.4, kind="psi"))
        assert ease(matrix) == ease(matrix)
        tied = np.full((3, 3), 0.5)
        np.fill_diagonal(tied, np.nan)
        from heavytail import CoefMatrix

        tie_matrix = CoefMatrix(tied, "gamma")
        assert ease(tie_matrix).sequence == (0, 1, 2)
        assert [s.chosen for s in ease_trace(tie_matrix)] == [0, 1, 2]
