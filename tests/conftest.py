from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from heavytail import Dag, NoiseSpec, Scm

CRITERION_TITLES = {
    "test_a1": "A1 financial fixture regression",
    "test_a2": "A2 population oracle correctness",
    "test_a3": "A3 estimator-to-oracle convergence",
    "test_a4": "A4 consistency trend",
    "test_a5": "A5 robustness settings",
    "test_a6": "A6 k-sensitivity",
    "test_a7": "A7 brute-force estimator oracle",
    "test_a8": "A8 regular-variation properties",
    "test_a9": "A9 invariance suite",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in report.nodeid and getattr(report, "when", "call") == "call":
                name = report.nodeid.split("::")[-1]
                key = name.split("_criterion")[0][:7]
                title = CRITERION_TITLES.get(key, name)
                lines.append((title, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for title, status in sorted(set(lines)):
            terminalreporter.write_line(f"{status}  {title}")


def student_noise(alpha: float) -> NoiseSpec:
    return NoiseSpec("student_t", alpha)


@pytest.fixture
def diamond_scm():
    """0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, all coefficients 1, alpha 1."""
    coeffs = {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
    return Scm(4, coeffs, student_noise(1.0), mode="positive")


@pytest.fixture
def chain2_scm():
    return Scm(2, {(0, 1): 1.0}, student_noise(1.0), mode="positive")


@pytest.fixture
def disconnected_scm():
    return Scm(2, {}, student_noise(1.5), mode="positive")


@pytest.fixture
def fournode_dag():
    """Four-node DAG whose causal orders are known exactly: 1 -> 0, 1 -> 2, 0 -> 3."""
    return Dag(4, [(1, 0), (1, 2), (0, 3)])


def reference_noise(spec: NoiseSpec, n: int, rng) -> np.ndarray:
    """One column of ``spec`` noise in the textbook form, from the Generator ``rng``.

    The per-column reference the run draws of sample_noise and simulate are
    checked against bit for bit: fresh arrays, gathered tail halves.
    """
    if spec.family == "student_t":
        return rng.standard_t(spec.alpha, size=n)
    u = rng.random(n)
    if spec.family == "shifted_pareto":
        return spec.scale_upper ** (1.0 / spec.alpha) * (1.0 - u) ** (-1.0 / spec.alpha)
    w_lo = spec.scale_lower / (spec.scale_lower + spec.scale_upper)
    u = np.maximum(u, 2.0 ** -53)
    out = np.empty(n)
    neg = u < w_lo
    out[neg] = -((u[neg] / w_lo) ** (-1.0 / spec.alpha))
    out[~neg] = ((1.0 - u[~neg]) / (1.0 - w_lo)) ** (-1.0 / spec.alpha)
    return out


def max_sum_tail_ratio(samples, quantile_level: float) -> float:
    """Empirical P(row max > x) / P(row sum > x) at the row sums' ``quantile_level`` quantile.

    Tends to 1 for independent regularly varying columns (max-sum equivalence).
    """
    x = np.asarray(samples, dtype=float)
    row_sum = x.sum(axis=1)
    threshold = np.quantile(row_sum, quantile_level)
    return np.count_nonzero(x.max(axis=1) > threshold) / np.count_nonzero(row_sum > threshold)


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def make_chain(betas, alpha=1.0, mode="positive", family="student_t"):
    p = len(betas) + 1
    coeffs = {(j, j + 1): float(b) for j, b in enumerate(betas)}
    return Scm(p, coeffs, NoiseSpec(family, alpha), mode=mode)


def mistake_rate(scm, n, config, reps, seed):
    """(share of invalid orders, mean backward ancestral pairs) over ``reps`` datasets.

    Replicate ``rep`` is ``simulate(scm, SimSetting(), n, derived_seed(seed, rep))``;
    its order is ``recover_order`` under ``config``, scored by ``score_order``.
    """
    from heavytail import SimSetting, score_order, simulate
    from heavytail._rng import derived_seed
    from heavytail.evaluate import recover_order

    scores = []
    for rep in range(reps):
        data = simulate(scm, SimSetting(), n, derived_seed(seed, rep))
        scores.append(score_order(scm, recover_order(data, config, scm.observed)))
    rate = sum(not s.valid for s in scores) / reps
    return rate, sum(s.violations for s in scores) / reps


def random_positive_scm_pool(count, p_range=(2, 8), alphas=(1.0, 1.5, 2.5), seed=0):
    """Deterministic pool of positive-coefficient SCMs for sweep tests."""
    from heavytail import GeneratorConfig, random_scm

    rng = np.random.default_rng(seed)
    pool = []
    config = GeneratorConfig(mode="positive")
    for i in range(count):
        p = int(rng.integers(p_range[0], p_range[1] + 1))
        alpha = float(alphas[int(rng.integers(0, len(alphas)))])
        pool.append(random_scm(p, alpha, config, seed=int(rng.integers(0, 2**31))))
    return pool


class RecordedDraw:
    """A future of the draw-ahead executor that records when it is settled:
    cancelled, or its result read."""

    def __init__(self, future, settled):
        self._future, self._settled = future, settled

    def cancel(self):
        cancelled = self._future.cancel()
        if cancelled:
            self._settled.append(self._future)
        return cancelled

    def done(self):
        return self._future.done()

    def result(self):
        self._settled.append(self._future)
        return self._future.result()


class RecordingExecutor(ThreadPoolExecutor):
    """The draw-ahead executor, recording itself, each replicate whose draw is
    submitted, and each submitted draw once it is settled."""

    helpers, submitted, read = [], [], []

    @classmethod
    def record(cls):
        """The class, its records emptied: patch it in as concurrent.futures.ThreadPoolExecutor."""
        cls.helpers, cls.submitted, cls.read = [], [], []
        return cls

    def __init__(self, *args):
        super().__init__(*args)
        self.helpers.append(self)

    def submit(self, draw, replicate):
        self.submitted.append(replicate)
        return RecordedDraw(super().submit(draw, replicate), self.read)


def take_each_checking_the_cap(grid, reps, seed) -> None:
    """Run simulate_grid, the helper let finish each draw before the next take.

    RecordingExecutor must be patched in as the executor. At each take, the
    held replicate's simulation_bytes plus the _draw_bytes of every draw
    handed on and not yet taken must be within the grid's memory cap, and
    each scenario's data must be bit-identical to simulating its replicate
    alone, as set_up_replicate sets it up.
    """
    from heavytail import simulate, simulate_grid
    from heavytail.simulate import _draw_bytes, set_up_replicate, simulation_bytes

    def key(r):
        return r.setting, r.n, r.p, r.alpha, r.rep

    cap = grid.memory_cap_bytes
    replicates = [set_up_replicate(seed, cap, *cell, rep)
                  for cell in grid.cells() for rep in range(reps)]
    order = [key(r) for r in replicates]
    for i, (s, alone) in enumerate(zip(simulate_grid(grid, reps, seed), replicates, strict=True)):
        ahead = [r for r in RecordingExecutor.submitted if order.index(key(r)) > i]
        held = simulation_bytes(s.truth, s.setting, s.n) + sum(
            _draw_bytes(r.truth, r.n) for r in ahead)
        assert held <= cap, f"replicate {i} taken with {held} bytes held, over the cap of {cap}"
        assert key(s) == key(alone) and bitwise_equal(
            s.data.values, simulate(alone.truth, alone.setting, alone.n, alone.data_seed).values)
        for helper in RecordingExecutor.helpers:
            # the one worker runs its jobs in order: this one ends last
            ThreadPoolExecutor.submit(helper, lambda: None).result(timeout=10)
