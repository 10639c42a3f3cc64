"""One integer rule: every count and node id the library takes is an integer of
any integer type, never a boolean or a float, and at least its least value.
Files and grids also take integral floats; the table below is the API's."""

import dataclasses

import numpy as np
import pytest

from heavytail import (ConfigError, CausalOrder, Dag, Dataset, EstimatorConfig, GridSpec,
                       NoiseSpec, Scm, SimSetting, ValidationError, benchmark,
                       coefficient_matrix, gamma_estimate, hill_tail_index, k_sensitivity,
                       random_scm, resolve_k, sample_noise, simulate, simulate_grid)
from heavytail.errors import MEMORY_CAP_BYTES
from heavytail.simulate import set_up_replicate

NOISE = NoiseSpec("student_t", 1.5)
LINEAR = SimSetting("linear")
GRID = GridSpec((30,), (3,), (1.5,))
SCM = Scm(3, {(0, 1): 0.5, (1, 2): -0.7}, NOISE, mode="real")
SAMPLE = Dataset(["a", "b", "c"], np.random.default_rng(0).standard_t(1.5, size=(200, 3)))
POSITIVE_SAMPLE = np.abs(SAMPLE.values[:, 0])


def scm_key(scm):
    return scm.p, scm.coefficients, sorted(scm.hidden), scm.mode


def scenario_key(s):
    seed = s.data_seed
    return (s.setting, s.n, s.p, s.alpha, s.rep, scm_key(s.truth), seed.entropy, seed.spawn_key,
            None if s.data is None else s.data.values)


# id, the call of the site on a value, the least value it accepts, a value it accepts
SITES = [
    ("Dag-p", lambda v: Dag(v, [(0, 1)]), 1, 3),
    ("Dag-edge", lambda v: Dag(3, [(v, 2)]), 0, 1),
    ("Dag-parents", lambda v: Dag(3, [(0, 2), (1, 2)]).parents(v), 0, 2),
    ("Scm-p", lambda v: scm_key(Scm(v, {(0, 1): 0.5}, NOISE)), 1, 3),
    ("Scm-coefficient-key", lambda v: scm_key(Scm(3, {(v, 2): 0.5}, NOISE)), 0, 1),
    ("Scm-hidden", lambda v: scm_key(Scm(3, {(0, 1): 0.5}, NOISE, hidden=[v])), 0, 2),
    ("CausalOrder", lambda v: CausalOrder([v, 0]).sequence, 0, 1),
    ("random_scm-p", lambda v: scm_key(random_scm(v, 1.5, seed=3)), 1, 4),
    ("sample_noise-n", lambda v: sample_noise(NOISE, v, seed=1), 1, 5),
    ("sample_noise-columns", lambda v: sample_noise(NOISE, 5, seed=1, columns=v), 1, 2),
    ("hill_tail_index-k", lambda v: hill_tail_index(POSITIVE_SAMPLE, v), 2, 10),
    ("simulate-n", lambda v: simulate(SCM, LINEAR, v, seed=2).values, 1, 20),
    ("set_up_replicate-n",
     lambda v: scenario_key(set_up_replicate(0, MEMORY_CAP_BYTES, LINEAR, v, 3, 1.5, 0)), 1, 20),
    ("set_up_replicate-p",
     lambda v: scenario_key(set_up_replicate(0, MEMORY_CAP_BYTES, LINEAR, 20, v, 1.5, 0)), 1, 3),
    ("simulate_grid-reps", lambda v: [scenario_key(s) for s in simulate_grid(GRID, v, 0)], 1, 2),
    ("EstimatorConfig-k", lambda v: coefficient_matrix(SAMPLE, EstimatorConfig(k=v)).values,
     1, 5),
    ("resolve_k-n", lambda v: resolve_k(v, EstimatorConfig()), 2, 100),
    ("gamma_estimate-column", lambda v: gamma_estimate(SAMPLE, v, 0, EstimatorConfig(k=5)), 0, 1),
    ("Dataset-column", lambda v: SAMPLE.column(v), 0, 2),
    ("benchmark-reps",
     lambda v: [dataclasses.replace(row, wall_ms=0.0)
                for row in benchmark(GRID, ("random_order",), reps=v, seed=0)], 1, 2),
    ("k_sensitivity-n", lambda v: k_sensitivity([0.4], p=3, alpha=1.5, n=v, seed=0), 2, 30),
]
SITE_IDS = [site[0] for site in SITES]


def refused_values(least, good):
    return {"fraction": 2.5, "bool": True, "nan": float("nan"),
            "integral-float": np.float64(good), "below-least": least - 1}


@pytest.mark.parametrize("kind", list(refused_values(0, 1)))
@pytest.mark.parametrize("name, call, least, good", SITES, ids=SITE_IDS)
def test_every_count_and_node_id_refuses_what_is_not_an_integer(name, call, least, good, kind):
    error = ConfigError if name == "EstimatorConfig-k" else ValidationError
    with pytest.raises(error):
        call(refused_values(least, good)[kind])


@pytest.mark.parametrize("name, call, least, good", SITES, ids=SITE_IDS)
def test_every_count_and_node_id_takes_any_integer_type(name, call, least, good):
    expected = call(good)
    for value in (np.int32(good), np.int64(good)):
        np.testing.assert_equal(call(value), expected)


# id, a call that passes a value of the wrong shape where node ids are expected
MALFORMED = [
    ("Dag-edge-not-a-pair", lambda: Dag(3, [5])),
    ("Dag-edge-triple", lambda: Dag(3, [(0, 1, 2)])),
    ("Dag-edges-none", lambda: Dag(3, None)),
    ("Scm-hidden-not-iterable", lambda: Scm(3, {(0, 1): 0.5}, NOISE, hidden=5)),
]


@pytest.mark.parametrize("name, call", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_edges_and_hidden_nodes_are_refused(name, call):
    with pytest.raises(ValidationError):
        call()
