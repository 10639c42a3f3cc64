import itertools
import tracemalloc

import numpy as np
import pytest

from heavytail import (CausalOrder, Dag, GeneratorConfig, NoiseSpec, Scm, ValidationError,
                       check_path_faithful, path_weights, random_scm)

from heavytail import graph
from heavytail.graph import (COEFFICIENT_LAWS, MODES, _REDUCE_PARENTS, _draw_coefficient,
                             _node_pairs, backward_pairs)

from brute_oracles import all_causal_orders, brute_ancestors, brute_backward_pairs


def backward(dag, order):
    """backward_pairs' pairs placed backwards, as brute_backward_pairs lists them."""
    nodes, _, mask = backward_pairs(dag, order)
    descendant, ancestor = np.nonzero(mask)
    return tuple(zip(nodes[ancestor].tolist(), nodes[descendant].tolist()))
from conftest import make_chain


def test_dag_validation():
    with pytest.raises(ValidationError):
        Dag(0)
    with pytest.raises(ValidationError, match="out of range"):
        Dag(2, [(0, 2)])
    with pytest.raises(ValidationError, match="self-loop"):
        Dag(2, [(1, 1)])
    with pytest.raises(ValidationError, match="duplicate"):
        Dag(2, [(0, 1), (0, 1)])
    with pytest.raises(ValidationError, match="cycle"):
        Dag(3, [(0, 1), (1, 2), (2, 0)])


def test_non_integral_node_ids_are_refused_not_truncated():
    noise = NoiseSpec("student_t", 1.5)
    for edge in [(0.7, 1.2), (0, 1.0), (np.float64(0.0), 1), ("0", 1)]:
        with pytest.raises(ValidationError, match="integer node ids"):
            Dag(3, [edge])
        with pytest.raises(ValidationError, match="integer"):
            Scm(3, {edge: 0.5}, noise)
    for hidden in ([2.9], [2.0], [np.float64(1.0)]):
        with pytest.raises(ValidationError, match="hidden node ids must be integers"):
            Scm(3, {(0, 1): 0.5}, noise, hidden=hidden)
    for sequence in ([0.9, 1.2, 2.5], [0, 1, 2.0], np.arange(3.0)):
        with pytest.raises(ValidationError, match="order node ids must be integers"):
            CausalOrder(sequence)
    # ints of any integer type are node ids
    ids = np.arange(3)
    assert Dag(3, [(ids[0], ids[1]), (np.int32(1), 2)]).edges == {(0, 1), (1, 2)}
    assert Scm(3, {(ids[0], ids[2]): 0.5}, noise, hidden=ids[1:2]).hidden == {1}
    assert CausalOrder(ids[::-1]).sequence == (2, 1, 0)


def strict_ancestors(dag, j):
    return set(np.flatnonzero(dag.ancestor_matrix[j]).tolist())


def test_ancestors_diamond(diamond_scm):
    dag = diamond_scm.dag
    assert strict_ancestors(dag, 3) == {0, 1, 2}
    assert strict_ancestors(dag, 0) == set()


def test_ancestors_chain_and_isolated():
    chain = Dag(3, [(0, 1), (1, 2)])
    assert strict_ancestors(chain, 2) == {0, 1}
    isolated = Dag(3, [(0, 1)])
    assert strict_ancestors(isolated, 2) == set()
    with pytest.raises(ValidationError):
        chain.parents(5)


def _shuffled_dag(seed):
    """A random DAG whose topological order is a random permutation of the node ids."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 16))
    order = rng.permutation(p).tolist()
    density = rng.uniform(0.1, 0.6)
    return Dag(p, [(order[a], order[b]) for a in range(p) for b in range(a + 1, p)
                   if rng.random() < density])


def test_ancestor_matrix_matches_warshall_closure():
    for seed in range(200):
        dag = _shuffled_dag(seed)
        expected = np.array(brute_ancestors(dag.p, dag.edges), dtype=bool)
        assert np.array_equal(dag.ancestor_matrix, expected), dag


@pytest.mark.parametrize("shape", ["complete", "chain", "random"])
def test_ancestor_matrix_matches_warshall_with_many_parents(shape):
    # nodes above _REDUCE_PARENTS parents OR their rows in one reduction,
    # the others one row at a time; the matrix is the closure either way
    rng = np.random.default_rng(7)
    for p in (2, 9, 10, 11, 40):
        order = rng.permutation(p).tolist()
        pairs = [(order[a], order[b]) for a in range(p) for b in range(a + 1, p)]
        edges = {"complete": pairs,
                 "chain": [(order[a], order[a + 1]) for a in range(p - 1)],
                 "random": [pair for pair in pairs if rng.random() < 0.5]}[shape]
        dag = Dag(p, edges)
        expected = np.array(brute_ancestors(p, dag.edges), dtype=bool)
        assert np.array_equal(dag.ancestor_matrix, expected), dag
    most = max(len(dag.parents(j)) for j in range(dag.p))
    assert (most > _REDUCE_PARENTS) == (shape != "chain")


def test_backward_pairs_match_a_double_loop_over_pairs():
    rng = np.random.default_rng(1)
    for seed in range(200):
        dag = _shuffled_dag(seed)
        covered = rng.permutation(dag.p)[:rng.integers(1, dag.p + 1)].tolist()
        expected = brute_backward_pairs(dag.p, dag.edges, covered)
        assert backward(dag, CausalOrder(covered)) == expected, dag


def test_ancestor_matrix_is_built_once_on_first_use_and_read_only():
    p = 10**5
    tracemalloc.start()
    try:
        Dag(p, [(j, j + 1) for j in range(p - 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * p // 100
    dag = Dag(4, [(0, 1), (1, 2)])
    matrix = dag.ancestor_matrix
    assert strict_ancestors(dag, 2) == {0, 1} and strict_ancestors(dag, 3) == set()
    assert dag.ancestor_matrix is matrix
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[3, 0] = True


def test_topological_order_respects_edges():
    dag = Dag(5, [(3, 1), (1, 0), (0, 4), (3, 2)])
    order = dag.topological_order
    for parent, child in dag.edges:
        assert order.index(parent) < order.index(child)


def test_path_weights_diamond(diamond_scm):
    h = path_weights(diamond_scm)
    assert h[3, 0] == 2.0
    assert h[3, 1] == 1.0 and h[3, 2] == 1.0
    assert np.all(np.diag(h) == 1.0)


def test_path_weights_empty_graph():
    scm = Scm(3, {}, NoiseSpec("student_t", 2.0))
    assert np.array_equal(path_weights(scm), np.eye(3))


def test_path_weights_chain_product():
    scm = make_chain([0.5, 0.4])
    h = path_weights(scm)
    assert h[2, 0] == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("p", [5, 20, 50])
def test_path_weights_residual(p):
    scm = random_scm(p, 1.5, GeneratorConfig(), seed=p)
    # H solves (I - B) @ H = I up to float rounding
    b = np.zeros((p, p))
    for (parent, child), beta in scm.coefficients.items():
        b[child, parent] = beta
    eye = np.eye(p)
    residual = (eye - b) @ path_weights(scm) - eye
    assert np.abs(residual).max() < 1e-10


def test_positive_mode_weights_mark_ancestry():
    for seed in range(30):
        scm = random_scm(6, 1.5, GeneratorConfig(mode="positive"), seed=seed)
        h = path_weights(scm)
        ancestors = np.array(brute_ancestors(scm.p, scm.dag.edges)) | np.eye(scm.p, dtype=bool)
        assert np.array_equal(h > 0, ancestors)


def test_causal_order_round_trip():
    order = CausalOrder([2, 0, 1])
    assert [order.position(node) for node in range(3)] == [1, 2, 0]
    for node in (3, -1):
        with pytest.raises(ValidationError):
            order.position(node)
    assert order.relabel([10, 11, 12]).sequence == (12, 10, 11)
    with pytest.raises(ValidationError):
        CausalOrder([0, 0, 1])


def test_backward_pairs_chain():
    dag = Dag(2, [(0, 1)])
    assert backward(dag, CausalOrder([0, 1])) == ()
    assert backward(dag, CausalOrder([1, 0])) == ((0, 1),)


def test_backward_pairs_known_four_node_dag(fournode_dag):
    assert backward(fournode_dag, CausalOrder([1, 0, 3, 2])) == ()
    assert backward(fournode_dag, CausalOrder([0, 1, 2, 3])) != ()


def test_backward_pairs_take_ancestry_in_the_full_graph():
    # 0 -> 1 -> 2 with node 1 left out: 0 still precedes 2 through the hidden path
    dag = Dag(3, [(0, 1), (1, 2)])
    assert backward(dag, CausalOrder([0, 2])) == ()
    assert backward(dag, CausalOrder([2, 0])) == ((0, 2),)


def test_enumeration_known_four_node_set(fournode_dag):
    orders = all_causal_orders(fournode_dag)
    as_positions = {tuple(o.index(node) for node in range(4)) for o in orders}
    assert as_positions == {(1, 0, 3, 2), (1, 0, 2, 3), (2, 0, 1, 3)}
    assert set(orders) == {(1, 0, 3, 2), (1, 0, 2, 3), (1, 2, 0, 3)}


def test_enumeration_trivial_graphs():
    assert len(all_causal_orders(Dag(3))) == 6
    chain = Dag(3, [(0, 1), (1, 2)])
    assert all_causal_orders(chain) == [(0, 1, 2)]


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_agrees_with_validation(seed):
    scm = random_scm(5, 1.5, GeneratorConfig(), seed=seed)
    dag = scm.dag if scm.p <= 6 else Dag(5)
    member = set(all_causal_orders(dag))
    for perm in itertools.permutations(range(dag.p)):
        assert (perm in member) == (backward(dag, CausalOrder(perm)) == ())


def test_random_scm_guards_and_trivial_case():
    with pytest.raises(ValidationError):
        random_scm(0, 1.5)
    with pytest.raises(ValidationError):
        random_scm(3, 0.0)
    scm = random_scm(1, 2.5, seed=0)
    assert scm.p == 1 and not scm.coefficients


def test_random_scm_determinism():
    a = random_scm(10, 1.5, GeneratorConfig(hidden_confounders=True), seed=4)
    b = random_scm(10, 1.5, GeneratorConfig(hidden_confounders=True), seed=4)
    assert a.coefficients == b.coefficients and a.hidden == b.hidden


def test_random_scm_mean_edges_per_node():
    total = 0
    for seed in range(1000):
        scm = random_scm(20, 2.5, GeneratorConfig(), seed=seed)
        total += len(scm.coefficients)
    assert abs(total / 1000 / 20 - 2.5) < 0.2


def test_random_scm_mean_confounder_count():
    config = GeneratorConfig(hidden_confounders=True)
    total = 0
    for seed in range(1000):
        total += len(random_scm(10, 2.5, config, seed=seed).hidden)
    assert abs(total / 1000 - 10 / 3) < 0.3


def test_random_scm_coefficient_laws():
    positive = random_scm(12, 1.5, GeneratorConfig(mode="positive"), seed=1)
    assert all(0.1 <= b <= 0.9 for b in positive.coefficients.values())
    real = random_scm(12, 1.5, GeneratorConfig(), seed=1)
    values = list(real.coefficients.values())
    assert any(b < 0 for b in values) and any(b > 0 for b in values)
    assert all(0.1 <= abs(b) <= 0.9 for b in values)
    four = random_scm(12, 1.5, GeneratorConfig(coefficient_law="four_point"), seed=1)
    assert all(abs(b) in (0.1, 0.9) for b in four.coefficients.values())


def test_random_scm_confounders_are_parentless_extra_nodes():
    scm = random_scm(8, 1.5, GeneratorConfig(hidden_confounders=True), seed=12)
    assert scm.hidden, "seed chosen to produce at least one confounder"
    for h in scm.hidden:
        assert h >= 8
        assert scm.dag.parents(h) == ()
        assert sum(parent == h for parent, _ in scm.dag.edges) == 2


def test_batched_coefficient_draws_match_per_edge_draws(monkeypatch):
    # the reference draws every coefficient by its own _draw_coefficient call,
    # edge by edge; the SCMs drawn (before any path-faithfulness resampling)
    # must be equal and the two streams left at the same position
    def per_edge(rng, config, count):
        return [_draw_coefficient(rng, config) for _ in range(count)]

    configs = [GeneratorConfig(mode, law, confounded) for mode, law, confounded in
               itertools.product(MODES, COEFFICIENT_LAWS, (False, True))]
    drawn = []
    for seed in range(2000):
        p = 2 + seed % 29
        config = configs[seed % len(configs)]
        rng = np.random.default_rng(seed)
        scm = graph._draw_scm(p, 1.5, config, rng)
        drawn.append((p, config, seed, scm, rng.random()))
    monkeypatch.setattr(graph, "_draw_coefficients", per_edge)
    for p, config, seed, scm, after in drawn:
        rng = np.random.default_rng(seed)
        reference = graph._draw_scm(p, 1.5, config, rng)
        assert list(scm.coefficients.items()) == list(reference.coefficients.items())
        assert scm.hidden == reference.hidden and scm.p == reference.p
        assert rng.random() == after
    assert sum(len(scm.hidden) > 0 for _, _, _, scm, _ in drawn) > 500


def test_confounded_pairs_index_the_row_major_pair_list():
    for p in (2, 3, 4, 7, 30):
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
        first, second = _node_pairs(np.arange(len(pairs)), p)
        assert list(zip(first, second)) == pairs


def test_generated_scms_are_path_faithful():
    for seed in range(50):
        scm = random_scm(7, 1.5, GeneratorConfig(), seed=seed)
        assert check_path_faithful(scm)


def test_scm_invariants():
    noise = NoiseSpec("student_t", 1.5)
    with pytest.raises(ValidationError, match="nonzero"):
        Scm(2, {(0, 1): 0.0}, noise)
    with pytest.raises(ValidationError, match="positive"):
        Scm(2, {(0, 1): -1.0}, noise, mode="positive")
    with pytest.raises(ValidationError, match="alpha"):
        Scm(2, {(0, 1): 1.0}, (noise, NoiseSpec("student_t", 2.0)))
    with pytest.raises(ValidationError, match="cycle"):
        Scm(2, {(0, 1): 1.0, (1, 0): 1.0}, noise)
    # the coefficient keys are the DAG's edges
    assert Scm(2, {(0, 1): -1.0}, noise, mode="real").dag == Dag(2, [(0, 1)])
