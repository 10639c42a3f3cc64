"""Weighted DAGs, structural causal models, causal orders, and path weights.

Nodes are integers ``0 .. p-1``. An SCM assigns
``X_child = sum(beta[parent, child] * X_parent) + noise_child`` along a DAG;
the path-weight matrix ``H`` collects summed products of edge coefficients
over all directed paths, ``H[j, k]`` being the total weight from ``k`` to
``j`` (and 1 on the diagonal), so that ``X = H @ noise``. In the same index
order, ``Dag.ancestor_matrix[j, i]`` is true when ``i`` is a strict ancestor of ``j``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rng import as_rng
from .errors import ValidationError, integer
from .noise import NoiseSpec

POSITIVE = "positive"
REAL = "real"
MODES = (REAL, POSITIVE)
COEFFICIENT_LAWS = ("intervals", "four_point")

FAITHFULNESS_TOL = 1e-12

# Parents above which Dag.ancestor_matrix ORs a node's parent rows in one
# np.logical_or.reduce instead of one row at a time. The reduction's gather
# costs a few calls' worth, so it wins only past about 8 parents (one node's
# row, 2000 builds at p = 150 and 1000 on a 2-vCPU host: 8 parents 7.4 against
# 12.2 us at p = 150, 10 parents 12.2 against 7.4 us at p = 1000). A complete
# DAG of 1000 nodes builds in 0.14 s instead of 1.0 s; the grid's DAGs have
# 0.9 to 2.4 parents per node and keep the row-at-a-time form.
_REDUCE_PARENTS = 8


class Dag:
    """Immutable directed acyclic graph on nodes ``0 .. p-1``.

    ``ancestor_matrix[j, i]`` is true when ``i`` is a strict ancestor of ``j``.
    """

    def __init__(self, p: int, edges=()):
        self._p = p = integer(p, "node count", 1)
        seen = set()
        parents = [[] for _ in range(p)]
        children = [[] for _ in range(p)]
        if not isinstance(edges, Iterable):
            raise ValidationError(f"edges must be an iterable of (parent, child) pairs, "
                                  f"got {edges!r}")
        for edge in edges:
            try:
                parent, child = edge
            except (TypeError, ValueError):
                raise ValidationError(
                    f"an edge must be a (parent, child) pair, got {edge!r}") from None
            parent, child = integer(parent, "edge node id"), integer(child, "edge node id")
            if not (0 <= parent < p and 0 <= child < p):
                raise ValidationError(f"edge ({parent}, {child}) out of range for p={p}")
            if parent == child:
                raise ValidationError(f"self-loop at node {parent}")
            if (parent, child) in seen:
                raise ValidationError(f"duplicate edge ({parent}, {child})")
            seen.add((parent, child))
            parents[child].append(parent)
            children[parent].append(child)
        self._edges = frozenset(seen)
        self._parents = tuple(tuple(sorted(ps)) for ps in parents)
        self._topo = self._topological_sort([sorted(cs) for cs in children])

    def _topological_sort(self, children) -> tuple[int, ...]:
        indegree = [len(self._parents[j]) for j in range(self._p)]
        stack = sorted((j for j in range(self._p) if indegree[j] == 0), reverse=True)
        order = []
        while stack:
            node = stack.pop()
            order.append(node)
            for child in children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    stack.append(child)
        if len(order) != self._p:
            raise ValidationError("graph contains a directed cycle")
        return tuple(order)

    @property
    def p(self) -> int:
        return self._p

    @property
    def edges(self) -> frozenset:
        return self._edges

    @property
    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def parents(self, j: int) -> tuple[int, ...]:
        self._check_node(j)
        return self._parents[j]

    @cached_property
    def ancestor_matrix(self) -> np.ndarray:
        """Read-only p x p booleans; ``[j, i]`` is true when i is a strict ancestor of j.

        Built on first use, in topological order: row j marks each parent and
        ORs in the parents' rows, which are complete by then. A node with more
        than _REDUCE_PARENTS parents ORs their rows in one reduction, any other
        one row at a time.
        """
        a = np.zeros((self._p, self._p), dtype=bool)
        for j in self._topo:
            parents = self._parents[j]
            if len(parents) > _REDUCE_PARENTS:
                np.logical_or.reduce(a[parents, :], axis=0, out=a[j])
                a[j, parents] = True
                continue
            for parent in parents:
                a[j, parent] = True
                a[j] |= a[parent]
        a.flags.writeable = False
        return a

    def _check_node(self, j: int) -> None:
        if not (0 <= integer(j, "node id") < self._p):
            raise ValidationError(f"node {j} out of range for p={self._p}")

    def __eq__(self, other):
        return isinstance(other, Dag) and self._p == other._p and self._edges == other._edges

    def __hash__(self):
        return hash((self._p, self._edges))

    def __repr__(self):
        return f"Dag(p={self._p}, edges={sorted(self._edges)})"


class CausalOrder:
    """A permutation of nodes; ``sequence[s]`` is the node placed at position ``s``."""

    def __init__(self, sequence):
        seq = tuple(integer(v, "order node id", 0) for v in sequence)
        if len(set(seq)) != len(seq):
            raise ValidationError("order contains repeated nodes")
        self._sequence = seq

    @property
    def sequence(self) -> tuple[int, ...]:
        return self._sequence

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._sequence)

    def position(self, node: int) -> int:
        try:
            return self._sequence.index(node)
        except ValueError:
            raise ValidationError(f"node {node} not covered by this order") from None

    def relabel(self, mapping) -> "CausalOrder":
        """Map every node id ``v`` to ``mapping[v]``."""
        return CausalOrder([mapping[node] for node in self._sequence])

    def __len__(self):
        return len(self._sequence)

    def __eq__(self, other):
        return isinstance(other, CausalOrder) and self._sequence == other._sequence

    def __hash__(self):
        return hash(self._sequence)

    def __repr__(self):
        return f"CausalOrder({self._sequence})"


class Scm:
    """Linear SCM on nodes ``0 .. p-1``: nonzero edge coefficients and per-node noise.

    ``coefficients`` maps each edge ``(parent, child)`` to its beta, the only
    store of the edge weights; its keys are the edges of ``dag``, the Dag
    built from them. ``mode`` is "positive" when every coefficient
    is strictly positive (the one-sided-tail model) and "real" otherwise.
    ``hidden`` marks nodes that simulation drops from emitted data, and
    ``observed`` lists the others ascending. All noise variables must share
    one tail index.
    """

    def __init__(self, p: int, coefficients, noise, mode: str = POSITIVE,
                 hidden=(), names=None):
        if mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
        try:
            coeffs = {(integer(a, "edge node id"), integer(b, "edge node id")): float(v)
                      for (a, b), v in dict(coefficients).items()}
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"coefficients must map (parent, child) pairs to numbers: {exc}") from None
        dag = Dag(p, coeffs)
        for (a, b), v in coeffs.items():
            if v == 0.0 or not math.isfinite(v):
                raise ValidationError(f"coefficient for edge ({a}, {b}) must be finite and nonzero")
            if mode == POSITIVE and v <= 0:
                raise ValidationError(f"positive mode requires beta > 0, got {v} on edge ({a}, {b})")
        if isinstance(noise, NoiseSpec):
            noise = (noise,) * dag.p
        noise = tuple(noise)
        if len(noise) != dag.p:
            raise ValidationError(f"need one noise spec per node ({dag.p}), got {len(noise)}")
        alphas = {spec.alpha for spec in noise}
        if len(alphas) != 1:
            raise ValidationError("comparable tails require a single alpha across all noise terms")
        if not isinstance(hidden, Iterable):
            raise ValidationError(f"hidden must be an iterable of node ids, got {hidden!r}")
        hidden = frozenset(integer(h, "hidden node id") for h in hidden)
        for h in hidden:
            if not (0 <= h < dag.p):
                raise ValidationError(f"hidden node {h} out of range")
        if len(hidden) == dag.p:
            raise ValidationError("at least one node must be observed")
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != dag.p or len(set(names)) != dag.p:
                raise ValidationError("names must be unique and cover every node")
        self.dag = dag
        self.coefficients = coeffs
        self.noise = noise
        self.mode = mode
        self.hidden = hidden
        self.observed = tuple(j for j in range(dag.p) if j not in hidden)
        self.names = names

    @property
    def p(self) -> int:
        return self.dag.p

    @property
    def alpha(self) -> float:
        return self.noise[0].alpha

    def node_name(self, j: int) -> str:
        return self.names[j] if self.names is not None else f"x{j}"

    def __repr__(self):
        return (f"Scm(p={self.p}, edges={len(self.coefficients)}, mode={self.mode!r}, "
                f"alpha={self.alpha}, hidden={sorted(self.hidden)})")


def path_weights(scm: Scm) -> np.ndarray:
    """Exact path-weight matrix H by back-substitution along a topological order.

    ``H[j, k]`` sums the weighted directed paths k -> j; it solves (I - B) @ H = I,
    ``B[j, k]`` the coefficient of the edge k -> j.
    """
    p = scm.p
    h = np.zeros((p, p))
    for j in scm.dag.topological_order:
        row = h[j]  # still zero: row j is written once, after its parents' rows
        row[j] = 1.0
        for parent in scm.dag.parents(j):
            row += scm.coefficients[parent, j] * h[parent]
    return h


def check_path_faithful(scm: Scm, h: np.ndarray | None = None) -> bool:
    """True when every ancestor path weight is bounded away from zero.

    Distinct directed paths with real coefficients can cancel; the population
    coefficients assume they do not.
    """
    if h is None:
        h = path_weights(scm)
    return not np.any(np.abs(h[scm.dag.ancestor_matrix]) <= FAITHFULNESS_TOL)


def backward_pairs(dag: Dag, order: CausalOrder) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ancestral pairs among an order's nodes, and those it places backwards.

    Returns the nodes ascending, the ancestor matrix restricted to them (ancestry
    taken in the full graph; ``[j, i]`` concerns ``nodes[j]`` and its ancestor
    ``nodes[i]``) and the mask of its pairs placed backwards.
    """
    sequence = np.array(order.sequence, dtype=np.intp)
    positions = np.argsort(sequence)  # positions[s] is the place of nodes[s]
    nodes = sequence[positions]
    ancestors = dag.ancestor_matrix
    if nodes.size < dag.p:
        ancestors = ancestors[np.ix_(nodes, nodes)]
    backward = np.less.outer(positions, positions)
    backward &= ancestors
    return nodes, ancestors, backward


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for random SCM generation.

    ``coefficient_law`` chooses between magnitudes uniform on
    [0.1, 0.9] with a random sign ("intervals") and the four-point set
    {-0.9, -0.1, 0.1, 0.9} ("four_point"); positive mode keeps only the
    positive branch. ``hidden_confounders`` adds parentless extra nodes
    feeding sampled node pairs.
    """

    mode: str = REAL
    coefficient_law: str = "intervals"
    hidden_confounders: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.coefficient_law not in COEFFICIENT_LAWS:
            raise ValidationError(
                f"coefficient_law must be one of {COEFFICIENT_LAWS}, got {self.coefficient_law!r}")


def _draw_coefficient(rng, config: GeneratorConfig) -> float:
    if config.coefficient_law == "intervals":
        magnitude = rng.uniform(0.1, 0.9)
    else:
        magnitude = rng.choice((0.1, 0.9))
    if config.mode == POSITIVE:
        return float(magnitude)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return float(sign * magnitude)


def _draw_coefficients(rng, config: GeneratorConfig, count: int) -> list[float]:
    """``count`` coefficients, drawn as ``count`` calls of _draw_coefficient would draw them.

    An "intervals" magnitude is rng.uniform(0.1, 0.9), which is
    0.1 + (0.9 - 0.1) * u for the generator's next double u, and a sign is
    negative when the double after it is below 0.5; so one rng.random call
    gives them all, in the same order and bit for bit (the graph tests check
    both against the per-edge calls). "four_point" draws through rng.choice,
    one edge at a time.
    """
    if config.coefficient_law != "intervals":
        return [_draw_coefficient(rng, config) for _ in range(count)]
    if config.mode == POSITIVE:
        return [0.1 + (0.9 - 0.1) * u for u in rng.random(count).tolist()]
    draws = rng.random(2 * count).tolist()
    magnitudes = (0.1 + (0.9 - 0.1) * u for u in draws[0::2])
    return [m if v < 0.5 else -m for m, v in zip(magnitudes, draws[1::2])]


def random_scm(p: int, alpha: float, config: GeneratorConfig | None = None, seed=None) -> Scm:
    """Random SCM: shuffled causal order, binomial parent counts, optional
    hidden confounders.

    Edge probability is q = min(5 / (p - 1), 1/2), giving 2.5 expected edges
    per node once p > 10. With ``hidden_confounders`` the number of
    confounded pairs is binomial over all unordered pairs with success
    probability 2 / (3p - 3), one confounder per three nodes on average.
    Every node's noise is Student-t with ``alpha`` degrees of freedom and unit
    scales. Real-coefficient draws violating path-faithfulness are rejected and
    resampled, up to 100 draws in all.
    """
    p = integer(p, "p", 1)
    if not (alpha > 0):
        raise ValidationError(f"alpha must be positive, got {alpha}")
    config = config or GeneratorConfig()
    rng = as_rng(seed)
    for _ in range(100):
        scm = _draw_scm(p, alpha, config, rng)
        if config.mode == POSITIVE or check_path_faithful(scm):
            return scm
    raise ValidationError("could not draw a path-faithful SCM within the resample budget")


def _node_pairs(indices: np.ndarray, p: int) -> tuple[list, list]:
    """The pairs (i, j), i < j < p, at ``indices`` of their row-major list (firsts, seconds).

    Row i holds the p - 1 - i pairs (i, i + 1) .. (i, p - 1) from index i * (2p - 1 - i) / 2.
    """
    rows = np.arange(p - 1)
    row_start = rows * (2 * p - 1 - rows) // 2
    first = np.searchsorted(row_start, indices, side="right") - 1
    second = first + 1 + indices - row_start[first]
    return first.tolist(), second.tolist()


def _draw_scm(p: int, alpha: float, config: GeneratorConfig, rng) -> Scm:
    position = rng.permutation(p)  # position[i] is node i's causal rank
    by_position = np.argsort(position)
    q = min(5.0 / (p - 1), 0.5) if p > 1 else 0.5

    nodes = by_position.tolist()
    edges = {}
    for rank in range(1, p):
        node = nodes[rank]
        n_parents = rng.binomial(rank, q)
        if n_parents == 0:
            continue
        parents = sorted(rng.choice(by_position[:rank], size=n_parents, replace=False).tolist())
        for parent, beta in zip(parents, _draw_coefficients(rng, config, n_parents)):
            edges[(parent, node)] = beta

    hidden = []
    total = p
    if config.hidden_confounders and p >= 2:
        n_pairs = p * (p - 1) // 2
        q_conf = 2.0 / (3.0 * p - 3.0)
        n_conf = rng.binomial(n_pairs, q_conf)
        if n_conf > 0:
            chosen = np.sort(rng.choice(n_pairs, size=n_conf, replace=False))
            betas = iter(_draw_coefficients(rng, config, 2 * n_conf))
            for i, j in zip(*_node_pairs(chosen, p)):
                conf = total
                total += 1
                hidden.append(conf)
                edges[(conf, i)] = next(betas)
                edges[(conf, j)] = next(betas)

    return Scm(total, edges, NoiseSpec("student_t", alpha), mode=config.mode, hidden=hidden)
