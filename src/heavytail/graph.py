"""Weighted DAGs, structural causal models, causal orders, and path weights.

Nodes are integers ``0 .. p-1``. An SCM assigns
``X_child = sum(beta[parent, child] * X_parent) + noise_child`` along a DAG;
the path-weight matrix ``H`` collects summed products of edge coefficients
over all directed paths, ``H[j, k]`` being the total weight from ``k`` to
``j`` (and 1 on the diagonal), so that ``X = H @ noise``. In the same index
order, ``Dag.ancestor_matrix[j, i]`` is true when ``i`` is a strict ancestor of ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rng import as_rng
from .errors import ValidationError
from .noise import NoiseSpec

POSITIVE = "positive"
REAL = "real"
MODES = (REAL, POSITIVE)
COEFFICIENT_LAWS = ("intervals", "four_point")

FAITHFULNESS_TOL = 1e-12


class Dag:
    """Immutable directed acyclic graph on nodes ``0 .. p-1``.

    ``ancestor_matrix[j, i]`` is true when ``i`` is a strict ancestor of ``j``.
    """

    def __init__(self, p: int, edges=()):
        if p < 1:
            raise ValidationError(f"node count must be >= 1, got {p}")
        self._p = int(p)
        seen = set()
        parents = [[] for _ in range(p)]
        children = [[] for _ in range(p)]
        for parent, child in edges:
            parent, child = int(parent), int(child)
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
        ORs in the parent's row, which is complete by then.
        """
        a = np.zeros((self._p, self._p), dtype=bool)
        for j in self._topo:
            for parent in self._parents[j]:
                a[j, parent] = True
                a[j] |= a[parent]
        a.flags.writeable = False
        return a

    def _check_node(self, j: int) -> None:
        if not (0 <= j < self._p):
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
        seq = tuple(int(v) for v in sequence)
        if len(set(seq)) != len(seq):
            raise ValidationError("order contains repeated nodes")
        if any(v < 0 for v in seq):
            raise ValidationError("order contains negative node ids")
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
    """Linear SCM: a DAG plus nonzero edge coefficients and per-node noise.

    ``mode`` is "positive" when every coefficient is strictly positive (the
    one-sided-tail model) and "real" otherwise. ``hidden`` marks nodes that
    simulation drops from emitted data. All noise variables must share one
    tail index.
    """

    def __init__(self, dag: Dag, coefficients, noise, mode: str = POSITIVE,
                 hidden=(), names=None):
        if mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
        coeffs = {(int(a), int(b)): float(v) for (a, b), v in dict(coefficients).items()}
        if set(coeffs) != set(dag.edges):
            raise ValidationError("coefficients must be given exactly for the DAG's edges")
        for (a, b), v in coeffs.items():
            if v == 0.0 or not np.isfinite(v):
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
        hidden = frozenset(int(h) for h in hidden)
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
        self.names = names

    @property
    def p(self) -> int:
        return self.dag.p

    @property
    def alpha(self) -> float:
        return self.noise[0].alpha

    @property
    def observed(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.p) if j not in self.hidden)

    def node_name(self, j: int) -> str:
        return self.names[j] if self.names is not None else f"x{j}"

    def coefficient_matrix(self) -> np.ndarray:
        """B with B[child, parent] = beta, zero elsewhere."""
        b = np.zeros((self.p, self.p))
        for (parent, child), beta in self.coefficients.items():
            b[child, parent] = beta
        return b

    def __repr__(self):
        return (f"Scm(p={self.p}, edges={len(self.coefficients)}, mode={self.mode!r}, "
                f"alpha={self.alpha}, hidden={sorted(self.hidden)})")


def path_weights(scm: Scm) -> np.ndarray:
    """Exact path-weight matrix H by back-substitution along a topological order.

    ``H[j, k]`` sums the weighted directed paths k -> j; it solves (I - B) @ H = I.
    """
    p = scm.p
    h = np.zeros((p, p))
    b = scm.coefficient_matrix()
    for j in scm.dag.topological_order:
        row = np.zeros(p)
        row[j] = 1.0
        for parent in scm.dag.parents(j):
            row += b[j, parent] * h[parent]
        h[j] = row
    return h


def check_path_faithful(scm: Scm, h: np.ndarray | None = None) -> bool:
    """True when every ancestor path weight is bounded away from zero.

    Distinct directed paths with real coefficients can cancel; the population
    coefficients assume they do not.
    """
    if h is None:
        h = path_weights(scm)
    return not np.any(np.abs(h[scm.dag.ancestor_matrix]) <= FAITHFULNESS_TOL)


@dataclass(frozen=True)
class OrderValidation:
    valid: bool
    violations: tuple[tuple[int, int], ...]


def validate_order(dag: Dag, order: CausalOrder, observed_only: bool = False) -> OrderValidation:
    """Check an order against a DAG's ancestral relations.

    Without ``observed_only`` the order must cover every node. With it, the
    order may cover a subset; ancestry is still taken in the full graph, so an
    ancestor path through an uncovered node still constrains the pair.
    Returns all ancestral pairs placed backwards, as (ancestor, descendant)
    tuples sorted by descendant, then ancestor.
    """
    if any(node >= dag.p for node in order.sequence):
        raise ValidationError("order mentions nodes outside the graph")
    if not observed_only and len(order) != dag.p:
        raise ValidationError("order must cover every node (or pass observed_only=True)")
    nodes, _, backward = backward_pairs(dag, order)
    descendant, ancestor = np.nonzero(backward)
    violations = tuple(zip(nodes[ancestor].tolist(), nodes[descendant].tolist()))
    return OrderValidation(valid=not violations, violations=violations)


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
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
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

    edges = {}
    for rank in range(1, p):
        node = int(by_position[rank])
        n_parents = rng.binomial(rank, q)
        if n_parents == 0:
            continue
        candidates = by_position[:rank]
        parents = rng.choice(candidates, size=n_parents, replace=False)
        for parent in sorted(int(v) for v in parents):
            edges[(parent, node)] = _draw_coefficient(rng, config)

    hidden = []
    total = p
    if config.hidden_confounders and p >= 2:
        n_pairs = p * (p - 1) // 2
        q_conf = 2.0 / (3.0 * p - 3.0)
        n_conf = rng.binomial(n_pairs, q_conf)
        if n_conf > 0:
            chosen = np.sort(rng.choice(n_pairs, size=n_conf, replace=False))
            for i, j in zip(*_node_pairs(chosen, p)):
                conf = total
                total += 1
                hidden.append(conf)
                edges[(conf, i)] = _draw_coefficient(rng, config)
                edges[(conf, j)] = _draw_coefficient(rng, config)

    dag = Dag(total, edges.keys())
    return Scm(dag, edges, NoiseSpec("student_t", alpha), mode=config.mode, hidden=hidden)
