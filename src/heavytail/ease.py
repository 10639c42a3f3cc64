"""Extremal ancestral search: greedy root extraction from a coefficient matrix.

At each step the score of a remaining node i is the largest coefficient into
it from the other remaining nodes; the node with the smallest score is a root
of the remaining subgraph (its score stays below 1 exactly when nothing left
still causes it) and is assigned the next position. Ties break on the
smallest node index so results are reproducible.

The scores of a step are one masked column max: the diagonal and the rows of
nodes already placed are set to -inf, so the max over each remaining column
runs over the other remaining nodes only (and is -inf for the last node). The
columns of placed nodes are then set to +inf, so argmin over all p columns
picks the smallest remaining index among the lowest scores. ease keeps only
each step's choice; ease_trace, from the same loop, also records the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import CausalOrder
from .oracle import CoefMatrix


@dataclass(frozen=True)
class EaseStep:
    remaining: tuple[int, ...]
    scores: dict[int, float]
    chosen: int


def _steps(coefs: CoefMatrix):
    """Yield (placed mask, column max, chosen node) per step.

    The mask is one array, updated in place when the next step is asked for.
    """
    values = coefs.values
    p = coefs.p
    off_diagonal = ~np.eye(p, dtype=bool)
    if not np.isfinite(values[off_diagonal]).all():
        raise ValidationError("coefficient matrix has non-finite off-diagonal entries")
    masked = np.where(off_diagonal, values, -np.inf)
    placed = np.zeros(p, dtype=bool)
    for _ in range(p):
        column_max = masked.max(axis=0)
        column_max[placed] = np.inf
        chosen = int(np.argmin(column_max))
        yield placed, column_max, chosen
        placed[chosen] = True
        masked[chosen, :] = -np.inf


def ease(coefs: CoefMatrix) -> CausalOrder:
    """Causal order recovered from a coefficient matrix."""
    return CausalOrder([chosen for _, _, chosen in _steps(coefs)])


def ease_trace(coefs: CoefMatrix) -> list[EaseStep]:
    """The same loop as :func:`ease`, keeping per-step scores for inspection."""
    steps = []
    for placed, column_max, chosen in _steps(coefs):
        remaining = np.flatnonzero(~placed).tolist()
        scores = dict(zip(remaining, column_max[remaining].tolist()))
        steps.append(EaseStep(tuple(remaining), scores, chosen))
    return steps
