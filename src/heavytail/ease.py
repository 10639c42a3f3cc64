"""Extremal ancestral search: greedy root extraction from a coefficient matrix.

At each step the score of a remaining node i is the largest coefficient into
it from the other remaining nodes; the node with the smallest score is a root
of the remaining subgraph (its score stays below 1 exactly when nothing left
still causes it) and is assigned the next position. Ties break on the
smallest node index so results are reproducible.

The scores of a step are one masked column max: the diagonal and the rows of
nodes already placed are set to -inf, so the max over each remaining column
runs over the other remaining nodes only (and is -inf for the last node). One
extra penalty row holds +inf under the columns of placed nodes and -inf
elsewhere, so the same max is +inf on placed columns, and argmin over all p
columns picks the smallest remaining index among the lowest scores. ease
keeps only each step's choice; ease_trace, from the same loop, also records
the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CoefMatrix
from .errors import ValidationError
from .graph import CausalOrder


@dataclass(frozen=True)
class EaseStep:
    remaining: tuple[int, ...]
    scores: dict[int, float]
    chosen: int


def _steps(coefs: CoefMatrix):
    """Yield (column max, chosen node) per step; placed nodes' columns hold +inf.

    ``masked`` holds the coefficients, -inf on the diagonal and in the rows of
    placed nodes, over one penalty row that is -inf but +inf under each
    placed node's column: a step is one column max and one argmin. The column
    max is a new array each step.
    """
    p = coefs.p
    masked = np.empty((p + 1, p))
    penalty = masked[p]
    masked[:p] = coefs.values
    np.fill_diagonal(masked, 0.0)
    # min and max propagate NaN and +-inf, and unlike an isfinite mask allocate nothing
    if not (np.isfinite(masked[:p].min()) and np.isfinite(masked[:p].max())):
        raise ValidationError("coefficient matrix has non-finite off-diagonal entries")
    np.fill_diagonal(masked, -np.inf)
    penalty[:] = -np.inf
    for _ in range(p):
        column_max = masked.max(axis=0)
        chosen = int(np.argmin(column_max))
        yield column_max, chosen
        masked[chosen] = -np.inf
        penalty[chosen] = np.inf


def ease(coefs: CoefMatrix) -> CausalOrder:
    """Causal order recovered from a coefficient matrix."""
    return CausalOrder([chosen for _, chosen in _steps(coefs)])


def ease_trace(coefs: CoefMatrix) -> list[EaseStep]:
    """The same loop as :func:`ease`, keeping per-step scores for inspection."""
    steps = []
    for column_max, chosen in _steps(coefs):
        remaining = np.flatnonzero(column_max < np.inf).tolist()
        scores = dict(zip(remaining, column_max[remaining].tolist()))
        steps.append(EaseStep(tuple(remaining), scores, chosen))
    return steps
