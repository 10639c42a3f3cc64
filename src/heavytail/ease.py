"""Extremal ancestral search: greedy root extraction from a coefficient matrix.

At each step the score of a remaining node i is the largest coefficient into
it from the other remaining nodes; the node with the smallest score is a root
of the remaining subgraph (its score stays below 1 exactly when nothing left
still causes it) and is assigned the next position. Ties break on the
smallest node index so results are reproducible.

The scores of a step are one masked column max: the diagonal and the rows of
nodes already placed are set to -inf, so the max over each remaining column
runs over the other remaining nodes only (and is -inf for the last node).
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
    values = coefs.values
    p = coefs.p
    off_diagonal = ~np.eye(p, dtype=bool)
    if not np.isfinite(values[off_diagonal]).all():
        raise ValidationError("coefficient matrix has non-finite off-diagonal entries")
    masked = np.where(off_diagonal, values, -np.inf)
    remaining = list(range(p))
    while remaining:
        # remaining stays ascending, so argmin's first minimum is the smallest index
        column_max = masked.max(axis=0)[remaining]
        chosen = remaining[int(np.argmin(column_max))]
        yield EaseStep(tuple(remaining), dict(zip(remaining, column_max.tolist())), chosen)
        remaining.remove(chosen)
        masked[chosen, :] = -np.inf


def ease(coefs: CoefMatrix) -> CausalOrder:
    """Causal order recovered from a coefficient matrix."""
    return CausalOrder([step.chosen for step in _steps(coefs)])


def ease_trace(coefs: CoefMatrix) -> list[EaseStep]:
    """The same loop as :func:`ease`, keeping per-step scores for inspection."""
    return list(_steps(coefs))
