"""Seed handling shared by all randomized operations.

Every public operation takes a ``seed`` that may be an int, a
numpy SeedSequence, or an already-constructed Generator. Derived seeds for
replicate streams are built from integer key tuples so that results do not
depend on evaluation order or thread schedule.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ValidationError


def as_rng(seed) -> np.random.Generator:
    """Return a Generator for any accepted seed form."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        if seed is not None and seed < 0:
            raise ValidationError("seed must be non-negative")
        return np.random.default_rng(seed)
    raise ValidationError(f"unsupported seed type: {type(seed).__name__}")


# The largest float key part whose scaling to micro-units stays finite.
FLOAT_KEY_MAX = math.nextafter(sys.float_info.max / 1_000_000, 0.0)


def derived_seed(*parts) -> np.random.SeedSequence:
    """Deterministic SeedSequence from integer key parts.

    Floats up to FLOAT_KEY_MAX are admitted as keys by scaling to micro-units,
    so a grid cell (seed, n, p, alpha, rep) always maps to the same stream.
    """
    entropy = []
    for part in parts:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part))
        elif isinstance(part, float):
            if not abs(part) <= FLOAT_KEY_MAX:
                raise ValidationError(f"seed key floats must be at most {FLOAT_KEY_MAX}, got {part}")
            entropy.append(int(round(part * 1_000_000)))
        else:
            raise ValidationError(f"seed key parts must be numeric, got {type(part).__name__}")
        if entropy[-1] < 0:
            raise ValidationError("seed key parts must be non-negative")
    return np.random.SeedSequence(entropy)
