"""Sampling from and diagnosing regularly varying distributions.

Three noise families are provided, all with survival function behaving like
``c * x**(-alpha)`` far in the tail:

* ``student_t``: Student-t with ``alpha`` degrees of freedom (symmetric).
* ``symmetric_pareto``: two-sided Pareto supported on ``|x| >= 1`` with
  ``P(X > x) = w_up * x**(-alpha)`` and ``P(X < -x) = w_lo * x**(-alpha)``,
  where ``w_up = scale_upper / (scale_upper + scale_lower)`` and
  ``w_lo = 1 - w_up``.
* ``shifted_pareto``: one-sided Pareto on the ray
  ``[scale_upper**(1/alpha), inf)`` with ``P(X > x) = scale_upper * x**(-alpha)``,
  for experiments that need strictly positive noise.

The slowly varying part of the tail is a constant in every family, which keeps
closed-form survival values available for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import as_rng
from .errors import DomainError, ValidationError

FAMILIES = ("student_t", "symmetric_pareto", "shifted_pareto")


@dataclass(frozen=True)
class NoiseSpec:
    """Distributional description of one noise variable.

    ``alpha`` is the tail index; ``scale_upper``/``scale_lower`` are the
    upper- and lower-tail scale constants. The Student-t family is symmetric
    by construction and requires equal scales.
    """

    family: str
    alpha: float
    scale_upper: float = 1.0
    scale_lower: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown noise family {self.family!r}; expected one of {FAMILIES}")
        if not (self.alpha > 0) or not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be a positive real, got {self.alpha}")
        if not (self.scale_upper > 0 and self.scale_lower > 0):
            raise ValidationError("scale_upper and scale_lower must be positive")
        if self.family == "student_t" and self.scale_upper != self.scale_lower:
            raise ValidationError("student_t is symmetric: scale_upper must equal scale_lower")

    @property
    def symmetric(self) -> bool:
        return self.scale_upper == self.scale_lower and self.family != "shifted_pareto"


@dataclass(frozen=True)
class HillEstimate:
    alpha_hat: float
    xi_hat: float
    k: int


# Bytes per drawn value that sample_noise holds at once, the returned array
# included, rounded up (tracemalloc: 8.0 for student_t; 24.0 for
# shifted_pareto; 25.0 to 33.0 for symmetric_pareto, the most when one
# tail's weight is near 0 or 1).
_SAMPLE_BYTES_PER_ROW = {"student_t": 8, "shifted_pareto": 24, "symmetric_pareto": 34}


def sample_noise(spec: NoiseSpec, n: int, seed=None) -> np.ndarray:
    """Draw ``n`` i.i.d. values from the noise distribution ``spec``.

    Deterministic given the seed; a Generator may be passed to continue an
    existing stream.
    """
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    rng = as_rng(seed)
    if spec.family == "student_t":
        return rng.standard_t(spec.alpha, size=n)
    u = rng.random(n)
    if spec.family == "shifted_pareto":
        # 1 - u lies in (0, 1], so the inverse transform cannot overflow to inf.
        return spec.scale_upper ** (1.0 / spec.alpha) * (1.0 - u) ** (-1.0 / spec.alpha)
    # symmetric_pareto via a single-uniform inverse transform
    w_lo = spec.scale_lower / (spec.scale_lower + spec.scale_upper)
    u = np.maximum(u, 2.0 ** -53)
    out = np.empty(n)
    neg = u < w_lo
    out[neg] = -((u[neg] / w_lo) ** (-1.0 / spec.alpha))
    out[~neg] = ((1.0 - u[~neg]) / (1.0 - w_lo)) ** (-1.0 / spec.alpha)
    return out


def symmetric_pareto_survival(spec: NoiseSpec, x: float) -> float:
    """Exact P(X > x) of the symmetric_pareto family, for x >= 1."""
    if spec.family != "symmetric_pareto":
        raise ValidationError("survival formula only applies to symmetric_pareto")
    if x < 1:
        raise ValidationError("closed form holds on the support x >= 1")
    w_up = spec.scale_upper / (spec.scale_upper + spec.scale_lower)
    return w_up * x ** -spec.alpha


def hill_tail_index(data, k: int) -> HillEstimate:
    """Hill estimator of the tail index over the top ``k + 1`` order statistics.

    Returns both ``xi_hat`` (the mean log-excess) and ``alpha_hat = 1 / xi_hat``.
    Requires the largest ``k + 1`` observations to be strictly positive.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    values = np.asarray(data, dtype=float).ravel()
    if values.size < k + 1:
        raise DomainError(f"need at least k + 1 = {k + 1} observations, got {values.size}")
    top = np.sort(np.partition(values, values.size - k - 1)[-(k + 1):])
    if top[0] <= 0:
        raise DomainError("the top k + 1 order statistics must be strictly positive")
    xi = float(np.mean(np.log(top[1:] / top[0])))
    if xi == 0.0:
        raise DomainError("degenerate data: all top order statistics equal")
    return HillEstimate(alpha_hat=1.0 / xi, xi_hat=xi, k=k)


def max_sum_tail_ratio(samples, quantile_level: float) -> float:
    """Empirical P(row max > x) / P(row sum > x) at a high row-sum quantile.

    Diagnostic for max-sum equivalence of independent regularly varying
    columns; the ratio tends to 1 for heavy tails and the caller decides what
    to assert. ``samples`` is an (n, m) array of i.i.d. noise columns.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise ValidationError("samples must be a 2-D array")
    n = x.shape[0]
    if n < 1000:
        raise ValidationError(f"need at least 1000 rows, got {n}")
    if not (0.9 <= quantile_level < 1):
        raise ValidationError("quantile_level must lie in [0.9, 1)")
    row_sum = x.sum(axis=1)
    row_max = x.max(axis=1)
    threshold = np.quantile(row_sum, quantile_level)
    denom = int(np.count_nonzero(row_sum > threshold))
    if denom == 0:
        raise DomainError("degenerate threshold: no row sums exceed the quantile")
    num = int(np.count_nonzero(row_max > threshold))
    return num / denom
