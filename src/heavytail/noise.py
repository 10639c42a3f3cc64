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

The slowly varying part of the tail is a constant in every family.
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


@dataclass(frozen=True)
class HillEstimate:
    alpha_hat: float
    xi_hat: float
    k: int


# Bytes per drawn value that sample_noise holds at once, the returned array
# included (tracemalloc: 8.0 for student_t and shifted_pareto; 9.0 for
# symmetric_pareto, whose tail mask is one byte a value).
SAMPLE_BYTES_PER_VALUE = {"student_t": 8, "shifted_pareto": 8, "symmetric_pareto": 9}


def sample_noise(spec: NoiseSpec, n: int, seed=None, *, columns: int | None = None) -> np.ndarray:
    """Draw ``n`` i.i.d. values from the noise distribution ``spec``.

    Deterministic given the seed; a Generator may be passed to continue an
    existing stream. With ``columns`` the result is a column-major
    ``n x columns`` array whose columns are consecutive draws of ``n``: bit
    for bit what ``columns`` successive calls would return.
    """
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    if columns is not None and columns < 1:
        raise ValidationError(f"columns must be >= 1, got {columns}")
    rng = as_rng(seed)
    # a C-order (columns, n) draw transposed is the F-order n x columns array
    size = n if columns is None else (columns, n)
    if spec.family == "student_t":
        x = rng.standard_t(spec.alpha, size=size)
    else:
        x = rng.random(size)
        with np.errstate(over="ignore"):  # a tiny alpha overflows to inf; a Dataset refuses it
            _pareto_from_uniform(spec, x)
    return x if columns is None else x.T


def _pareto_from_uniform(spec: NoiseSpec, u: np.ndarray) -> None:
    """Inverse-transform uniforms into the spec's Pareto family, in place.

    Every value goes through the same IEEE operations as in the textbook form
    (one uniform each, no gathered halves), so only a one-byte tail mask is
    held besides ``u``.
    """
    e = -1.0 / spec.alpha
    if spec.family == "shifted_pareto":
        # 1 - u lies in (0, 1], so (1 - u)**e is at least 1, or inf if it overflows;
        # the scale may overflow too, and a numpy power gives inf where a float power raises
        np.subtract(1.0, u, out=u)
        u **= e
        u *= np.float64(spec.scale_upper) ** (1.0 / spec.alpha)
        return
    # symmetric_pareto: -(u / w_lo)**e below w_lo, ((1 - u) / (1 - w_lo))**e above
    w_lo = spec.scale_lower / (spec.scale_lower + spec.scale_upper)
    np.maximum(u, 2.0 ** -53, out=u)
    lower = u < w_lo
    np.divide(u, w_lo, out=u, where=lower)
    np.invert(lower, out=lower)
    np.subtract(1.0, u, out=u, where=lower)
    np.divide(u, 1.0 - w_lo, out=u, where=lower)
    u **= e
    np.invert(lower, out=lower)
    np.negative(u, out=u, where=lower)


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
