"""Rank-based non-parametric causal tail coefficient estimators.

The one-tailed estimate conditioning on column j and averaging column k is

    (1/k) * sum_i ecdf_k(X[i, k]) * 1{X[i, j] > jth column's (n-k)-th order stat}

where the empirical CDF assigns maximal rank to ties and the divisor stays k
even if ties at the threshold inflate the exceedance count. The two-tailed
variant averages sigma(u) = |2u - 1| over the upper exceedances of the column
and of its negation, each with weight 1 / (2k).

Each column is sorted once. Max ranks come from the run lengths of equal
values in the sorted column, and the upper and lower tail rows are the rows
sorted above s[n-k-1] and below s[k]; the latter are the upper exceedances of
the negated column. The matrix gathers every conditioning column's tail rows
into one index array, so each averaged column's weights are gathered once and
summed slice by slice.

Sums of contributions are accumulated with math.fsum (correctly rounded), so
estimates are bit-identical under row permutations and under strictly
increasing transforms of the columns, and do not depend on the order in which
tail rows are visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .oracle import CoefMatrix


class Dataset:
    """Immutable n x p numeric sample with named columns."""

    def __init__(self, names, values):
        values = np.array(values, dtype=float)
        if values.ndim != 2:
            raise ValidationError("values must be a 2-D array")
        if values.shape[0] < 1:
            raise ValidationError("dataset needs at least one observation")
        if not np.isfinite(values).all():
            raise ValidationError("dataset contains non-finite entries")
        names = tuple(str(s) for s in names)
        if len(names) != values.shape[1]:
            raise ValidationError(f"{len(names)} names for {values.shape[1]} columns")
        if len(set(names)) != len(names):
            raise ValidationError("column names must be unique")
        values.setflags(write=False)
        self.names = names
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        if not (0 <= j < self.p):
            raise ValidationError(f"column {j} out of range for p={self.p}")
        return self.values[:, j]

    def column_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"no column named {name!r}") from None

    def __repr__(self):
        return f"Dataset(n={self.n}, p={self.p}, names={self.names})"


@dataclass(frozen=True)
class EstimatorConfig:
    """Exceedance count selection and coefficient kind.

    Exactly one of ``k`` (explicit) or ``k_exponent`` (k = floor(n**e)) is
    used; the exponent path defaults to 0.4 and clamps into [1, n - 1].
    """

    k: int | None = None
    k_exponent: float | None = None
    kind: str = "gamma"

    def __post_init__(self):
        if self.k is not None and self.k_exponent is not None:
            raise ConfigError("give either an explicit k or an exponent, not both")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.k_exponent is not None and not (0 < self.k_exponent < 1):
            raise ConfigError(f"k_exponent must lie in (0, 1), got {self.k_exponent}")
        if self.kind not in ("gamma", "psi"):
            raise ConfigError(f"kind must be 'gamma' or 'psi', got {self.kind!r}")


def resolve_k(n: int, config: EstimatorConfig) -> int:
    """Concrete exceedance count for a sample of size n."""
    if n < 2:
        raise ValidationError(f"need n >= 2 to estimate, got {n}")
    if config.k is not None:
        if config.k > n - 1:
            raise ConfigError(f"k={config.k} out of range for n={n} (need k <= n - 1)")
        return config.k
    exponent = config.k_exponent if config.k_exponent is not None else 0.4
    return min(max(int(math.floor(n ** exponent)), 1), n - 1)


def _rank_kernel(column: np.ndarray, k: int | None = None):
    """One sort of a column: its ECDF and, given k, its upper and lower tail rows.

    The ECDF is the max rank over n. The upper tail rows are those strictly
    above the (n - k)-th order statistic s[n-k-1]; the lower tail rows those
    strictly below s[k], which is the upper tail of the negated column.
    Without k both are None.
    """
    n = column.size
    order = np.argsort(column)
    s = column[order]
    boundary = s[1:] != s[:-1]
    if n and s[-1] != s[-1]:
        # NaNs sort last and form one run, as searchsorted ranks them
        boundary[np.argmax(s != s):] = False
    run_ends = np.append(np.flatnonzero(boundary), n - 1)
    cdf = np.empty(n)
    cdf[order] = np.repeat(run_ends + 1, np.diff(run_ends, prepend=-1)) / n
    if k is None:
        return cdf, None, None
    upper = order[np.searchsorted(s, s[n - k - 1], "right"):].copy()
    lower = order[:np.searchsorted(s, s[k], "left")].copy()
    return cdf, upper, lower


def ecdf_values(column: np.ndarray) -> np.ndarray:
    """Empirical CDF of a column evaluated at its own entries (max rank on ties)."""
    return _rank_kernel(np.asarray(column, dtype=float))[0]


def empirical_cdf_column(data: Dataset, j: int) -> np.ndarray:
    return ecdf_values(data.column(j))


def _weights(cdf: np.ndarray, psi: bool) -> np.ndarray:
    """Per-row contribution of an averaged column: u, or sigma(u) = |2u - 1|."""
    return np.abs(2.0 * cdf - 1.0) if psi else cdf


def _tail_rows(upper: np.ndarray, lower: np.ndarray, psi: bool) -> np.ndarray:
    """Rows a conditioning column selects: upper exceedances, and lower ones for psi."""
    return np.concatenate([upper, lower]) if psi else upper


def _tail_sums(weights: np.ndarray, rows: np.ndarray, bounds: list[int],
               divisor: int) -> list[float]:
    """Correctly rounded sums of weights[rows] over consecutive slices, over divisor."""
    gathered = weights[rows].tolist()
    return [math.fsum(gathered[a:b]) / divisor for a, b in zip(bounds, bounds[1:])]


def _pair_estimate(data: Dataset, j: int, k_col: int, config: EstimatorConfig,
                   psi: bool) -> float:
    if j == k_col:
        raise ValidationError("conditioning and averaged columns must differ")
    k = resolve_k(data.n, config)
    cdf, _, _ = _rank_kernel(data.column(k_col))
    _, upper, lower = _rank_kernel(data.column(j), k)
    rows = _tail_rows(upper, lower, psi)
    return _tail_sums(_weights(cdf, psi), rows, [0, rows.size], 2 * k if psi else k)[0]


def gamma_estimate(data: Dataset, j: int, k_col: int, config: EstimatorConfig) -> float:
    """One-tailed coefficient estimate conditioning on column j, averaging column k_col."""
    return _pair_estimate(data, j, k_col, config, psi=False)


def psi_estimate(data: Dataset, j: int, k_col: int, config: EstimatorConfig) -> float:
    """Two-tailed coefficient estimate; the lower tail is the upper tail of -X_j."""
    return _pair_estimate(data, j, k_col, config, psi=True)


def coefficient_matrix(data: Dataset, config: EstimatorConfig) -> CoefMatrix:
    """All ordered off-diagonal coefficient estimates.

    Each column is ranked once and reused across the p * (p - 1) pairs;
    entry [j, k] conditions on column j and averages column k.
    """
    if data.p < 2:
        raise ValidationError("coefficient estimation needs at least two columns")
    k = resolve_k(data.n, config)
    psi = config.kind == "psi"
    weights, tails = [], []
    for c in range(data.p):
        cdf, upper, lower = _rank_kernel(data.column(c), k)
        weights.append(_weights(cdf, psi))
        tails.append(_tail_rows(upper, lower, psi))
    rows = np.concatenate(tails)
    bounds = np.cumsum([0] + [t.size for t in tails]).tolist()
    values = np.empty((data.p, data.p))
    for c, w in enumerate(weights):
        values[:, c] = _tail_sums(w, rows, bounds, 2 * k if psi else k)
    np.fill_diagonal(values, np.nan)
    return CoefMatrix(values, config.kind, data.names, estimated=True)
