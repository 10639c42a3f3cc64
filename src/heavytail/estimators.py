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
the negated column. The matrix concatenates every conditioning column's tail
rows into one index array and gathers the weights of all averaged columns at
those rows, a block of conditioning columns at a time.

Sums are exact: every weight is an integer multiple of a power of two, so
cutting the weights into limbs narrow enough that no slice's limb sum reaches
2**53 makes each limb sum exact in float64, in any order. The limb sums are
added with one correctly rounded float add (math.fsum when there are more
than two limbs) and only then divided by k or 2k. Estimates are therefore the
correctly rounded sums, bit-identical under row permutations and under
strictly increasing transforms of the columns, and do not depend on the order
in which tail rows are visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .oracle import CoefMatrix

# Weights _tail_sums gathers at a time: its scratch memory stays bounded
# whatever p and k are.
_BLOCK_ELEMENTS = 1 << 16


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


def _tail_sums(weights: np.ndarray, rows: np.ndarray, bounds, divisor: int) -> np.ndarray:
    """Correctly rounded sums of weights[rows] over consecutive row slices, over divisor.

    ``weights`` is n x m with entries in [0, 1]; entry [i, c] of the result
    sums column c over rows[bounds[i]:bounds[i + 1]]. Rows are gathered for
    blocks of slices holding at most _BLOCK_ELEMENTS weights (a longer slice
    is gathered alone), and each block is summed exactly by _slice_sums.
    """
    bounds = np.asarray(bounds)
    sizes = np.diff(bounds)
    m = weights.shape[1]
    out = np.zeros((sizes.size, m))
    limit = max(_BLOCK_ELEMENTS // m, 1)  # rows per block
    longest = int(sizes.max(initial=0))
    scratch = np.empty(m * min(int(bounds[-1]), max(limit, longest)))
    a = 0
    while a < sizes.size:
        b = max(int(np.searchsorted(bounds, bounds[a] + limit, "right")) - 1, a + 1)
        # reduceat would give an empty slice the row after it, so only the
        # nonempty slices are summed; the others keep their zero sum
        filled = a + np.flatnonzero(sizes[a:b])
        if filled.size:
            block = weights[rows[bounds[a]:bounds[b]]]
            whole = scratch[:block.size].reshape(block.shape)
            out[filled] = _slice_sums(block, whole, bounds[filled] - bounds[a],
                                      int(sizes[filled].max()))
        a = b
    return out / divisor


def _slice_sums(block: np.ndarray, whole: np.ndarray, starts: np.ndarray,
                longest: int) -> np.ndarray:
    """Correctly rounded column sums of block[starts[i]:starts[i + 1]] (the last to the end).

    Entries lie in [0, 1]; no slice is empty or longer than ``longest``. Every
    entry is an integer multiple of 2**unit, unit being the smallest nonzero
    entry's exponent minus 53 (and at least -1074). Cut at multiples of
    2**shift into limbs of width = 53 - longest.bit_length() bits, no slice's
    limb sum reaches 2**53, so each is exact whatever the summation order.
    The limb sums are scaled back exactly and their total is rounded once:
    one float add for two limbs, else math.fsum. ``block`` and the scratch
    array ``whole`` (same shape) are overwritten.
    """
    np.equal(block, 0.0, out=whole)
    whole += block  # zeros become 1, which leaves the smallest nonzero entry the minimum
    unit = max(math.frexp(whole.min())[1] - 53, -1074)
    width = 53 - longest.bit_length()
    shifts = list(range(unit + width, 1, width))[::-1]  # top down, the top limb holds 1
    block *= 2.0 ** -shifts[0]
    parts = []
    for level, shift in enumerate(shifts):
        if level:
            block *= 2.0 ** width
        np.floor(block, out=whole)
        block -= whole
        parts.append(np.ldexp(np.add.reduceat(whole, starts), shift))
    parts.append(np.ldexp(np.add.reduceat(block, starts), shifts[-1]))
    if len(parts) == 2:
        return parts[0] + parts[1]
    return np.array([math.fsum(t) for t in zip(*(q.ravel() for q in parts))]).reshape(
        parts[0].shape)


def _pair_estimate(data: Dataset, j: int, k_col: int, config: EstimatorConfig,
                   psi: bool) -> float:
    if j == k_col:
        raise ValidationError("conditioning and averaged columns must differ")
    k = resolve_k(data.n, config)
    cdf, _, _ = _rank_kernel(data.column(k_col))
    _, upper, lower = _rank_kernel(data.column(j), k)
    rows = _tail_rows(upper, lower, psi)
    weights = _weights(cdf, psi)[:, None]
    return float(_tail_sums(weights, rows, [0, rows.size], 2 * k if psi else k)[0, 0])


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
    weights = np.empty((data.n, data.p), order="F")
    tails = []
    for c in range(data.p):
        cdf, upper, lower = _rank_kernel(data.column(c), k)
        weights[:, c] = _weights(cdf, psi)
        tails.append(_tail_rows(upper, lower, psi))
    bounds = np.cumsum([0] + [t.size for t in tails])
    values = _tail_sums(weights, np.concatenate(tails), bounds, 2 * k if psi else k)
    np.fill_diagonal(values, np.nan)
    return CoefMatrix(values, config.kind, data.names, estimated=True)
