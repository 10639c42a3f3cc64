"""Rank-based non-parametric causal tail coefficient estimators.

The one-tailed estimate conditioning on column j and averaging column k is

    (1/k) * sum_i ecdf_k(X[i, k]) * 1{X[i, j] > jth column's (n-k)-th order stat}

where the empirical CDF assigns maximal rank to ties and the divisor stays k.
Exceedances are strict, so at most k rows exceed the threshold; ties at the
threshold can only shrink the count below k. The two-tailed variant averages
sigma(u) = |2u - 1| over the upper exceedances of the column and of its
negation, each with weight 1 / (2k).

The estimates depend on the sample only through each column's max ranks r,
whose ECDF is r / n: every estimate, whatever its kind or k, reads them from
the Dataset's one rank array, ranked whole on first use (see heavytail.data).
Both tails are read off the rank column r: the rows above the order
statistic s[n-k-1] are those with r > n - k, less the rows tied at s[n-k]
when s[n-k-1] ties it too, and the rows below s[k], the upper exceedances of
the negated column, are those with r <= k; each is one integer comparison.
Every column's tail rows come from one selection over the rank array read
column after column (a view of its F-order memory): one flatnonzero per
tail, cut into columns at the multiples of n, gives one index array with
each conditioning column's tail rows in turn. The matrix gathers the ranks
of all averaged columns at those rows, a block of conditioning columns at a
time; a single pair selects from its one conditioning column the same way.
Only the gathered ranks are divided by n, in float64, which gives exactly
the ECDF values fl(r / n), and psi's |2u - 1| is applied to each gathered
block.

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

from .data import KINDS, CoefMatrix, Dataset, ecdf_from_ranks, rank_kernel
from .errors import ConfigError, ValidationError, check_bytes

# Weights _tail_sums gathers at a time: its scratch memory stays bounded
# whatever p and k are.
_BLOCK_ELEMENTS = 1 << 16
# Bytes per p**2 that coefficient_matrix holds at its peak: _tail_sums' sums
# and their quotient by the divisor, two float64 p x p arrays (tracemalloc,
# both kinds, n = 3, 20 and 200: 16.3 to 17.6 bytes per p**2 at p = 1000 and
# 2000). The ranks and the tail rows scale with the n x p sample the caller
# already holds, and the block scratch is bounded, so only this term is checked.
_MATRIX_BYTES_PER_ENTRY = 16


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
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")


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


def ecdf_values(column: np.ndarray) -> np.ndarray:
    """Empirical CDF of a column evaluated at its own entries (max rank on ties)."""
    column = np.asarray(column, dtype=float)
    return ecdf_from_ranks(rank_kernel(column), column.size)


def _exceedance_rows(ranks: np.ndarray, k: int, psi: bool) -> tuple[np.ndarray, np.ndarray]:
    """Tail rows of every column of the n x m max ranks, as (rows, bounds).

    Column c's tail rows are rows[bounds[c]:bounds[c + 1]]. Its upper rows
    are those strictly above the order statistic s[n-k-1]: the rows with
    r > n - k hold the k or more entries >= s[n-k], and when they are more
    than k, s[n-k-1] ties s[n-k], so the rows at their smallest r are
    dropped. For psi they are followed by the lower rows, those strictly
    below s[k], i.e. with r <= k. Ties are included either way. Each tail is
    one selection over the ranks laid out column after column (a view of the
    F-order rank array), cut into columns at the multiples of n.
    """
    n, m = ranks.shape
    columns = ranks.T.ravel()
    starts = np.arange(m + 1) * n
    upper = np.flatnonzero(columns > n - k)
    bounds = np.searchsorted(upper, starts)
    sizes = np.diff(bounds)
    if sizes.max() > k:
        # no column has fewer than k upper rows, so no slice is empty
        top = columns[upper]
        tied = top == np.repeat(np.minimum.reduceat(top, bounds[:-1]), sizes)
        tied &= np.repeat(sizes > k, sizes)
        upper = upper[~tied]
        bounds = np.searchsorted(upper, starts)
        sizes = np.diff(bounds)
    if not psi:
        return upper - np.repeat(starts[:-1], sizes), bounds
    lower = np.flatnonzero(columns <= k)
    lower_bounds = np.searchsorted(lower, starts)
    lower_sizes = np.diff(lower_bounds)
    # column c's upper rows go to bounds[c] + lower_bounds[c] onwards, its lower rows after them
    rows = np.empty(upper.size + lower.size, dtype=np.intp)
    rows[np.arange(upper.size) + np.repeat(lower_bounds[:-1], sizes)] = (
        upper - np.repeat(starts[:-1], sizes))
    rows[np.arange(lower.size) + np.repeat(bounds[1:], lower_sizes)] = (
        lower - np.repeat(starts[:-1], lower_sizes))
    return rows, bounds + lower_bounds


def _tail_sums(ranks: np.ndarray, rows: np.ndarray, bounds, divisor: int,
               psi: bool = False) -> np.ndarray:
    """Correctly rounded sums of the ECDF at ranks[rows] over consecutive row slices, over divisor.

    ``ranks`` is n x m, max ranks in 0..n, so each weight r / n lies in
    [0, 1]; entry [i, c] of the result sums column c over
    rows[bounds[i]:bounds[i + 1]]. With ``psi`` each gathered weight u counts
    as |2u - 1| instead. Rows are gathered for blocks of slices holding at
    most _BLOCK_ELEMENTS weights (a longer slice is gathered alone), and each
    block is summed exactly by _slice_sums.
    """
    bounds = np.asarray(bounds)
    sizes = np.diff(bounds)
    m = ranks.shape[1]
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
            block = ecdf_from_ranks(ranks[rows[bounds[a]:bounds[b]]], ranks.shape[0])
            if psi:
                block *= 2.0
                block -= 1.0
                np.abs(block, out=block)
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
    if not (0 <= j < data.p and 0 <= k_col < data.p):
        raise ValidationError(f"columns ({j}, {k_col}) out of range for p={data.p}")
    k = resolve_k(data.n, config)
    ranks = data.ranks()
    rows, bounds = _exceedance_rows(ranks[:, j:j + 1], k, psi)
    sums = _tail_sums(ranks[:, k_col:k_col + 1], rows, bounds, 2 * k if psi else k, psi)
    return float(sums[0, 0])


def gamma_estimate(data: Dataset, j: int, k_col: int, config: EstimatorConfig) -> float:
    """One-tailed coefficient estimate conditioning on column j, averaging column k_col."""
    return _pair_estimate(data, j, k_col, config, psi=False)


def psi_estimate(data: Dataset, j: int, k_col: int, config: EstimatorConfig) -> float:
    """Two-tailed coefficient estimate; the lower tail is the upper tail of -X_j."""
    return _pair_estimate(data, j, k_col, config, psi=True)


def coefficient_matrix(data: Dataset, config: EstimatorConfig) -> CoefMatrix:
    """All ordered off-diagonal coefficient estimates.

    The Dataset's ranks are reused across the p * (p - 1) pairs;
    entry [j, k] conditions on column j and averages column k. Raises
    CapacityError, before anything is allocated, if the p x p estimate
    would exceed the memory cap.
    """
    if data.p < 2:
        raise ValidationError("coefficient estimation needs at least two columns")
    check_bytes(_MATRIX_BYTES_PER_ENTRY * data.p ** 2,
                f"a {data.p} x {data.p} coefficient matrix")
    k = resolve_k(data.n, config)
    psi = config.kind == "psi"
    ranks = data.ranks()
    rows, bounds = _exceedance_rows(ranks, k, psi)
    values = _tail_sums(ranks, rows, bounds, 2 * k if psi else k, psi)
    np.fill_diagonal(values, np.nan)
    return CoefMatrix(values, config.kind, data.names, estimated=True)
