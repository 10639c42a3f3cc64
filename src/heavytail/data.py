"""The data layer: a Dataset, the max ranks of its columns, and a CoefMatrix.

A sample and a causal tail coefficient matrix are the two values the method
passes between its stages; the matrix is estimated from a Dataset or
computed in closed form from an SCM, and its kind is one of KINDS.

A Dataset is ranked whole, once: the first call to Dataset.ranks ranks
every column into one read-only n x p array, which every later caller reads.
The ranks are stored in np.min_scalar_type(n), the narrowest unsigned
integer that holds n (uint8 up to n = 255, uint16 up to 65535, then uint32),
so the array costs 1, 2 or 4 bytes per entry and is held as long as the
Dataset is, once it has been ranked.

heavytail runs at most one helper thread at a time: the draw-ahead worker of
a multi-replicate grid (simulate._DrawWindow), or the short-lived worker that
takes half of a wide sample's ranks or tail sums (:func:`in_two`), never
both. Whoever starts one holds HELPER_LOCK until it is joined; the lock is
only ever taken without blocking, so work that cannot get it runs on the
calling thread. Which thread does what changes no output.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer

KINDS = ("gamma", "psi")

# Columns of n 8-byte values that rank_kernel's scratch can reach at once,
# rounded up: the argsort order and the sorted copy, the tie mask and one run
# of ranks in the rank dtype, under 5 bytes per row at n < 2**32
# (tracemalloc read 2.63 columns, on tied and on tie-free columns).
_RANK_SCRATCH_COLUMNS = 3

HELPER_LOCK = threading.Lock()
# Fewest values to rank, or weights to gather, for work to be split in two:
# below it the worker's start and join cost about what it saves.
SPLIT_MIN_VALUES = 1 << 18
# Fewest columns a sample must have for its ranks to be split: the second
# rank scratch, _RANK_SCRATCH_COLUMNS float64 columns, then costs at most a
# sixteenth of what the sample's values already hold.
SPLIT_MIN_COLUMNS = 48


class Dataset:
    """Immutable n x p numeric sample with named columns.

    Its max ranks are computed on first use, every column at once, and kept
    (see ``ranks``).
    """

    def __init__(self, names, values):
        self._init(names, np.array(values, dtype=float))

    @classmethod
    def adopt(cls, names, values: np.ndarray) -> "Dataset":
        """A Dataset over the float64 array ``values`` itself, not a copy of it.

        The caller hands the array over: it is made read-only here and must
        not be written through any other reference.
        """
        data = cls.__new__(cls)
        data._init(names, values)
        return data

    def _init(self, names, values: np.ndarray) -> None:
        if values.ndim != 2:
            raise ValidationError("values must be a 2-D array")
        if values.shape[0] < 1:
            raise ValidationError("dataset needs at least one observation")
        # min and max propagate NaN and +-inf, and unlike an isfinite mask
        # allocate nothing
        if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValidationError("dataset contains non-finite entries")
        names = tuple(str(s) for s in names)
        if len(names) != values.shape[1]:
            raise ValidationError(f"{len(names)} names for {values.shape[1]} columns")
        if len(set(names)) != len(names):
            raise ValidationError("column names must be unique")
        values.setflags(write=False)
        self.names = names
        self.values = values
        self._ranks = None  # n x p, F-order, read-only, once ranked

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        if not (0 <= integer(j, "column") < self.p):
            raise ValidationError(f"column {j} out of range for p={self.p}")
        return self.values[:, j]

    def ranks(self) -> np.ndarray:
        """The read-only n x p max ranks of every column, of dtype _rank_dtype(n).

        The first call ranks the columns; every later call returns that array.
        """
        if self._ranks is None:
            ranks = np.empty((self.n, self.p), _rank_dtype(self.n), order="F")

            def rank(columns):
                for j in columns:
                    rank_kernel(self.values[:, j], ranks[:, j])

            if _splits_ranks(self.n, self.p):
                in_two(rank, range(self.p // 2), range(self.p // 2, self.p))
            else:
                rank(range(self.p))
            ranks.setflags(write=False)
            self._ranks = ranks
        return self._ranks

    def ecdf_dataset(self) -> "Dataset":
        """A Dataset whose values are this one's ECDF r / n, ranked already.

        r / n is strictly increasing in r, so the max ranks of the ECDF
        columns are the ranks of this Dataset's columns: the one rank array
        serves both Datasets and nothing is ranked twice.
        """
        ranks = self.ranks()
        ranked = Dataset.adopt(self.names, ecdf_from_ranks(ranks, self.n))
        ranked._ranks = ranks
        return ranked

    def column_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"no column named {name!r}") from None

    def __repr__(self):
        return f"Dataset(n={self.n}, p={self.p}, names={self.names})"


@dataclass(frozen=True)
class CoefMatrix:
    """p x p causal tail coefficient matrix; the diagonal is undefined (NaN).

    ``estimated`` marks sample estimates, whose entries never hit the exact
    population anchors; it widens the default classification tolerance.
    """

    values: np.ndarray
    kind: str
    names: tuple[str, ...] | None = None
    estimated: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError("coefficient matrix must be square")
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.names is not None and len(self.names) != v.shape[0]:
            raise ValidationError("names must match the matrix dimension")
        if self.names is not None and len(set(self.names)) != len(self.names):
            raise ValidationError("matrix repeats names")
        object.__setattr__(self, "values", v)

    @property
    def p(self) -> int:
        return self.values.shape[0]


def in_two(work, first, second) -> None:
    """``work(first)`` and ``work(second)``, the second on a worker thread if the helper is free.

    The worker is a one-thread executor started here and joined before this
    returns, also when either half raises; an exception of the worker's
    half is raised here. If HELPER_LOCK is taken, both halves run on the
    calling thread, in turn.
    """
    if not HELPER_LOCK.acquire(blocking=False):
        work(first)
        work(second)
        return
    try:
        import concurrent.futures  # only a split needs it

        with concurrent.futures.ThreadPoolExecutor(1, "heavytail-split") as worker:
            half = worker.submit(work, second)
            work(first)
            half.result()
    finally:
        HELPER_LOCK.release()


def _splits_ranks(n: int, p: int) -> bool:
    """Whether Dataset.ranks ranks an n x p sample on two threads, when the helper is free."""
    return p >= SPLIT_MIN_COLUMNS and n * p >= SPLIT_MIN_VALUES


def ranking_bytes(n: int, p: int, ecdf: bool) -> int:
    """Bytes an n x p Dataset holds at once while all its columns are ranked.

    That is its float64 values, its rank array, and the larger of the rank
    kernels' scratch (one per thread that ranks: two when the sample is
    wide and large enough to split) and, with ``ecdf``, the values of its
    ecdf_dataset.
    """
    threads = 2 if _splits_ranks(n, p) else 1
    scratch = max(threads * _RANK_SCRATCH_COLUMNS, p if ecdf else 0)
    return n * ((8 + _rank_dtype(n).itemsize) * p + 8 * scratch)


def _rank_dtype(n: int) -> np.dtype:
    """The dtype of the max ranks of n rows: the narrowest unsigned integer that holds n."""
    return np.min_scalar_type(n)


def rank_kernel(column: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max ranks of a column's entries (1..n; ties share the largest), from one sort.

    Without ties (and NaN) the ranks are 1..n in sort order. Otherwise the
    rank of a sorted entry is one past the end of its run of equal values:
    each run's end holds its own rank, every other entry n, and a running
    minimum from the right carries the end's rank back over its run. Written
    to ``out`` (an integer array that holds n) if given, else to a new array
    of _rank_dtype(n).
    """
    n = column.size
    ranks = np.empty(n, _rank_dtype(n)) if out is None else out
    order = np.argsort(column)
    s = column[order]
    tied = s[1:] == s[:-1]
    if n and s[-1] != s[-1]:
        # NaNs sort last and form one run, as searchsorted ranks them
        tied[np.argmax(s != s):] = True
    elif not tied.any():
        ranks[order] = np.arange(1, n + 1, dtype=ranks.dtype)
        return ranks
    del s
    run = np.arange(1, n + 1, dtype=ranks.dtype)
    run[:-1][tied] = n
    np.minimum.accumulate(run[::-1], out=run[::-1])
    ranks[order] = run
    return ranks


def ecdf_from_ranks(ranks: np.ndarray, n: int) -> np.ndarray:
    """The ECDF r / n of max ranks r among n rows, as float64.

    The ranks are converted to float64 (exactly) before the division,
    whatever their dtype or numpy's casting rules, so each value is exactly
    fl(r / n); converting with astype and dividing in place also spares the
    ufunc its casting buffer.
    """
    u = ranks.astype(np.float64)
    u /= n
    return u
