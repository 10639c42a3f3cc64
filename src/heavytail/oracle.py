"""Closed-form population causal tail coefficient matrices.

For a heavy-tailed linear SCM, the coefficient conditioning on node j being
extreme and averaging node k's rescaled margin is

    gamma[j, k] = 1/2 + 1/2 * sum_{h in An(j) & An(k)} w[j, h]
                              / sum_{h in An(j)} w[j, h]

with weights ``w[j, h] = beta(h -> j) ** alpha``. The two-tailed variant adds
the upper and lower tails with weight 1/4 each, using ``|beta| ** alpha``
scaled by the noise tail constants, flipped according to the path-weight sign.
These matrices are the exact ground truth every estimator is tested against.
"""

from __future__ import annotations

import numpy as np

from .data import KINDS, CoefMatrix
from .errors import DomainError, ModeError, ValidationError, check_bytes
from .graph import POSITIVE, Scm, check_path_faithful, path_weights

I_CAUSES_J = "i_causes_j"
J_CAUSES_I = "j_causes_i"
COMMON_CAUSE = "common_cause"
NO_CAUSAL_LINK = "no_causal_link"
INDETERMINATE = "indeterminate"

# p x p float64 arrays a population matrix holds at its peak, rounded up: the
# traced peak at p=600 is 9.5 such arrays for psi_population and 5.1 for
# gamma_population.
_PEAK_ARRAYS = 10


def check_capacity(p: int) -> None:
    """Raise CapacityError if the population matrices of p nodes would exceed the cap."""
    check_bytes(8 * _PEAK_ARRAYS * p * p, f"the population matrix of {p} nodes")


def _population_matrix(values: np.ndarray, kind: str, scm: Scm, *weight_sums) -> CoefMatrix:
    """The CoefMatrix of ``values``, its diagonal NaN; DomainError if anything overflowed.

    A row whose weight sum overflowed reads NaN where its shared sum did too
    and 0.5 where it did not, so the sums are checked with the entries. The
    entries lie in [0.5, 1]: their total is finite exactly when each one is.
    """
    if not (all(np.isfinite(s).all() for s in weight_sums) and np.isfinite(values.sum())):
        raise DomainError(f"the {kind} population weights of the SCM overflow float64")
    np.fill_diagonal(values, np.nan)
    return CoefMatrix(values, kind, tuple(scm.node_name(j) for j in range(scm.p)))


def gamma_population(scm: Scm) -> CoefMatrix:
    """Exact one-tailed coefficient matrix for a positive-coefficient SCM.

    Raises ModeError for real coefficients (use psi_population) and rejects
    SCMs whose noise scale constants differ across nodes, since the
    one-tailed formula assumes a common rescaling. Raises CapacityError
    before allocating when the p x p arrays would exceed 1 GiB, and
    DomainError when the path weights overflow float64.
    """
    check_capacity(scm.p)
    if scm.mode != POSITIVE:
        raise ModeError("gamma is defined for positive-coefficient SCMs; use psi_population")
    uppers = {spec.scale_upper for spec in scm.noise}
    if len(uppers) != 1:
        raise ValidationError(
            "gamma assumes equal noise scales across nodes; "
            "use psi_population for heterogeneous scales")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        h = path_weights(scm)
        anc = scm.dag.ancestor_matrix | np.eye(scm.p, dtype=bool)
        w = np.where(anc, h, 0.0) ** scm.alpha
        shared = w @ anc.T.astype(float)  # shared[j, k] = sum over An(j) & An(k)
        denom = w.sum(axis=1)
        values = 0.5 + 0.5 * shared / denom[:, None]
    return _population_matrix(values, "gamma", scm, denom)


def psi_population(scm: Scm) -> CoefMatrix:
    """Exact two-tailed coefficient matrix for real or positive coefficients.

    Each tail term weights ``|beta(h -> j)| ** alpha`` by the noise scale
    constant of the tail the path maps into: a negative path weight swaps the
    upper and lower constants of the source noise. Raises CapacityError
    before allocating when the p x p arrays would exceed 1 GiB, and
    DomainError when the path weights overflow float64.
    """
    check_capacity(scm.p)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        h = path_weights(scm)
        if not check_path_faithful(scm, h):
            raise ValidationError("SCM is not path-faithful: an ancestor path weight vanishes")
        anc = scm.dag.ancestor_matrix | np.eye(scm.p, dtype=bool)
        c_up = np.array([spec.scale_upper for spec in scm.noise])
        c_lo = np.array([spec.scale_lower for spec in scm.noise])
        pos = h > 0
        c_plus = np.where(pos, c_up[None, :], c_lo[None, :])
        c_minus = np.where(pos, c_lo[None, :], c_up[None, :])
        base = np.where(anc, np.abs(h), 0.0) ** scm.alpha
        anc_t = anc.T.astype(float)
        values = np.full((scm.p, scm.p), 0.5)
        sums = []
        for c_eff in (c_plus, c_minus):
            w = c_eff * base
            sums.append(w.sum(axis=1))
            values += 0.25 * (w @ anc_t) / sums[-1][:, None]
    return _population_matrix(values, "psi", scm, *sums)


def _bin(value: float, tol: float) -> str:
    if abs(value - 1.0) <= tol:
        return "one"
    if abs(value - 0.5) <= tol:
        return "half"
    if 0.5 + tol < value < 1.0 - tol:
        return "interior"
    return "outside"


def classify_pair(coefs: CoefMatrix, i: int, j: int, tol: float | None = None) -> str:
    """Map (coef[i, j], coef[j, i]) to its causal reading.

    Values within ``tol`` of 1 or 1/2 snap to those anchors; anything between
    reads as interior. Combinations the population model cannot produce
    (including both entries at 1) come back indeterminate. The default
    tolerance is 1e-9 for population matrices and 0.1 for estimated ones.
    """
    if tol is None:
        tol = 0.1 if coefs.estimated else 1e-9
    if not (0 <= tol < 0.25):
        raise ValidationError(f"tol must lie in [0, 0.25), got {tol}")
    p = coefs.p
    if not (0 <= i < p and 0 <= j < p) or i == j:
        raise ValidationError(f"need two distinct nodes in range, got ({i}, {j})")
    b_ij = _bin(float(coefs.values[i, j]), tol)
    b_ji = _bin(float(coefs.values[j, i]), tol)
    if b_ij == "one" and b_ji == "interior":
        return I_CAUSES_J
    if b_ij == "interior" and b_ji == "one":
        return J_CAUSES_I
    if b_ij == "half" and b_ji == "half":
        return NO_CAUSAL_LINK
    if b_ij == "interior" and b_ji == "interior":
        return COMMON_CAUSE
    return INDETERMINATE


def mistake_bound_margin(scm: Scm, kind: str = "gamma") -> float:
    """Largest population coefficient over non-ancestral ordered pairs; strictly below 1.

    The pairs run over the observed nodes, the submatrix EASE sees, with
    ancestry taken in the full graph; ``kind`` picks gamma_population or
    psi_population. When every estimate lies within (1 - M) / 2 of its
    population value, M being this margin, EASE returns a valid order: the
    gap to 1 controls how accurately coefficients must be estimated before
    greedy root extraction can be led astray.
    """
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    observed = np.array(scm.observed)
    if observed.size < 2:
        raise ValidationError("margin needs at least two observed nodes")
    population = gamma_population(scm) if kind == "gamma" else psi_population(scm)
    pairs = np.ix_(observed, observed)
    # [i, j] conditions on i; the pair is non-ancestral unless i is in An(j),
    # which also rules out the diagonal
    non_ancestral = ~(scm.dag.ancestor_matrix | np.eye(scm.p, dtype=bool)).T[pairs]
    return float(population.values[pairs][non_ancestral].max())
