"""Independent exhaustive implementations of the coefficient estimators and of ancestry.

These avoid the library's rank machinery entirely: order statistics come from
a full sort, CDF values from quadratic counting, and sums are exact
(Fraction) with a single rounding at the end, which equals a correctly
rounded float sum. Used to pin the estimators bit-for-bit on small inputs.
Ancestry comes from Warshall's transitive closure over the edge list, which
needs no topological order, and causal orders from enumerating every one.
"""

from fractions import Fraction


def brute_cdf(column, value):
    return sum(1 for v in column if v <= value) / len(column)


def brute_gamma(values, j, k_col, k):
    n = len(values)
    col_j = [row[j] for row in values]
    col_k = [row[k_col] for row in values]
    threshold = sorted(col_j)[n - k - 1]
    total = Fraction(0)
    for i in range(n):
        if col_j[i] > threshold:
            total += Fraction(brute_cdf(col_k, col_k[i]))
    return float(total) / k


def brute_psi(values, j, k_col, k):
    n = len(values)
    col_j = [row[j] for row in values]
    col_k = [row[k_col] for row in values]
    total = Fraction(0)
    for column in (col_j, [-v for v in col_j]):
        threshold = sorted(column)[n - k - 1]
        for i in range(n):
            if column[i] > threshold:
                total += Fraction(abs(2.0 * brute_cdf(col_k, col_k[i]) - 1.0))
    return float(total) / (2 * k)


def brute_ancestors(p, edges):
    """Strict-ancestor lists of lists: ``reach[j][i]`` when a directed path runs i -> j."""
    reach = [[False] * p for _ in range(p)]
    for parent, child in edges:
        reach[child][parent] = True
    for via in range(p):
        for j in range(p):
            if reach[j][via]:
                for i in range(p):
                    if reach[via][i]:
                        reach[j][i] = True
    return reach


def brute_backward_pairs(p, edges, sequence):
    """The ancestral pairs among ``sequence``'s nodes that it places backwards.

    (ancestor, descendant) tuples sorted by descendant, then ancestor;
    ancestry is taken over all ``p`` nodes, so a path through a node the
    sequence leaves out still counts.
    """
    reach = brute_ancestors(p, edges)
    place = {node: i for i, node in enumerate(sequence)}
    return tuple((i, j) for j in sorted(place) for i in sorted(place)
                 if reach[j][i] and place[i] > place[j])


def all_causal_orders(dag):
    """Every causal order of the DAG as a node sequence (exhaustive: small graphs only)."""
    def extend(prefix):
        if len(prefix) == dag.p:
            yield tuple(prefix)
        placed = set(prefix)
        for node in range(dag.p):
            if node not in placed and placed.issuperset(dag.parents(node)):
                yield from extend(prefix + [node])

    return list(extend([]))
