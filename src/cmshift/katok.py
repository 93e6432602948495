"""Entropy through covering numbers of cylinder sets.

For an ergodic measure, the minimal number N(n, delta) of n-cylinders
whose union carries mass strictly greater than 1 - delta grows at the
exponential rate h(mu), for every fixed delta in (0, 1).  This module
computes the covering numbers exactly (greedy selection of the heaviest
cylinders, which is optimal for this objective) and fits the rate.

For a stationary Markov chain the n-cylinder masses are built one symbol
at a time as numpy level arrays: level n holds the masses of the
positive-mass n-words grouped by last symbol, and each edge a -> b with
P(a, b) > 0 multiplies the block of symbol a into the block of symbol b.
Every mass is the left-to-right float product pi(x_0) P(x_0, x_1) ...,
and the previous level is dropped once the next one exists.  Before any
array is allocated, an exact integer count of the positive-mass words
(one pass over the edges per length) raises `CapacityError` when a level
would hold more than `cap` cylinders.  `katok_estimate` reads N(n, delta)
off each level of one pass.

The heaviest-first prefix is located with a running `numpy.cumsum`, whose
rounding error is bounded; the prefixes whose running sums that bound
cannot separate from 1 - delta (exact or near ties) are decided on
correctly rounded sums (`math.fsum`), so the answer does not depend on
the order of the additions.
"""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import counting, measures
from .errors import CapacityError, ValidationError
from .graphs import FiniteGraph


def _markov_levels(measure, graph, n_max, cap):
    """Yield the positive-mass n-cylinder masses of a stationary chain for
    n = 1..n_max, each level one float array grouped by last symbol."""
    k = graph.symbols
    into = [[] for _ in range(k)]  # into[b]: (a, P(a, b)) for the edges with P > 0
    for a in range(1, k + 1):
        for b in graph.out_neighbors(a):
            p = float(measure.P[a - 1, b - 1])
            if p > 0.0:
                into[b - 1].append((a - 1, p))
    sizes = [[int(measure.pi[v] > 0.0) for v in range(k)]]
    for n in range(1, n_max + 1):
        if n > 1:
            sizes.append([sum(sizes[-1][a] for a, _ in row) for row in into])
        if sum(sizes[-1]) > cap:
            raise CapacityError(f"more than {cap} cylinders of length {n}")
    masses = measure.pi[measure.pi > 0.0]
    yield masses
    for before, after in zip(sizes, sizes[1:]):
        at = [0, *itertools.accumulate(before)]
        level = np.empty(sum(after))
        pos = 0
        for row in into:
            for a, p in row:
                np.multiply(masses[at[a]:at[a + 1]], p, out=level[pos:pos + before[a]])
                pos += before[a]
        masses = level
        yield masses


def _fewest(ascending, need):
    """Fewest of the masses, sorted in increasing order, whose correctly
    rounded total exceeds need: the heaviest-first prefix.

    The running sums T_j locate the crossing.  T_j is within
    gamma_{j-1} S_j of the exact prefix sum S_j, gamma_m = m u / (1 - m u),
    u = 2^-53 (Higham, 2002, section 4.2); `slack` is many times that
    plus a few ulps of need, so only the prefixes whose running sums lie
    within `slack` of need can be in doubt.  Those are bisected on
    `math.fsum`, which is monotone in the prefix.
    """
    descending = ascending[::-1]
    total = np.cumsum(descending)
    slack = (len(total) * (total[-1] if len(total) else 0.0) + need) * 2.0**-48
    lo = int(np.searchsorted(total, need - slack)) + 1
    hi = int(np.searchsorted(total, need + slack, side="right")) + 1
    k = lo + bisect.bisect_left(
        range(lo, hi), True, key=lambda j: math.fsum(descending[:j]) > need
    )
    if k > len(total):
        raise ValidationError(
            "the cylinders of this length fail to cover the measure "
            "(is the measure supported on this graph?)"
        )
    return k


def _check(measure, graph, delta, n):
    if not isinstance(graph, FiniteGraph):
        raise ValidationError("covering numbers need a finite graph; truncate first")
    if not isinstance(measure, measures.MarkovMeasure):
        raise ValidationError("covering numbers need a stationary Markov measure")
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must be in (0, 1)")
    if n < 1:
        raise ValidationError("cylinder length must be >= 1")


def covering_number(measure, graph, n, delta, cap=2**20):
    """Minimal number of n-cylinders with total mass strictly above 1 - delta.

    Sorting the cylinder masses in decreasing order and taking the shortest
    prefix whose sum exceeds 1 - delta is optimal: any family of k cylinders
    has mass at most the sum of the k largest masses.  More than `cap`
    positive-mass cylinders raise `CapacityError`.
    """
    _check(measure, graph, delta, n)
    for masses in _markov_levels(measure, graph, n, cap):
        pass
    masses.sort()
    return _fewest(masses, 1.0 - delta)


@dataclass(frozen=True)
class KatokReport:
    rate: float
    delta: float
    counts: counting.CountSeries
    window: tuple


def katok_estimate(measure, graph, delta, n_max, n_min=1, cap=2**20):
    """Fitted exponential growth rate of the covering numbers N(n, delta).

    Exact counts for n = n_min..n_max, then an affine fit of log N(n)
    against n over the last half of the range.  For an ergodic measure the
    rate estimates its entropy, independently of delta.
    """
    if n_max < n_min:
        raise ValidationError("n_max must be >= n_min")
    _check(measure, graph, delta, n_min)
    levels = itertools.islice(_markov_levels(measure, graph, n_max, cap), n_min - 1, None)
    values = [_fewest(np.sort(masses), 1.0 - delta) for masses in levels]
    series = counting.CountSeries(
        label=f"covering(delta={delta})",
        start=n_min,
        counts=values,
        meta={"delta": delta},
    )
    est = counting.growth_rate(series, method="affine-fit")
    return KatokReport(rate=est.rate, delta=delta, counts=series, window=est.window)
