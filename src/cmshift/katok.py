"""Entropy through covering numbers of cylinder sets.

For an ergodic measure, the minimal number N(n, delta) of n-cylinders
whose union carries mass strictly greater than 1 - delta grows at the
exponential rate h(mu), for every fixed delta in (0, 1).  This module
computes the covering numbers exactly (greedy selection of the heaviest
cylinders, which is optimal for this objective) and fits the rate.

The count is that of the float masses pi(x_0) P(x_0, x_1) ..., taken
left to right, with the strict comparison made on correctly rounded sums.

Mass classes.  The chains built by `measures.parry_measure` on a simple
graph and by `measures.bernoulli_measure` name their mass classes in
`MarkovMeasure.classes`.  The mass of a positive-mass n-word depends only
on its first and last symbols (a Parry chain: pi_i v_j / (v_i lam^(n-1)),
and the class (i, j) holds the exact integer (A^(n-1))_ij words) or only
on its symbol counts (a Bernoulli measure: one class per type, of
multinomial size; Csiszar, "The method of types", 1998).  The greedy
pass sorts the classes by mass, takes whole classes while the running
total stays at or below 1 - delta, and ⌊(need - taken) / mass⌋ + 1 words
of the class where it crosses.  Every float word mass lies within a
relative bound eta of its class mass (the rounding of the products and,
for a Parry chain, the spread of P(a, b) v_a / v_b over the edges), so
the count is certified when that bound cannot move the crossing step or
the one before across 1 - delta.  Where it can (exact or near ties), the
level arrays below decide, as long as they fit under `cap`; past the cap
the count is the exact greedy count on the class masses, in rational
arithmetic.  Classes are used only where they are fewer than the
cylinders, and masses or sizes out of the normal float range raise
`CapacityError`.  One integer power A^(n-1) is carried from n to n + 1.

Level arrays (every other chain, Parry chains on multigraphs, and the
fallback).  The n-cylinder masses are built one symbol at a time: level n
holds the masses of the positive-mass n-words grouped by last symbol, and
each edge a -> b with P(a, b) > 0 multiplies the block of symbol a into
the block of symbol b; the previous level is dropped once the next one
exists.  Before any array is allocated, an exact integer count of the
positive-mass words (one pass over the edges per length) raises
`CapacityError` when a level would hold more than `cap` cylinders.
The counts of all lengths read one pass over the levels.  The
heaviest-first prefix is located with a running `numpy.cumsum`, whose
rounding error is bounded; the prefixes whose running sums that bound
cannot separate from 1 - delta are decided on correctly rounded sums
(`math.fsum`), so the answer does not depend on the order of the
additions.
"""

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import counting, measures
from .errors import CapacityError, ValidationError
from .graphs import FiniteGraph

# twice the unit roundoff: the relative rounding of one float operation
_EPS = 2.0**-52
# largest word count whose integer powers stay in int64
_INT64_SAFE = 2**62


def _markov_levels(measure, graph, n_max, cap):
    """Yield the positive-mass n-cylinder masses of a stationary chain for
    n = 1..n_max, each level one float array grouped by last symbol."""
    k = graph.symbols
    into = [[] for _ in range(k)]  # into[b]: (a, P(a, b)) for the edges with P > 0
    rows, cols = np.nonzero(measure.P > 0.0)
    for a, b, p in zip(rows.tolist(), cols.tolist(), measure.P[rows, cols].tolist()):
        into[b].append((a, p))
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


_UNCOVERED = (
    "the cylinders of this length fail to cover the measure "
    "(is the measure supported on this graph?)"
)


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
        raise ValidationError(_UNCOVERED)
    return k


# ---------------------------------------------------------------------------
# mass classes


def _mass_classes(measure, graph, n_min, n_max):
    """(words, classes) for n = n_min..n_max: the list of the numbers of
    positive-mass n-words, and an iterator over their mass classes
    (masses, sizes, eta), None at each n where the classes are no fewer
    than the words.  Where the measure has no classes on this graph, words
    is None and the iterator yields None throughout."""
    kind, vector = measure.classes or (None, None)
    if kind == "ends" and (measure.pi > 0.0).all():
        A = _support(measure)
        counts = _path_counts(A, n_max)
        return counts[n_min - 1 :], _end_classes(measure, A, vector, counts, n_min, n_max)
    if kind == "types":
        symbols = np.flatnonzero(vector > 0.0).tolist()
        if all(graph.is_edge(a + 1, b + 1) for a in symbols for b in symbols):
            words = [len(symbols) ** n for n in range(n_min, n_max + 1)]
            return words, _type_classes(vector[symbols], n_min, n_max)
    return None, itertools.repeat(None)


def _support(measure):
    """0/1 int64 matrix of the edges a -> b with P(a, b) > 0, all on the
    measure's graph."""
    return (measure.P > 0.0).astype(np.int64)


def _path_counts(A, n_max):
    """Exact numbers of paths with n - 1 edges in the 0/1 matrix A, for
    n = 1..n_max; in Python integers from 2^50 paths on, where one more
    step (at most 4096 out-edges a row) could leave int64."""
    row = np.ones(len(A), dtype=np.int64)
    counts = [len(A)]
    for _ in range(n_max - 1):
        if counts[-1] >= 2**50 and row.dtype != object:
            row, A = row.astype(object), A.astype(object)
        row = row @ A
        counts.append(int(row.sum()))
    return counts


def _end_classes(measure, A, v, counts, n_min, n_max):
    """End classes of a Parry chain: the words from i to j, (A^(n-1))_ij of
    them, of mass pi_i v_j / v_i rho^(n-1).

    r(a, b) = P(a, b) v_a / v_b is 1/lam on every edge up to the Perron
    bracket and the rounding of P, and a word's product of P telescopes to
    v_j / v_i times n - 1 of them.  Their float range [lo, hi] around rho
    bounds the spread of the word masses of a class; the products add n
    roundings, the class mass a few more.  A^(n-1) moves from int64 to
    Python integers once the entries of a power up to it, each at most the
    number of words of its length, could leave int64.
    """
    k = len(A)
    rows, cols = np.nonzero(A)
    r = measure.P[rows, cols] * v[rows] / v[cols]
    lo, hi = r.min() * (1.0 - 2 * _EPS), r.max() * (1.0 + 2 * _EPS)
    rho = math.sqrt(lo * hi)
    spread = max(math.log(hi / rho), math.log(rho / lo)) + 2 * _EPS
    base = (measure.pi / v)[:, None] * v[None, :]
    peaks = list(itertools.accumulate(counts, max))
    power = None
    for n in range(n_min, n_max + 1):
        words = counts[n - 1]
        if peaks[n - 1] >= _INT64_SAFE and A.dtype != object:
            A = A.astype(object)
            power = None if power is None else power.astype(object)
        if power is not None:
            power = power @ A
        elif k * k < words:
            power = np.linalg.matrix_power(A, n - 1)
        if power is None:
            yield None
            continue
        step = rho ** (n - 1)
        if step < sys.float_info.min:
            raise CapacityError(f"the {n}-cylinder masses leave the float range")
        classes = power > 0
        eta = math.expm1((n - 1) * spread) + (n + 8) * _EPS
        yield base[classes] * step, power[classes], eta


def _type_classes(p, n_min, n_max):
    """Type classes of a product measure with positive probabilities p,
    whose distinct values q_1..q_L are taken by g_1..g_L symbols: the words
    with d_l letters of probability q_l, multinomial(n; d) prod g_l^d_l of
    them, of mass prod q_l^d_l.  The float products add n roundings and
    the class mass 3L more; powers of two multiply exactly."""
    values, shares = np.unique(p, return_counts=True)
    shares = shares.tolist()
    k, levels = len(p), len(values)
    exact = all(math.frexp(x)[0] == 0.5 for x in values.tolist())
    for n in range(n_min, n_max + 1):
        if math.comb(n + levels - 1, levels - 1) >= k**n:
            yield None
            continue
        if values[0] ** n < sys.float_info.min:
            raise CapacityError(f"the {n}-cylinder masses leave the float range")
        types = np.array(list(_compositions(n, levels)))
        sizes = [
            math.prod(map(math.comb, itertools.accumulate(d), d))
            * math.prod(map(pow, shares, d))
            for d in types.tolist()
        ]
        sizes = np.array(sizes, dtype=np.int64 if k**n < _INT64_SAFE else object)
        eta = 0.0 if exact else (n + 3 * levels + 2) * _EPS
        yield np.prod(np.power(values, types), axis=1), sizes, eta


def _compositions(n, k):
    """The vectors of k nonnegative integers summing to n (stars and bars)."""
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        yield [b - a - 1 for a, b in zip((-1, *bars), (*bars, n + k - 1))]


def _sorted_classes(masses, sizes):
    """The classes by decreasing mass, with their float weights size * mass;
    CapacityError where a mass or a size leaves the normal float range."""
    order = np.argsort(-masses, kind="stable")
    masses, sizes = masses[order], sizes[order]
    if not masses[-1] >= sys.float_info.min:
        raise CapacityError("class masses leave the float range")
    try:
        weights = sizes.astype(float) * masses
    except OverflowError:
        raise CapacityError("class sizes leave the float range") from None
    return masses, sizes, weights


def _certified(masses, sizes, weights, eta, need):
    """The greedy count over the sorted classes, or None where the bound
    eta on the class masses (plus the rounding of these float sums) could
    move the crossing step or the one before across need."""
    total = np.cumsum(weights)
    c = int(np.searchsorted(total, need, side="right"))
    if c == len(total):
        return None
    taken = float(total[c - 1]) if c else 0.0
    mass = float(masses[c])
    j = min(math.floor((need - taken) / mass) + 1, int(sizes[c]))
    theta = eta + (len(total) + 16) * _EPS
    if (taken + j * mass) * (1.0 - theta) > need * (1.0 + _EPS) and (
        taken + (j - 1) * mass
    ) * (1.0 + theta) < need:
        return int(sizes[:c].sum()) + j
    return None


def _exact(masses, sizes, need):
    """The greedy count over the sorted classes with the class masses taken
    as exact rationals."""
    need = Fraction(need)
    taken, words = Fraction(0), 0
    for mass, group in itertools.groupby(zip(masses.tolist(), sizes.tolist()), key=lambda c: c[0]):
        size, mass = sum(s for _, s in group), Fraction(mass)
        if taken + size * mass > need:
            return words + math.floor((need - taken) / mass) + 1
        taken += size * mass
        words += size
    raise ValidationError(_UNCOVERED)


def _counts(measure, graph, n_min, n_max, need, cap):
    """N(n, delta) for n = n_min..n_max, need = 1 - delta: from the classes
    where they certify it, else from one pass over the level arrays (up to
    the last length under cap), else, past the cap, the exact class count."""
    words, classes = _mass_classes(measure, graph, n_min, n_max)
    lengths = range(n_min, n_max + 1)
    reach = n_max if words is None else max(
        (n for n, w in zip(lengths, words) if w <= cap), default=0
    )
    levels = enumerate(_markov_levels(measure, graph, reach, cap), start=1)
    counts = []
    for n, w, cls in zip(lengths, words or itertools.repeat(None), classes):
        if cls is not None:
            masses, sizes, eta = cls
            masses, sizes, weights = _sorted_classes(masses, sizes)
            count = _certified(masses, sizes, weights, eta, need)
            if count is None and w > cap:
                count = _exact(masses, sizes, need)
            if count is not None:
                counts.append(count)
                continue
        if n > reach:
            raise CapacityError(f"more than {cap} cylinders of length {n}")
        level = next(masses for length, masses in levels if length == n)
        counts.append(_fewest(np.sort(level), need))
    return counts


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
    has mass at most the sum of the k largest masses.  Where the measure
    has mass classes they give the count; more than `cap` positive-mass
    cylinders on the level-array path raise `CapacityError`.
    """
    _check(measure, graph, delta, n)
    return _counts(measure, graph, n, n, 1.0 - delta, cap)[0]


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
    values = _counts(measure, graph, n_min, n_max, 1.0 - delta, cap)
    series = counting.CountSeries(
        label=f"covering(delta={delta})",
        start=n_min,
        counts=values,
        meta={"delta": delta},
    )
    est = counting.growth_rate(series)
    return KatokReport(rate=est.rate, delta=delta, counts=series, window=est.window)
