"""Gurevich entropy, loop generating functions, recurrence classification,
and entropy at infinity.

For a loop system with counts a_l, the first-return generating function is
f(x) = sum a_l x**l, with radius of convergence R = 1/growth. The entropy is
log(1/x_c) where x_c = min(x*, R) and x* is the root of f(x) = 1 when it
exists. The classification follows the shape of f at its radius:

* f(R) < 1 (certified by partial sums plus a tail bound): transient,
* a root x* < R: positive recurrent (the mean loop length at x* converges
  geometrically because x* is strictly inside the radius),
* root exactly at the radius: null recurrent when the mean loop length
  diverges there, positive recurrent when it converges.

Every finite first-return series (a Perron root at a one-vertex rome, x* of
a finite loop system, the window chains of `measures`, the pressures of a
finite loop system) is solved by `series_root`, in log x; one with an
infinite tail is bisected in x on the certified bounds of
`LoopGF.value_bounds`. Both run `bisect_root`, which stops where the bounds
can no longer tell the value from 1 or the bracket closes to adjacent
floats. Those bounds are a function of the system, x and the summed range
alone, so each is computed once per system: the `LoopSystem` keeps the
summation slices of its count table and up to `BOUNDS_MEMO` bounds, which
every query of the same system object (x*, pressures, `b_inf_estimate`'s
search) shares.

The entropy at infinity is approached from two sides: `big_delta_inf` reads
the certified loop growth of the presentation, and `delta_inf` fits escape
count series z_n(M, q) on a grid of budgets M and thresholds q, taking the
smallest fitted rate as the headline estimate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import GrowthEstimate, escape_count, growth_rate, loop_count
from .errors import NonConvergent, NotStronglyConnected, ValidationError
from .graphs import (
    SERIES_TERMS,
    FiniteGraph,
    GeometricTail,
    LoopSystem,
    is_strongly_connected,
    strongly_connected_components,
)

# ---------------------------------------------------------------------------
# Perron data of finite graphs
#
# A one-vertex rome of a strongly connected graph is a vertex r that every
# cycle passes through (Block, Guckenheimer, Misiurewicz and Young, 1980), so
# the graph minus r is acyclic. The block systems of `density` have one (the
# first slot start), and so do whole-loop truncations of loop systems (the
# base). There the Perron root solves the first-return series at r,
# sum_L c_L x**L = 1, with lam = 1/x, and the Perron vectors follow from one
# pass each over the acyclic rest: no eigensolver is needed.

# widest accepted Collatz-Wielandt bracket, relative to the Perron root
PERRON_BRACKET = 1e-9
# eig passes before NonConvergent; each rescaling recovers vector entries
# that the previous pass had only to absolute accuracy
PERRON_PASSES = 4
# the spacing of floats at 1
_ULP = 2.0 ** -52


def _rome(a):
    """A one-vertex rome of the support of a: (r, order, succ, pred), with
    order a topological order of the other vertices and succ/pred the
    (neighbour, weight) lists of every vertex; None when there is none.

    Every sink of the acyclic graph left by a rome sends all its edges to
    the rome, so only the single out-neighbours of rows with exactly one
    nonzero entry are candidates. Each is tested with one Kahn pass, the
    most common first.
    """
    out = (a != 0).sum(axis=1)
    if 1 not in out.tolist():
        return None
    n = len(a)
    rows, cols = np.nonzero(a)
    hits = np.bincount(cols[out[rows] == 1], minlength=n)
    candidates = np.argsort(-hits, kind="stable")[: np.count_nonzero(hits)]
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for u, w, x in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()):
        succ[u].append((w, x))
        pred[w].append((u, x))
    for r in candidates.tolist():
        indeg = [len(p) for p in pred]
        for w, _ in succ[r]:
            indeg[w] -= 1
        order = [v for v in range(n) if v != r and indeg[v] == 0]
        for u in order:
            for w, _ in succ[u]:
                if w != r:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        order.append(w)
        if len(order) == n - 1:
            return r, order, succ, pred
    return None


def log_sum(terms):
    """log of the sum of exp(t) over a nonempty list, in the float range."""
    if len(terms) == 1:
        return terms[0]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _first_returns(rome, shift=None):
    """The first-return series at the rome r of rome = _rome(a) in the log
    domain: (lengths, logs, err), logs[k] the log of the total weight of the
    paths of length lengths[k] from r back to r that meet r nowhere else, and
    err a bound on the rounding of every entry of logs. With shift, a list
    over the vertices, the weight of each edge into u is a_pu e^shift[u].

    Weighted transfer matrices underflow along long paths (entries e^-30 at
    t = 30), and a weight e^shift[u] itself past shift = -745, so the walks
    are summed by log-sum-exp and shift enters as a log; every step adds a
    few ulps of the magnitudes it handles to the error of its inputs.
    """
    r, order, _, pred = rome
    walks = [None] * len(pred)
    walks[r] = {0: 0.0}
    sizes = [0.0] * len(pred)
    errs = [0.0] * len(pred)
    for u in order + [r]:
        reach = {}
        size = err = 0.0
        lu = 0.0 if shift is None else shift[u]
        for p, x in pred[u]:
            lx = math.log(x) + lu
            if sizes[p] + abs(lx) > size:
                size = sizes[p] + abs(lx)
            if errs[p] > err:
                err = errs[p]
            for length, lw in walks[p].items():
                if length + 1 in reach:
                    reach[length + 1].append(lw + lx)
                else:
                    reach[length + 1] = [lw + lx]
        walk = {length: log_sum(terms) for length, terms in reach.items()}
        if u == r:
            break
        walks[u] = walk
        sizes[u] = max(map(abs, walk.values()), default=0.0)
        errs[u] = err + 2 * _ULP * (size + sizes[u] + len(pred[u]))
    lengths = np.array(sorted(walk), dtype=float)
    logs = np.array([walk[length] for length in sorted(walk)])
    return lengths, logs, err + 2 * _ULP * (size + np.abs(logs).max(initial=0.0) + len(pred[r]))


def _rome_vectors(r, order, succ, pred, x):
    """Left and right Perron vectors with entry 1 at the rome r:
    v_u = x * sum_w a_uw v_w backward over the topological order, and the
    same recurrence over predecessors forward for the left vector."""
    left = [0.0] * len(pred)
    right = [0.0] * len(pred)
    left[r] = right[r] = 1.0
    for u in reversed(order):
        right[u] = x * sum(a * right[w] for w, a in succ[u])
    for u in order:
        left[u] = x * sum(left[p] * a for p, a in pred[u])
    return np.array(left), np.array(right)


def _top_eigenpair(b):
    vals, vecs = np.linalg.eig(b)
    k = np.argmax(vals.real)
    return float(vals[k].real), np.abs(vecs[:, k])


def _collatz_width(a, lam, left, right):
    """Width of the hull of lam and the Collatz-Wielandt brackets
    [min (Av)_i/v_i, max (Av)_i/v_i] of both nonnegative vectors, which
    contain the Perron root for every positive v; NonConvergent on a vector
    entry that is zero or out of float range (a reducible matrix), where a
    ratio is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.concatenate([(a @ right) / right, (left @ a) / left])
    if not np.isfinite(ratios).all():
        raise NonConvergent("a Perron vector entry is zero or out of float range")
    return max(ratios.max(), lam) - min(ratios.min(), lam)


def _dense_perron(a):
    """Perron data from numpy.linalg.eig of a and of a.T; their moduli drop
    any complex phase.

    eig gets entries far below the largest only to absolute accuracy, so a
    bracket wider than PERRON_BRACKET * lam is retried on the similar matrix
    D^-1 a D, D = diag(sqrt(right / left)), whose left and right Perron
    vectors are both sqrt(left * right).
    """
    scale = np.ones(len(a))
    for _ in range(PERRON_PASSES):
        b = a * scale / scale[:, None]
        lam, right = _top_eigenpair(b)
        right = right * scale
        left = _top_eigenpair(b.T)[1] / scale
        width = _collatz_width(a, lam, left, right)
        scale = np.sqrt(right / left)
        if width <= PERRON_BRACKET * lam:
            return lam, left, right
    raise NonConvergent(
        f"Collatz-Wielandt bracket of width {width} around the root {lam} is "
        f"wider than {PERRON_BRACKET} relative after {PERRON_PASSES} passes"
    )


def perron(a):
    """Perron root and positive left and right eigenvectors of an
    irreducible nonnegative matrix: (lam, left, right).

    Through a one-vertex rome of the support when there is one, else by
    dense eig. Either way the vectors must pass the Collatz-Wielandt check
    to PERRON_BRACKET * lam; NonConvergent on a zero vector entry (a
    reducible matrix) or a bracket still too wide.
    """
    rome = _rome(a)
    if rome is None:
        return _dense_perron(a)
    y = series_root(*_first_returns(rome))
    lam = math.exp(-y)
    left, right = _rome_vectors(*rome, math.exp(y))
    width = _collatz_width(a, lam, left, right)
    if width > PERRON_BRACKET * lam:
        raise NonConvergent(
            f"Collatz-Wielandt bracket of width {width} around the first-return "
            f"root {lam} is wider than {PERRON_BRACKET} relative"
        )
    return lam, left, right


def _max_block_root(graph, mat, shift=None):
    """(root, log root) of the largest Perron root over the strongly
    connected blocks of mat, a matrix indexed by the symbols of graph;
    (0.0, -inf) when graph has no cycle. A block with a one-vertex rome
    needs only its first-return root.

    With shift, an array over the symbols, the matrix is mat with column j
    scaled by e^shift[j]. A block whose support has a one-vertex rome adds
    shift[j] to the log weight of each edge into j, so its log root stays
    finite where the scaled entries underflow; any other block is scaled as
    a matrix.
    """
    best = (0.0, -math.inf)
    for comp in strongly_connected_components(graph):
        idx = np.array(comp) - 1
        block = mat[np.ix_(idx, idx)]
        logs = None if shift is None else shift[idx].tolist()
        rome = _rome(block)
        if rome is None and logs is not None:
            block = block * [math.exp(v) for v in logs]
            rome, logs = _rome(block), None
        if rome:
            y = -series_root(*_first_returns(rome, logs))
            root = (math.exp(y), y)
        elif block.any():
            lam = _dense_perron(block)[0]
            root = (lam, math.log(lam))
        else:
            continue
        best = max(best, root)
    return best


def adjacency_matrix(graph):
    """Dense matrix of edge multiplicities, indexed by symbol - 1."""
    a = np.zeros((graph.symbols, graph.symbols))
    for (i, j), m in graph.edge_multiplicities().items():
        a[i - 1, j - 1] = m
    return a


def perron_root(graph):
    """Spectral radius of the adjacency (multiplicity) matrix: the largest
    Perron root over the strongly connected components."""
    return _max_block_root(graph, adjacency_matrix(graph))[0]


# ---------------------------------------------------------------------------
# roots of increasing loop equations


def side_of_one(lo, hi):
    """-1, 1 or 0 as certified bounds (lo, hi) of a value lie below 1,
    above 1, or around it."""
    if hi < 1.0:
        return -1
    if lo > 1.0:
        return 1
    return 0


def bisect_root(side, lo, hi):
    """The last certified bracket (lo, hi) of the crossing of an increasing
    test.

    side(x) is negative below the crossing, positive above it, and 0 where
    the bounds behind it cannot tell. The bracket is halved until side
    returns 0 at its midpoint or lo and hi are adjacent floats, so the
    returned midpoint is where the bisection stopped.
    """
    while True:
        mid = 0.5 * (lo + hi)
        s = side(mid) if lo < mid < hi else 0
        if s == 0:
            return lo, hi
        if s < 0:
            lo = mid
        else:
            hi = mid


def series_root(lengths, logs, err=0.0):
    """y = log x* of the root of sum_k exp(logs[k] + lengths[k] y) = 1, a
    finite first-return series: the midpoint of the bisect_root bracket in
    y, whose bounds widen the log-sum-exp of the series by err (a bound on
    the rounding of every entry of logs) and by the rounding of the terms.
    NonConvergent on an empty series."""
    if not len(lengths):
        raise NonConvergent("the first-return series has no term")
    # the largest term alone reaches 1 at hi; all len(logs) terms stay
    # below 1 at lo
    hi = float(np.min(-logs / lengths))
    lo = float(np.min(-(logs + math.log(len(logs))) / lengths))
    top_log, top_length = float(np.abs(logs).max()), float(lengths.max())

    def side(y):
        terms = logs + lengths * y
        m = terms.max()
        total = m + math.log(np.exp(terms - m).sum())
        slack = err + 2 * _ULP * (top_log + top_length * abs(y) + len(logs) + 1)
        if total + slack < 0:
            return -1
        if total - slack > 0:
            return 1
        return 0

    lo, hi = bisect_root(side, lo - 1e-9 * (1 + abs(lo)), hi + 1e-9 * (1 + abs(hi)))
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# loop generating functions

# widening of LoopGF.value_bounds relative to the bounded value
RELATIVE_SLACK = 1e-13
# most certified bounds a LoopSystem keeps; one round of the loops benchmark
# needs at most 3084 on any one system (seed 1)
BOUNDS_MEMO = 2**14


class LoopGF:
    """The first-return series f(x) = sum a_l x**l with certified bounds.

    The counts, summation slices and bounds live on the system (its
    CountTable, `series_slices` and `series_bounds`), so a fresh LoopGF per
    query costs nothing beyond the sums the system has not made before.
    """

    def __init__(self, system):
        if not isinstance(system, LoopSystem):
            raise ValidationError("LoopGF needs a LoopSystem")
        self.system = system
        tail = system.tail
        if system.is_infinite:
            self.radius = 1.0 / tail.growth if tail.growth > 1 else 1.0
            if isinstance(tail, GeometricTail) and tail.growth == 1.0:
                # counts are eventually constant: radius exactly 1
                self.radius = 1.0
        else:
            self.radius = math.inf

    def _slice(self, upto, beyond):
        """(upto clipped to the count table, lengths, float counts, big-count
        mask, and the lengths and logs of the big counts) of the nonzero
        lengths in (beyond, upto]; the last three are None without a big
        count. Built once per system and kept in its series_slices."""
        system = self.system
        piece = system.series_slices.get((upto, beyond))
        if piece is None:
            table = system.count_table(upto)
            used = min(upto, table.upto)
            i, k = table.prefix(beyond) if beyond else 0, table.prefix(used)
            lengths, big = table.lengths[i:k], table.big[i:k]
            if big.any():
                piece = (used, lengths, table.floats[i:k], big, lengths[big], table.logs[i:k][big])
            else:
                piece = (used, lengths, table.floats[i:k], None, None, None)
            system.series_slices[(upto, beyond)] = piece
        return piece

    def _partial(self, x, upto, beyond=0):
        """(sum of a_l x**l over beyond < l <= upto, upto clipped to the
        count table, bound on the rounding error of the big-count terms)."""
        used, lengths, floats, big, big_lengths, logs = self._slice(upto, beyond)
        terms = floats * np.power(x, lengths)
        err = 0.0
        if big is not None:
            # counts of more than BIG_BITS bits: exp(log a_l + l log x), whose
            # exponent carries rounding errors of a few ulps of its parts
            exps = big_lengths * math.log(x)
            terms[big] = np.exp(logs + exps)
            err = 4 * _ULP * float(np.dot(terms[big], 2.0 + logs + np.abs(exps)))
        return math.fsum(terms.tolist()), used, err

    def _tail_bounds(self, beyond, x):
        """Certified (lower, upper) for the sum of terms with length > beyond:
        the tail rule's bounds plus the explicit loops longer than beyond."""
        system = self.system
        tail = system.tail
        if not system.is_infinite:
            lo = hi = 0.0
        elif isinstance(tail, GeometricTail):
            lo, hi = tail.envelope(beyond, x, -math.inf), tail.envelope(beyond, x)
            # multiplicities floor(coeff * growth^l) undershoot the geometric
            # envelope by less than 1 per term; with integer parameters they
            # match it exactly
            if not (float(tail.coeff).is_integer() and float(tail.growth).is_integer()):
                if x < 1.0 and math.isfinite(hi):
                    loss = x ** (beyond + 1) / (1.0 - x) * (1 + 4 * _ULP)
                    lo = max(lo - loss, 0.0)
                else:
                    lo = 0.0
        elif tail.upper_sum is None:
            lo, hi = 0.0, math.inf
        else:
            lo, hi = 0.0, tail.upper_sum(beyond, x)
        if beyond < system.longest_explicit:
            try:
                past = math.fsum(m * x**l for l, m in system.explicit_loops if l > beyond)
            except OverflowError:
                past = math.inf
            lo, hi = lo + past, hi + past
        return (lo, hi)

    def value_bounds(self, x, beyond=0):
        """Certified (lower, upper) for f(x), or for the terms of f(x) with
        length > beyond.

        The bounds are a function of the system, x and beyond alone, so the
        system keeps them in series_bounds. A full memo is replaced by a new
        one holding only the newest entry, and the slices go with it: threads
        sharing the system each see some whole dict, never half of one, and a
        store lost to a race costs only a second summation.
        """
        if x < 0:
            raise ValidationError("x must be >= 0")
        if x == 0:
            return (0.0, 0.0)
        if x > self.radius * (1 + 1e-15):
            return (math.inf, math.inf)
        system = self.system
        key = (x, beyond)
        bounds = system.series_bounds.get(key)
        if bounds is None:
            bounds = self._bounds(x, beyond)
            memo = system.series_bounds
            if len(memo) < BOUNDS_MEMO:
                memo[key] = bounds
            else:
                system.series_slices = {}
                system.series_bounds = {key: bounds}
        return bounds

    def _bounds(self, x, beyond):
        """value_bounds at 0 < x <= R, summed afresh."""
        upto = max(256, beyond)
        while True:
            partial, used, err = self._partial(x, upto, beyond)
            tail_lo, tail_hi = self._tail_bounds(max(used, beyond), x)
            # more terms cannot help an infinite tail bound
            if tail_hi == math.inf or tail_hi - tail_lo <= max(1e-13, 1e-10 * partial):
                break
            if upto >= SERIES_TERMS or used < upto:
                break
            upto *= 2
        # the float terms, their sum and the tail envelope are each good to a
        # few ulps of the whole value; the big-count terms to err
        lo = (partial + tail_lo) * (1.0 - RELATIVE_SLACK) - err
        hi = (partial + tail_hi) * (1.0 + RELATIVE_SLACK) + err
        return (max(math.nextafter(lo, -math.inf), 0.0), math.nextafter(hi, math.inf))

    def series_at_radius(self):
        """Certified bounds for f(R); (inf, inf) when R is infinite."""
        if self.radius == math.inf:
            return (math.inf, math.inf)
        return self.value_bounds(self.radius)

    def x_star(self):
        """The root of f(x) = 1 in (0, R], or None when f(R) < 1.

        A finite system's root comes from series_root; with an infinite
        tail, from bisect_root in x on the certified bounds of f.
        """
        system = self.system
        if not system.is_infinite:
            return math.exp(series_root(*system.log_counts(1, system.longest_explicit)))
        lo_r, hi_r = self.series_at_radius()
        if hi_r < 1.0:
            return None
        if lo_r <= 1.0 <= hi_r:
            declared = getattr(system.tail, "series_at_radius", None)
            if declared is not None:
                if declared < 1.0:
                    return None
                if declared == 1.0:
                    return self.radius
            # fall through: bisection stops next to R, where the bounds
            # cannot tell f from 1
        lo, hi = bisect_root(lambda x: side_of_one(*self.value_bounds(x)), 0.0, self.radius)
        return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# entropy


@dataclass
class EntropyReport:
    value: float
    method: str
    truncations: list
    count_rate: float = None
    meta: dict = field(default_factory=dict)


def gurevich_entropy(graph, n_max=40, trace_qs=(4, 8, 16, 32, 64)):
    """Exponential growth rate of loop counts at a vertex.

    Finite graphs use the largest Perron root over their strongly
    connected blocks (perron_root: the first-return root at a one-vertex
    rome, else dense eig). Loop systems solve f(x_c) = 1 on the
    first-return series (x_c capped at the radius) and corroborate with a
    truncation trace and, when n_max allows, a direct growth fit on exact
    loop counts. Every cycle of a truncation is a whole loop through the
    base, so its entropy is that of the finite loop system of its whole
    loops, whose root comes from series_root.
    """
    if isinstance(graph, FiniteGraph):
        lam = perron_root(graph)
        value = math.log(lam) if lam > 0 else float("-inf")
        return EntropyReport(value, "perron", [(graph.symbols, value)])
    gf = LoopGF(graph)
    root = gf.x_star()
    x_c = gf.radius if root is None else min(root, gf.radius)
    value = math.log(1.0 / x_c)
    trace = []
    for q in trace_qs:
        _, loops = graph.whole_loops(q)
        if loops:
            trace.append((q, math.log(1.0 / LoopGF(LoopSystem(loops)).x_star())))
        else:
            trace.append((q, float("-inf")))
    count_rate = None
    if n_max and n_max >= 8:
        count_rate = growth_rate(loop_count(graph, 1, n_max)).rate
    meta = {"x_star": root, "radius": gf.radius}
    return EntropyReport(value, "generating-function", trace, count_rate, meta)


# ---------------------------------------------------------------------------
# classification


@dataclass
class Classification:
    verdict: str
    entropy: float
    x_star: float = None
    radius: float = None
    reason: str = ""


def classify(graph):
    """Vere-Jones recurrence classification of an irreducible presentation."""
    if isinstance(graph, FiniteGraph):
        if not is_strongly_connected(graph):
            raise NotStronglyConnected("classification needs a strongly connected graph")
        h = gurevich_entropy(graph).value
        return Classification(
            "positive-recurrent", h, x_star=math.exp(-h), radius=None,
            reason="finite strongly connected graph",
        )
    gf = LoopGF(graph)
    root = gf.x_star()
    if root is None:
        return Classification(
            "transient", math.log(1.0 / gf.radius), x_star=None, radius=gf.radius,
            reason="first-return series stays below 1 at its radius",
        )
    h = math.log(1.0 / min(root, gf.radius))
    if gf.radius == math.inf or root < gf.radius * (1 - 1e-12):
        return Classification(
            "positive-recurrent", h, x_star=root, radius=gf.radius,
            reason="root strictly inside the radius, mean loop length finite",
        )
    diverges = getattr(graph.tail, "mean_diverges", None)
    if diverges is True:
        return Classification(
            "null-recurrent", h, x_star=root, radius=gf.radius,
            reason="root at the radius with divergent mean loop length",
        )
    if diverges is False:
        return Classification(
            "positive-recurrent", h, x_star=root, radius=gf.radius,
            reason="root at the radius with convergent mean loop length",
        )
    return Classification(
        "inconclusive", h, x_star=root, radius=gf.radius,
        reason="root at the radius, mean behaviour not certified",
    )


# ---------------------------------------------------------------------------
# entropy at infinity


def big_delta_inf(graph):
    """Certified loop growth at infinity: limsup (1/l) log a_l.

    Finite presentations are compact, so no mass escapes: -inf.
    """
    if isinstance(graph, FiniteGraph):
        return float("-inf")
    if not graph.is_infinite:
        return float("-inf")
    return math.log(graph.tail.growth)


@dataclass
class DeltaCell:
    M: int
    q: int
    rate: float
    empty: bool
    nonzero: int
    estimate: GrowthEstimate = None


@dataclass
class DeltaInfGrid:
    cells: dict
    headline: float
    n_max: int
    method: str

    def to_json(self):
        return {
            "headline": self.headline,
            "n_max": self.n_max,
            "method": self.method,
            "cells": [
                {
                    "M": c.M,
                    "q": c.q,
                    "rate": c.rate,
                    "empty": c.empty,
                    "nonzero": c.nonzero,
                }
                for c in self.cells.values()
            ],
        }


def delta_inf(graph, Ms=(8, 16), qs=(1, 2, 4), n_max=40,
              method="affine-fit", window=None):
    """Escape-rate grid: fit the growth of z_n(M, q) per cell.

    The headline is the smallest fitted rate over the non-empty cells
    (larger budgets M give tighter cells); -inf when every cell is empty.
    """
    cells = {}
    for M in Ms:
        for q in qs:
            series = escape_count(graph, M=M, q=q, n_max=n_max)
            nonzero = sum(1 for c in series.counts if c)
            est = growth_rate(series, method=method, window=window)
            cells[(M, q)] = DeltaCell(M, q, est.rate, nonzero == 0, nonzero, est)
    live = [c.rate for c in cells.values() if not c.empty]
    headline = min(live) if live else float("-inf")
    return DeltaInfGrid(cells, headline, n_max, method)


# ---------------------------------------------------------------------------
# strong positive recurrence


@dataclass
class SprVerdict:
    spr: bool
    entropy: float
    delta_inf: float
    margin: float
    threshold: float


def is_spr(graph, threshold=0.02):
    """Entropy gap at infinity: SPR when h - Delta_inf exceeds the threshold."""
    h = gurevich_entropy(graph).value
    d = big_delta_inf(graph)
    if h == float("-inf"):
        raise NotStronglyConnected("the SPR verdict needs a graph with a cycle")
    margin = h - d
    return SprVerdict(margin > threshold, h, d, margin, threshold)
