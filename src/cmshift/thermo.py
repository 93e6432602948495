"""Gurevich pressure and entropy, loop generating functions, recurrence
classification, and entropy at infinity.

For a loop system with counts a_l, the first-return generating function is
f(x) = sum a_l x**l, with radius of convergence R = 1/growth. The entropy is
-log x_c where x_c = min(x*, R) and x* is the root of f(x) = 1 when it
exists. The classification follows the shape of f at its radius:

* f(R) < 1 (certified by partial sums plus a tail bound): transient,
* a root x* < R: positive recurrent (the mean loop length at x* converges
  geometrically because x* is strictly inside the radius),
* root exactly at the radius: null recurrent when the mean loop length
  diverges there, positive recurrent when it converges.

`pressure(graph, t, q)` is the one kernel for the Gurevich pressure
P(-t 1_F), F the symbols <= q, and the entropy is its value at t = 0:
`gurevich_entropy`, `classify`, `perron_root`, `is_spr` and
`measures.loop_mme` all read it. On a finite graph it is the largest log
Perron root of the weighted blocks of the graph's Perron plan, whose
`Block.perron` gives `measures.parry_measure` its Perron vectors: the
first-return root at a one-vertex rome, else the log root of the one
log-weight kernel `_perron_vector`. On a loop system it is -log of the root
of the loop series with each loop weighted by e^(-t * its visits to F).

Every finite first-return series (a Perron root at a one-vertex rome, the
weighted series of a finite loop system, the window chains of `measures`)
is solved by `series_root`, in log x; one with an infinite tail by
`LoopGF.root`, in x on the certified bounds of `LoopGF.value_bounds`, whose
unweighted case is `x_star`. Both run `bracket_root`. Its test returns a
certified sign and the computed value behind it; it takes secant steps
through the last two values while they stay inside the certified bracket
and shrink (Brent's safeguard, else the midpoint), and once the sign can no
longer tell the value from 1 it finishes at the float root of the computed
value, inside the certified bracket. Those bounds are a function of the
system, x and the summed range alone, so each is computed once per system:
the `LoopSystem` keeps the summation slices of its count table and up to
`BOUNDS_MEMO` bounds, which every query of the same system object (x*,
pressures, `b_inf_estimate`'s search) shares.

The entropy at infinity is approached from two sides: `big_delta_inf` reads
the certified loop growth of the presentation, and `delta_inf` fits escape
count series z_n(M, q) on a grid of budgets M and thresholds q, taking the
smallest fitted rate as the headline estimate.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counting import escape_counts, growth_rate, loop_count
from .errors import NonConvergent, NotStronglyConnected, ValidationError
from .graphs import (
    SERIES_TERMS,
    FiniteGraph,
    GeometricTail,
    LoopSystem,
    _log_big,
    strongly_connected_components,
)

# ---------------------------------------------------------------------------
# Perron data of nonnegative matrices
#
# A one-vertex rome of a strongly connected graph is a vertex r that every
# cycle passes through (Block, Guckenheimer, Misiurewicz and Young, 1980), so
# the graph minus r is acyclic. The block systems of `density` have one (the
# first slot start), and so do whole-loop truncations of loop systems (the
# base). There the Perron root solves the first-return series at r,
# sum_L c_L x**L = 1, with lam = 1/x, and the Perron vectors follow from one
# pass each over the acyclic rest: no eigensolver is needed.
#
# `_blocks` splits any nonnegative square matrix into the strongly connected
# blocks of its support, each with its edges (the nonzero entries of its
# submatrix) and its rome: a graph's adjacency matrix in its Perron plan
# (`_plan`), kept on the graph as a LoopSystem keeps its count table, and
# P.T for the stationary vector of `measures.markov_measure`. The t = 0
# answer of a block depends on its edges alone: from the block's first
# unshifted query on, it keeps what it solved, one cached property each:
# the first-return series or the dense root, the log Perron root, and the
# certified right vector and, once `perron` asks, the left one. A query then
# runs only what depends on its potential, and every entropy, Perron root
# and Parry chain of one graph object shares one Perron solve per block.
#
# Every block without a rome goes to one kernel on log weights
# (`_perron_vector`): log a at t = 0, log a + shift for a pressure, from
# the dense log weights `Block.logs` that only such a block builds. The log
# Collatz-Wielandt ratios LSE_j(logs_ij + u_j) - u_i of any log vector u
# bracket the log Perron root (Seneta, Non-negative Matrices and Markov
# Chains, ch. 1), so one vector and one eig call per pass certify a root,
# and no weight underflows before the check. Only a Parry chain adds the
# left vector, one more call on the transposed logs; the same ratios, summed
# over the block's edge lists, check each vector of a rome block.

# widest accepted log Collatz-Wielandt bracket
PERRON_BRACKET = 1e-9
# eig passes on one vector before NonConvergent; each rescaling by the last
# vector recovers entries that the previous pass had only to absolute accuracy
PERRON_PASSES = 4
# the spacing of floats at 1
_ULP = 2.0 ** -52


def _rome(n, rows, cols, weights):
    """A one-vertex rome of the n-vertex support of the edges (rows, cols,
    weights), given row-major: (r, order, succ, pred), with order a
    topological order of the other vertices and succ/pred the
    (neighbour, weight) lists of every vertex; None when there is none.

    Every sink of the acyclic graph left by a rome sends all its edges to
    the rome, so only the single out-neighbours of rows with exactly one
    edge are candidates. Each is tested with one Kahn pass, the most common
    first.
    """
    out = np.bincount(rows, minlength=n)
    if 1 not in out.tolist():
        return None
    hits = np.bincount(cols[out[rows] == 1], minlength=n)
    candidates = np.argsort(-hits, kind="stable")[: np.count_nonzero(hits)]
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for u, w, x in zip(rows.tolist(), cols.tolist(), weights.tolist()):
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


def _rome_vector(r, order, lists, y):
    """The Perron vector with entry 1 at the rome r of a nonnegative matrix
    of log Perron root y: v_u = e^-y times the sum of c v_w over the (w, c)
    of lists[u], for u along order. The right vector reads succ backward
    along the topological order of `_rome`, the left one pred forward.
    NonConvergent when the hull of y and its log Collatz-Wielandt ratios,
    the same sums over every lists[u] divided by v_u, is wider than
    PERRON_BRACKET."""
    x = math.exp(-y)
    v = [0.0] * len(lists)
    v[r] = 1.0
    for u in order:
        v[u] = x * sum(c * v[w] for w, c in lists[u])
    sums = np.array([sum(c * v[w] for w, c in edges) for edges in lists])
    v = np.array(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        width = _log_width(np.log(sums / v), y)
    if width > PERRON_BRACKET:
        raise NonConvergent(f"first-return log Collatz-Wielandt bracket of width {width}")
    return v


def _top_eigenpair(b):
    vals, vecs = np.linalg.eig(b)
    k = np.argmax(vals.real)
    return float(vals[k].real), np.abs(vecs[:, k])


def _log_width(ratios, y):
    """Width of the hull of y and the log Collatz-Wielandt ratios
    log (A v)_i - log v_i of a nonnegative vector v, which contain the log
    Perron root of A for every positive v; NonConvergent on a ratio that is
    not finite (an entry of v zero or out of range: a reducible matrix)."""
    if not np.isfinite(ratios).all():
        raise NonConvergent("a Perron vector entry is zero or out of float range")
    return max(ratios.max(), y) - min(ratios.min(), y)


def _perron_vector(logs):
    """(y, u): the log Perron root and a log right Perron vector, largest
    entry 0, of the nonnegative matrix e^logs, certified by u's own log
    Collatz-Wielandt ratios LSE_j(logs_ij + u_j) - u_i.

    Each pass runs eig on the matrix rescaled by the last log vector (0 at
    first), built straight from the logs as e^(logs_ij + u_j - u_i - c), c
    its largest exponent, and fills the entries eig lost to zero from the
    eigen-equation u_i = LSE_j(logs_ij + u_j) - y. eig gets entries far
    below the largest only to absolute accuracy, so a bracket wider than
    PERRON_BRACKET is retried on the matrix rescaled by the new vector,
    whose Perron vector is close to all ones.
    """
    u = np.zeros(len(logs))
    for _ in range(PERRON_PASSES):
        z = logs + (u - u[:, None])
        c = float(z.max())
        lam, v = _top_eigenpair(np.exp(z - c))
        if not lam > 0:
            break
        y = math.log(lam) + c
        with np.errstate(divide="ignore"):
            u = u + np.log(v)
        for _ in range(len(u)):
            lost = u == -math.inf
            if not lost.any():
                break
            u[lost] = np.logaddexp.reduce(logs[lost] + u, axis=1) - y
        with np.errstate(invalid="ignore"):
            ratios = np.logaddexp.reduce(logs + u, axis=1) - u
        if _log_width(ratios, y) <= PERRON_BRACKET:
            return y, u - u.max()
    raise NonConvergent(f"Perron bracket wider than {PERRON_BRACKET} after {PERRON_PASSES} passes")


@dataclass(frozen=True)
class Block:
    """A strongly connected block of a nonnegative square matrix, as its
    queries read it: `idx` its indices, ascending (a graph's symbols - 1);
    `edges` the (rows, cols, weights) of the nonzero entries of its
    submatrix, in block indices and row-major order; and `rome` a one-vertex
    rome of its support (`_rome`), or None. Its arrays are read-only, and it
    carries a cycle exactly when it has an edge.

    Its t = 0 Perron data is built on the block's first unshifted query
    and kept, one cached property per thing solved: `returns` at a rome,
    `right` elsewhere, `log_root`, and once the Perron vectors are asked
    for, `right` at a rome and `perron`. A block without a rome keeps its
    dense log weights `logs` from its first eig solve on; a rome block
    never builds a dense array. A block queried only at shifted potentials
    builds no t = 0 data, and a query that raises keeps nothing, so it
    raises again on the next one."""

    idx: np.ndarray
    edges: tuple
    rome: tuple

    @cached_property
    def logs(self):
        """The read-only log weights of a block without a rome: log a_ij on
        its edges, -inf elsewhere."""
        rows, cols, weights = self.edges
        logs = np.full((len(self.idx), len(self.idx)), -math.inf)
        logs[rows, cols] = np.log(weights)
        logs.flags.writeable = False
        return logs

    @cached_property
    def returns(self):
        """The unweighted first-return series at the rome
        (`_first_returns`), read-only."""
        returns = _first_returns(self.rome)
        for array in returns[:2]:
            array.flags.writeable = False
        return returns

    @cached_property
    def right(self):
        """(y, v): the certified log Perron root and read-only positive right
        vector: one backward pass over the acyclic rest at a rome, else the
        exponential of the log vector of `_perron_vector`."""
        if self.rome is None:
            y, u = _perron_vector(self.logs)
            v = np.exp(u)
        else:
            r, order, succ, _ = self.rome
            y = self.log_root
            v = _rome_vector(r, order[::-1], succ, y)
        v.flags.writeable = False
        return y, v

    @cached_property
    def log_root(self):
        """The log of the block's Perron root: -log of the first-return
        root at the rome, else the dense log root; -inf for an edgeless
        block, which has no cycle."""
        if self.rome is not None:
            # a zero entropy reads 0.0, not -0.0
            return 0.0 - series_root(*self.returns)
        if not self.edges[0].size:
            return -math.inf
        return self.right[0]

    @cached_property
    def perron(self):
        """(lam, left, right): the Perron root and positive left and right
        vectors of the block, each certified by its own log Collatz-Wielandt
        ratios, the left one against the transposed matrix. The vectors are
        read-only.

        It adds the left vector to `right`: one forward pass over the acyclic
        rest at a rome, else `_perron_vector` on the transposed logs.
        NonConvergent on a bracket still too wide.
        """
        y, right = self.right
        if self.rome is None:
            left = np.exp(_perron_vector(self.logs.T)[1])
        else:
            r, order, _, pred = self.rome
            left = _rome_vector(r, order, pred, y)
        left.flags.writeable = False
        return math.exp(y), left, right


def _block(idx, a, rows, cols):
    """The Block of the indices idx, given their submatrix a and its
    nonzero (rows, cols)."""
    edges = (rows, cols, a[rows, cols])
    for array in (idx, *edges):
        array.flags.writeable = False
    return Block(idx, edges, _rome(len(idx), *edges))


def _blocks(a):
    """The Blocks of the strongly connected components of the support of a
    nonnegative square matrix a, in the order of
    strongly_connected_components (each after every block it reaches); one
    block, whose edges are the nonzero entries of a, when the support is
    strongly connected. A block carries a cycle exactly when it has an
    edge."""
    succ = [[] for _ in range(len(a))]
    rows, cols = np.nonzero(a)
    for u, w in zip(rows.tolist(), cols.tolist()):
        succ[u].append(w)
    comps = strongly_connected_components(succ)
    if len(comps) == 1:
        return (_block(np.arange(len(a)), a, rows, cols),)
    blocks = []
    for comp in comps:
        idx = np.array(sorted(comp))
        sub = a[np.ix_(idx, idx)]
        blocks.append(_block(idx, sub, *np.nonzero(sub)))
    return tuple(blocks)


def _plan(graph):
    """The Perron plan of a finite graph: the `_blocks` of its adjacency
    matrix, the one owner of the graph's blocks and of their cycles.

    It depends on the graph alone, so the graph keeps it in `perron_plan`:
    built on the first Perron query and attached with one assignment, then
    read by every later pressure, Perron root, classification and Parry
    chain of the same graph object.
    """
    if graph.perron_plan is None:
        graph.perron_plan = _blocks(adjacency_matrix(graph))
    return graph.perron_plan


def _irreducible(blocks, message):
    """The one block of `_blocks` when it has an edge;
    NotStronglyConnected with message on any other blocks."""
    if len(blocks) != 1 or not blocks[0].edges[0].size:
        raise NotStronglyConnected(message)
    return blocks[0]


def _max_block_root(plan, shift=None):
    """The log of the largest Perron root over the blocks of a plan; -inf
    when the graph has no cycle. Without shift it reads each block's kept
    `log_root`.

    With shift, an array over the symbols, each edge into j gains the log
    weight shift[j]: along the first returns of a block with a one-vertex
    rome, else in the log weights log a + shift that `_perron_vector`
    solves, heaviest columns first, where eig leaves fewer brackets too
    wide than in symbol order.
    """
    if shift is None:
        return max(block.log_root for block in plan)
    best = -math.inf
    for block in plan:
        if block.rome is not None:
            y = 0.0 - series_root(*_first_returns(block.rome, shift[block.idx].tolist()))
        elif block.edges[0].size:
            shifts = shift[block.idx]
            order = np.argsort(-shifts, kind="stable")
            y = _perron_vector(block.logs[np.ix_(order, order)] + shifts[order])[0]
        else:
            continue
        best = max(best, y)
    return best


def adjacency_matrix(graph):
    """Dense matrix of edge multiplicities, indexed by symbol - 1."""
    a = np.zeros((graph.symbols, graph.symbols))
    for (i, j), m in graph.edge_multiplicities().items():
        a[i - 1, j - 1] = m
    return a


def perron_root(graph):
    """Spectral radius of the adjacency (multiplicity) matrix, the largest
    Perron root over the strongly connected components: e^pressure(graph)."""
    return math.exp(pressure(graph))


# ---------------------------------------------------------------------------
# roots of increasing loop equations


def side_of_one(lo, hi):
    """(sign, estimate) of a value from certified bounds (lo, hi) on it: the
    sign is -1, 1 or 0 as the bounds lie below 1, above 1 or around it, and
    the estimate is 1 - 1/mid, mid the midpoint of the bounds. It has the
    sign of mid - 1 but stays nearly linear in x up to a pole of the series
    at its radius, where mid - 1 would leave the secant steps of
    bracket_root crawling."""
    mid = 0.5 * (lo + hi)
    estimate = 1.0 - 1.0 / mid if 0.0 < mid < math.inf else math.copysign(math.inf, mid - 1.0)
    if hi < 1.0:
        return -1, estimate
    if lo > 1.0:
        return 1, estimate
    return 0, estimate


def _secant(p, q):
    """The zero of the line through the evaluations p = (x, estimate) and q;
    None when the line is flat or an estimate is not finite."""
    (x1, e1), (x2, e2) = p, q
    if e1 == e2 or not (math.isfinite(e1) and math.isfinite(e2)):
        return None
    return float(x2 - e2 * (x2 - x1) / (e2 - e1))


def bracket_root(side, lo, hi):
    """The crossing of an increasing test in (lo, hi), closed on two floats.

    side(x) returns (sign, estimate). The sign is certified: negative below
    the crossing, positive above it, and 0 where the bounds behind it cannot
    tell. The estimate is the computed value whose zero is the crossing, of
    the same sign where the sign is not 0.

    Each step takes the secant point through the last two evaluations when
    it lies strictly inside the certified bracket and is shorter than half
    the step before last (Brent's safeguard), and the midpoint otherwise, so
    a smooth estimate converges superlinearly and a wild one is bisected. A
    secant point at or past the newest end of the bracket, which the
    certified sign there denies, puts the crossing within rounding of that
    end, and the float next to it is tried. Once the sign reads 0,
    `_float_root` finishes inside the bracket at the float root of the
    estimate. Returns that pair of adjacent floats (one float twice where
    the estimate is exactly 0), or, when the sign never reads 0, the
    adjacent floats the certified bracket closed to.
    """
    points = []
    # the lengths of the last two steps
    steps = (math.inf, math.inf)
    while True:
        x = None
        if len(points) >= 2:
            newest = points[-1][0]
            x = _secant(points[-2], points[-1])
            if x is not None and not abs(x - newest) < 0.5 * steps[0]:
                x = None
            elif x is not None and not lo < x < hi and (x >= hi) == (newest == hi):
                # the secant puts the crossing at or past the newest end of
                # the bracket, which its certified sign denies: the crossing
                # is within rounding of it, so try the float next to it
                x = math.nextafter(newest, lo + hi - newest)
        if x is None or not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return lo, hi
        sign, estimate = side(x)
        if sign == 0:
            return _float_root(side, lo, hi, points[-1:] + [(x, estimate)])
        steps = (steps[1], abs(x - points[-1][0]) if points else math.inf)
        if sign < 0:
            lo = x
        else:
            hi = x
        points.append((x, estimate))


def _float_root(side, lo, hi, points):
    """Adjacent floats a < b in the certified bracket (lo, hi) with the
    estimate negative at a and not at b, or (x, x) at an x where it is 0.

    points are the last evaluations, the newest inside the zone where the
    sign reads 0. One secant step through them, then a gallop of 1, 2, 4, ...
    ulps towards the sign change, then bisection of the floats between.
    """
    bracket = [lo, hi]

    def place(x, e):
        if e == 0:
            bracket[:] = [x, x]
        else:
            bracket[0 if e < 0 else 1] = x
        return e

    x, e = points[-1]
    place(x, e)
    guess = _secant(*points) if len(points) == 2 else None
    if guess is not None and bracket[0] < guess < bracket[1]:
        x, e = guess, place(guess, side(guess)[1])
    step, toward = math.ulp(x), (1.0 if e < 0 else -1.0)
    while bracket[0] < (y := x + toward * step) < bracket[1]:
        if (place(y, side(y)[1]) < 0) != (e < 0):
            break
        x, step = y, 2 * step
    while True:
        a, b = bracket
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return a, b
        place(mid, side(mid)[1])


def series_root(lengths, logs, err=0.0):
    """y = log x* of the root of sum_k exp(logs[k] + lengths[k] y) = 1, a
    finite first-return series, by bracket_root in y: the sign widens the
    log-sum-exp of the series by err (a bound on the rounding of every entry
    of logs) and by the rounding of the terms, and the estimate is the
    log-sum-exp itself, which is nearly linear in y. Secant steps reach its
    rounding zone and the float root finish closes on the pair of floats
    where the computed log-sum-exp changes sign; y is their midpoint.
    NonConvergent on an empty series.

    The lengths become floats once; each side test then makes one pass of
    multiply, add, max, subtract, exp and pairwise sum over one reused
    buffer of len(lengths) floats, and allocates no array."""
    if not len(lengths):
        raise NonConvergent("the first-return series has no term")
    # the largest term alone reaches 1 at hi; all len(logs) terms stay
    # below 1 at lo
    hi = float(np.min(-logs / lengths))
    lo = float(np.min(-(logs + math.log(len(logs))) / lengths))
    top_log, top_length = float(np.abs(logs).max()), float(lengths.max())
    flengths = lengths.astype(float)
    terms = np.empty_like(flengths)

    def side(y):
        # terms = logs + lengths * y, then the log-sum-exp, in the buffer
        np.multiply(flengths, y, out=terms)
        np.add(logs, terms, out=terms)
        m = np.maximum.reduce(terms)
        np.subtract(terms, m, out=terms)
        np.exp(terms, out=terms)
        total = m + math.log(np.add.reduce(terms))
        slack = err + 2 * _ULP * (top_log + top_length * abs(y) + len(logs) + 1)
        if total + slack < 0:
            return -1, total
        if total - slack > 0:
            return 1, total
        return 0, total

    lo, hi = bracket_root(side, lo - 1e-9 * (1 + abs(lo)), hi + 1e-9 * (1 + abs(hi)))
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# loop generating functions

# widening of LoopGF.value_bounds relative to the bounded value
RELATIVE_SLACK = 1e-13
# most certified bounds a LoopSystem keeps; one round of the loops benchmark
# needs at most 996 on any one system (seed 1)
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
        the tail rule's bounds plus the explicit loops longer than beyond.

        The upper bound is nonincreasing in beyond at each x: the geometric
        envelope shrinks with its first power, the explicit sum loses terms,
        and a FormulaTail's upper_sum must shrink too (its stated contract).
        `measures.loop_mme` bisects on it."""
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
        one holding only the newest entry, and the slices go with it, which
        bounds the memory a long search leaves on the system.
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

    def root(self, head, weight, beyond):
        """The root in (0, R] of g(x) = 1, or None when g(R) < 1, for the
        weighted series g(x) = sum of w x**l over the (l, w) of head, plus
        weight times the terms of f(x) with length > beyond.

        bracket_root runs in x on certified bounds of g: the nonnegative head
        terms are each good to a few ulps, and the rest is value_bounds.
        Their side_of_one estimate 1 - 1/g keeps the secant steps fast up to
        a pole of g at R, and the float root finish closes on the floats
        where the midpoint of the bounds crosses 1. Where the bounds at R
        cannot tell g from 1, a tail's declared `series_at_radius` settles
        the unweighted series f (no head, weight 1).
        """

        def side(x):
            lo, hi = self.value_bounds(x, beyond)
            if not head:
                # 0.0 + weight * lo is weight * lo exactly for bounds >= 0
                return side_of_one(weight * lo, weight * hi)
            # x <= R <= 1, so no power leaves the float range
            near = math.fsum([w * x**length for length, w in head])
            return side_of_one(
                near * (1.0 - RELATIVE_SLACK) + weight * lo,
                near * (1.0 + RELATIVE_SLACK) + weight * hi,
            )

        at_radius = side(self.radius)[0]
        if at_radius < 0:
            return None
        if at_radius == 0 and not head and weight == 1.0:
            declared = getattr(self.system.tail, "series_at_radius", None)
            if declared is not None and declared <= 1.0:
                return None if declared < 1.0 else self.radius
            # fall through: the root closes next to R, where the bounds
            # cannot tell f from 1
        lo, hi = bracket_root(side, 0.0, self.radius)
        return 0.5 * (lo + hi)

    def x_star(self):
        """The root of f(x) = 1 in (0, R], or None when f(R) < 1: the
        unweighted root of `pressure`."""
        return _critical(self.system)[0]


# ---------------------------------------------------------------------------
# pressure of -t * indicator(symbols <= q)


def _visit_exponents(system, t, q):
    """{l: exponents}: -t times the visits to the symbols <= q (the base and
    the interior ids first..min(last, q)) of every loop of length l with an
    interior symbol <= q. Every other loop visits only the base among them,
    and the interior ids start at 2."""
    inner = {}
    if q < 2:
        return inner
    for length, first, last in system.enumeration(q).rows:
        if first > q:
            break
        inside = min(last, q) - first + 1
        inner.setdefault(length, []).append(-t * (1 + inside))
    return inner


def _critical(system, t=0.0, q=0):
    """(x, P) for the loop series of a loop system with each loop weighted by
    e^(-t * its visits to the symbols <= q): x its root (None when it stays
    below 1 at the radius R, inf past the floats) and P = -log min(x, R),
    the pressure.

    A finite system sums each length's weights from their exponents by
    log-sum-exp for series_root, which returns y = log x. With an infinite
    tail the loops up to the longest one with an interior symbol <= q are
    summed with their own weights, every longer loop from the certified
    bounds of the loop series past it at the base weight, by LoopGF.root.
    """
    inner = _visit_exponents(system, t, q)
    # the base is a symbol <= q unless F is empty
    base = -t if q >= 1 else 0.0
    if not system.is_infinite:
        lengths, logs, size = [], [], 0.0
        for length, a in system.explicit_loops:
            exps = inner.get(length, [])
            if a > len(exps):
                exps = exps + [base + _log_big(a - len(exps))]
            lengths.append(length)
            logs.append(log_sum(exps))
            size = max(size, max(map(abs, exps)) + len(exps))
        # each exponent, and each log-sum-exp of them, is good to a few ulps
        # of the magnitudes it handles
        y = series_root(np.array(lengths), np.array(logs), 4 * _ULP * size)
        try:
            x = math.exp(y)
        except OverflowError:  # heavy weights put the root past the floats
            x = math.inf
    else:
        gf = LoopGF(system)
        base_weight = math.exp(base)
        longest = max(inner, default=0)
        # without a loop through an interior symbol <= q the head is empty
        head = []
        for length, a in enumerate(system.counts(longest) if inner else ()):
            if a:
                ws = [math.exp(e) for e in inner.get(length, [])]
                head.append((length, math.fsum(ws + [(a - len(ws)) * base_weight])))
        x = gf.root(head, base_weight, longest)
        y = math.log(gf.radius if x is None else x)
    # -log x takes one rounding where log(1 / x) takes two; 0.0 - y is -y,
    # but a zero pressure reads 0.0, not -0.0
    return x, 0.0 - y


def pressure(graph, t=0.0, q=0):
    """Gurevich pressure of the potential -t on the symbols <= q, 0
    elsewhere; at t = 0 or q = 0 the Gurevich entropy.

    On a finite graph the log of the largest Perron root over its blocks
    with weight e^-t on every edge entering a symbol <= q; on a loop system
    -log of the root of its weighted loop series (`_critical`).
    """
    if not isinstance(graph, FiniteGraph):
        return _critical(graph, t, q)[1]
    shift = None
    if t and q:
        shift = np.zeros(graph.symbols)
        shift[:q] = -t
    return _max_block_root(_plan(graph), shift)


# ---------------------------------------------------------------------------
# entropy


@dataclass
class EntropyReport:
    value: float
    method: str
    truncations: list
    count_rate: float = None


def gurevich_entropy(graph, n_max=40, trace_qs=(4, 8, 16, 32, 64)):
    """Exponential growth rate of loop counts at a vertex: the pressure at
    t = 0, pressure(graph).

    Finite graphs take the largest log Perron root over their strongly
    connected blocks (the first-return root at a one-vertex rome, else dense
    eig). Loop systems solve f(x_c) = 1 on the first-return series (x_c
    capped at the radius) and corroborate with a truncation trace and, when
    n_max allows, a direct growth fit on exact loop counts. Every cycle of a
    truncation is a whole loop through the base, so its entropy is that of
    the finite loop system of its whole loops.
    """
    if isinstance(graph, FiniteGraph):
        value = pressure(graph)
        return EntropyReport(value, "perron", [(graph.symbols, value)])
    value = _critical(graph)[1]
    trace = []
    for q in trace_qs:
        _, loops = graph.whole_loops(q)
        trace.append((q, pressure(LoopSystem(loops)) if loops else float("-inf")))
    count_rate = None
    if n_max and n_max >= 8:
        count_rate = growth_rate(loop_count(graph, 1, n_max)).rate
    return EntropyReport(value, "generating-function", trace, count_rate)


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
    """Vere-Jones recurrence classification of an irreducible presentation.
    The entropy is the pressure at t = 0."""
    if isinstance(graph, FiniteGraph):
        _irreducible(_plan(graph), "classification needs a strongly connected graph")
        h = pressure(graph)
        return Classification(
            "positive-recurrent", h, x_star=math.exp(-h), radius=None,
            reason="finite strongly connected graph",
        )
    radius = LoopGF(graph).radius
    root, h = _critical(graph)
    diverges = getattr(graph.tail, "mean_diverges", None)
    if root is None:
        verdict, reason = "transient", "first-return series stays below 1 at its radius"
    elif radius == math.inf or root < radius * (1 - 1e-12):
        verdict = "positive-recurrent"
        reason = "root strictly inside the radius, mean loop length finite"
    elif diverges is True:
        verdict, reason = "null-recurrent", "root at the radius with divergent mean loop length"
    elif diverges is False:
        verdict = "positive-recurrent"
        reason = "root at the radius with convergent mean loop length"
    else:
        verdict, reason = "inconclusive", "root at the radius, mean behaviour not certified"
    return Classification(verdict, h, x_star=root, radius=radius, reason=reason)


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


def delta_inf(graph, Ms=(8, 16), qs=(1, 2, 4), n_max=40):
    """Escape-rate grid: fit the growth of z_n(M, q) per cell, by the
    affine fit of growth_rate over the last half of the series.

    The headline is the smallest fitted rate over the non-empty cells
    (larger budgets M give tighter cells); -inf when every cell is empty.
    The cells of one q share one walk view, its counting plan and one pass
    of the rows (`escape_counts`).
    """
    for name, values in (("Ms", Ms), ("qs", qs)):
        if not values:
            raise ValidationError(f"{name} must not be empty", field=name)
    by_q = {q: escape_counts(graph, Ms, q, n_max) for q in qs}
    cells = {}
    for i, M in enumerate(Ms):
        for q in qs:
            series = by_q[q][i]
            nonzero = sum(1 for c in series.counts if c)
            est = growth_rate(series)
            cells[(M, q)] = DeltaCell(M, q, est.rate, nonzero == 0, nonzero)
    live = [c.rate for c in cells.values() if not c.empty]
    headline = min(live) if live else float("-inf")
    return DeltaInfGrid(cells, headline, n_max, "affine-fit")


# ---------------------------------------------------------------------------
# strong positive recurrence


# the least entropy gap h - Delta_inf that is_spr calls strongly positive
# recurrent
SPR_THRESHOLD = 0.02


@dataclass
class SprVerdict:
    spr: bool
    entropy: float
    delta_inf: float
    margin: float
    threshold: float


def is_spr(graph):
    """Entropy gap at infinity: SPR when h - Delta_inf exceeds SPR_THRESHOLD."""
    h = pressure(graph)
    d = big_delta_inf(graph)
    if h == float("-inf"):
        raise NotStronglyConnected("the SPR verdict needs a graph with a cycle")
    margin = h - d
    return SprVerdict(margin > SPR_THRESHOLD, h, d, margin, SPR_THRESHOLD)
