"""Exact integer walk counting on graph presentations.

Counts are exact (arbitrary precision):

* `loop_count`: Z_n, closed walks of n edges at a vertex.
* `first_return_count`: Z*_n, closed walks whose only interior base visits
  are the endpoints.
* `escape_count`: z_n(M, q), words x_0..x_{n+1} with both endpoints at
  symbols <= q and at most floor((n+2)/M) positions at symbols <= q.
* `growth_rate`: exponential growth estimates for any count series.

The three counts are one kernel, `_walk_counts`, on the rome presentation
`graphs.walk_view`: walks between given states that visit a set of marked
states at most a given number of times. Closed walks mark nothing, first
returns mark the vertex and allow its two endpoint visits, and escape
counts mark the symbols <= q.

Each count builds its view and its counting plan (`_walk_plan`: the edge
polynomials split for the recurrence, and the blocks of the unmarked
states), and nothing is kept on the graph. Neither the plan nor the rows
depend on the visit budget M, so `escape_counts` counts several budgets
at one q in one pass: the cells of one q in a `thermo.delta_inf` grid.

The kernel runs row by row over the number m of marked positions. Row m
holds one exact count series over time per state, and the next row comes
from it through the edges into marked states: each (src, dst) group of
edges is one polynomial in time. Its geometric suffix, the terms
c*g^(l-L)*x^l for l = L..n with an integer g >= 1 (an integer tail
c*g^l), is multiplied into the series by the first-order recurrence
y_t = g*y_(t-1) + c*s_(t-L), O(n) big-integer additions. The other terms
go by one big-integer product (Kronecker substitution: Schoenhage 1982;
Harvey 2009) or, for up to four lengths, by shifted and scaled copies.
The edge groups into a state that share one polynomial take one product
of the sum of their sources' series.
Inside a row the unmarked states follow block by block (their strongly
connected components, in topological order), and only the edges within
a cyclic block are stepped in time, a geometric suffix by one running
value carried across time.
"""

import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, mul

import numpy as np

from .errors import ValidationError
from .graphs import _log_big, strongly_connected_components, walk_view


@dataclass
class CountSeries:
    """A run of exact counts c_n for n = start..start+len-1."""

    label: str
    start: int
    counts: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.counts = [int(c) for c in self.counts]

    def __len__(self):
        return len(self.counts)

    def value(self, n):
        idx = n - self.start
        if not (0 <= idx < len(self.counts)):
            raise ValidationError(f"n={n} outside stored range")
        return self.counts[idx]

    def items(self):
        return [(self.start + i, c) for i, c in enumerate(self.counts)]

    def to_json(self):
        return {
            "label": self.label,
            "start": self.start,
            "counts": [str(c) for c in self.counts],
            "meta": dict(self.meta),
        }

    def to_csv_rows(self):
        rows = [["n", "count"]]
        rows.extend([str(n), str(c)] for n, c in self.items())
        return rows


# ---------------------------------------------------------------------------
# walk counts


def _walk_plan(view, marked):
    """The counting plan of `view` for its walks of at most `view.n_edges`
    edges that count their visits to the `marked` states: everything
    `_walk_counts` needs that does not depend on the endpoints or the
    budgets.

    The plan is (n, hits, into, marked_states, blocks): n is
    `view.n_edges`, hits[s] is 1 at a marked state, into[s] the in-edges of
    a marked state s with each (src, s) polynomial in time split by
    `_split` and merged by `_shared`, and blocks the unmarked strongly
    connected blocks of `_unmarked_blocks`.
    """
    n = view.n_edges
    size = view.state_count
    hits = [1 if s in marked else 0 for s in range(size)]
    # a view has one edge for each (src, dst, length)
    polys = {}
    for src, dst, mult, length in view.edges:
        if length <= n:
            polys.setdefault((src, dst), []).append((length, mult))
    into = [[] for _ in range(size)]
    for (src, dst), terms in polys.items():
        terms.sort()
        into[dst].append((src, _split(terms, n)))
    marked_states = [s for s in range(size) if hits[s]]
    blocks = _unmarked_blocks(hits, into)
    # only the marked states read their in-edges in `_walk_counts`
    return n, hits, [_shared(into[s]) if hits[s] else None for s in range(size)], marked_states, blocks


def _walk_counts(view, marked, starts, ends, budgets):
    """[W_1, ..., W_n] for each budget in `budgets`, n = view.n_edges: W_e
    counts the walks of e edges on `view` from a state in `starts` to a
    state in `ends` whose positions (both endpoints included) fall on
    `marked` states at most budget(e) times. Each budget must be
    nondecreasing in e.

    Row by row: row m holds, for each state, the count series over times
    0..n of the walks with m marked positions that stand there (None when
    they are all zero), and only the previous row is kept. The edges of
    each (src, dst) pair form one polynomial in time, split once into a
    head and a geometric suffix (`_split`). A marked state's series is the
    sum of the previous row's series times the polynomials of its in-edges
    (`_times`). The unmarked states follow within the row, one strongly
    connected block of them at a time in topological order: a block first
    takes the products from states outside it, then steps through time
    along its own edges, by one `sum` over the history of a source per
    lengthed head and one running value per geometric suffix. Rows
    0..budget(e) count at time e: a running sum over the rows of the series
    at the ends gives W_e once row budget(e) is in, and a nondecreasing
    budget reads each e in turn. The rows do not depend on the budget, so
    one pass up to the largest budget(n) serves every budget.
    """
    n, hits, into, marked_states, blocks = _walk_plan(view, marked)
    size = len(hits)
    seeds = {s: hits[s] for s in starts}
    cap = max(budget(n) for budget in budgets)
    # the walks of the last row at unmarked states are needed only when an
    # end is unmarked
    last_needs_blocks = not all(hits[s] for s in ends)
    counts = [[0] * (n + 1) for _ in budgets]
    unread = [1] * len(budgets)
    # the series at the ends summed over the rows so far
    reach = [0] * (n + 1)
    prev = None
    for m in range(cap + 1):
        row = [None] * size
        for s in marked_states:
            if m:
                row[s] = _inflow(prev, into[s], n)
            if seeds.get(s) == m:
                row[s] = _seeded(row[s], n)
        if m < cap or last_needs_blocks:
            for block, outer, inner, tails in blocks:
                for s in block:
                    row[s] = _inflow(row, outer[s], n)
                    if seeds.get(s) == m:
                        row[s] = _seeded(row[s], n)
                if inner or tails:
                    _step(row, block, inner, tails, n)
        for s in ends:
            if row[s] is not None:
                reach = list(map(add, reach, row[s]))
        for k, budget in enumerate(budgets):
            e = unread[k]
            while e <= n and budget(e) <= m:
                counts[k][e] = reach[e]
                e += 1
            unread[k] = e
        if m and row.count(None) == size:
            break
        prev = row
    # the rows past the last one are empty
    for k, e in enumerate(unread):
        counts[k][e:] = reach[e:]
    return [total[1:] for total in counts]


def _split(terms, n):
    """(head, suffix) of one edge group, its (length, mult) terms sorted by
    length. The suffix is (L, c, g) for the longest run of lengths L..n whose
    mults are each an integer g >= 1 times the one before, c the mult at L,
    when that run has two terms or more; the head is the other terms. A run
    that stops short of n has no suffix: its recurrence would add terms the
    group does not have."""
    # lengths are distinct and <= n: the last two are n - 1 and n
    if len(terms) < 2 or terms[-2][0] != n - 1 or terms[-1][1] % terms[-2][1]:
        return terms, None
    g = terms[-1][1] // terms[-2][1]
    k = len(terms) - 2
    while k and terms[k - 1][0] == terms[k][0] - 1 and terms[k - 1][1] * g == terms[k][1]:
        k -= 1
    return terms[:k], (*terms[k], g)


def _unmarked_blocks(hits, into):
    """The strongly connected blocks of the unmarked states, sources first,
    as (states, outer, inner, tails): outer[s] the in-edge groups of s from
    outside its block, inner the (s, singles, groups) of the heads of its
    edge groups within it, and tails the (s, src, *suffix) of their
    geometric suffixes."""
    succ = [[] for _ in hits]
    for s, row in enumerate(into):
        for src, _ in row:
            if not (hits[s] or hits[src]):
                succ[src].append(s)
    blocks = []
    # Tarjan emits each component after every component it reaches; each
    # marked state, with no edge left, is a component of its own
    for block in reversed(strongly_connected_components(succ)):
        if hits[block[0]]:
            continue
        inside = set(block)
        outer = {s: _shared([(src, group) for src, group in into[s] if src not in inside]) for s in block}
        inner, tails = [], []
        for s in block:
            singles, groups = [], []
            for src, (head, suffix) in into[s]:
                if src not in inside:
                    continue
                if suffix:
                    tails.append((s, src, *suffix))
                if len(head) == 1:
                    singles.append((src, *head[0]))
                elif head:
                    low = head[0][0]
                    mults = [0] * (head[-1][0] - low + 1)
                    for length, mult in head:
                        mults[length - low] = mult
                    groups.append((src, low, mults))
            if singles or groups:
                inner.append((s, singles, groups))
        blocks.append((block, outer, inner, tails))
    return blocks


def _shared(groups):
    """The in-edge groups (src, (head, suffix)) of a state merged by their
    polynomial, as (srcs, (head, suffix)): `_inflow` sums the series of
    srcs and multiplies once."""
    merged = {}
    for src, (head, suffix) in groups:
        merged.setdefault((tuple(head), suffix), []).append(src)
    return [(srcs, group) for group, srcs in merged.items()]


def _seeded(series, n):
    """`series` plus one walk at time 0."""
    if series is None:
        series = [0] * (n + 1)
    series[0] += 1
    return series


def _inflow(row, groups, n):
    """Coefficients 0..n of the sum, over the (srcs, group) pairs of
    `_shared`, of the summed row[src] of srcs times the group's polynomial,
    or None when all are zero."""
    total = None
    for srcs, group in groups:
        series = None
        for src in srcs:
            if row[src] is not None:
                series = row[src] if series is None else list(map(add, series, row[src]))
        if series is not None:
            part = _times(series, group, n)
            if part is not None:
                total = part if total is None else list(map(add, total, part))
    return total


def _times(series, group, n):
    """Coefficients 0..n of series(x) times the polynomial of a (head,
    suffix) group from `_split`, or None when they are all zero.

    The suffix (L, c, g), the terms c*g^(l-L)*x^l for l = L..n, is the
    recurrence y_t = g*y_(t-1) + c*s_(t-L): a running sum when g = 1. A head
    of up to four terms is a sum of shifted, scaled copies, and a longer one
    is one big-integer product (`_kronecker`): at n = 20 to 70 the copies
    take 2 to 3 times less time for two terms and the same for six."""
    head, suffix = group
    # the first nonzero count: every earlier one is 0
    low = series.index(next(filter(None, series)))
    total = None
    if len(head) > 4:
        if low + head[0][0] <= n:
            total = _kronecker(series, head, n, low)
    else:
        for length, mult in head:
            if low + length > n:
                break
            part = series[:n + 1 - length]
            part = [0] * length + (part if mult == 1 else [c * mult for c in part])
            total = part if total is None else list(map(add, total, part))
    if suffix and low + suffix[0] <= n:
        length, c, g = suffix
        a = series[low:n + 1 - length]
        if c != 1:
            a = [c * v for v in a]
        ys = accumulate(a) if g == 1 else accumulate(a, lambda y, v: g * y + v)
        part = [0] * (low + length) + list(ys)
        total = part if total is None else list(map(add, total, part))
    return total


def _kronecker(series, terms, n, low):
    """Coefficients 0..n of series(x) * sum(mult * x^length) over several
    terms, the first of them landing by n, by one big-integer product
    (Kronecker substitution): each polynomial packed into an integer, one
    coefficient to a slot of `width` bytes, wide enough that none of the
    slots kept carries into the next."""
    first = terms[0][0]
    top = n - low - first
    a = series[low:low + top + 1]
    b = [0] * (min(terms[-1][0] - first, top) + 1)
    for length, mult in terms:
        if length - first > top:
            break
        b[length - first] = mult
    # slot j <= top adds at most len(b) products a_i b_l with i + l = j, each
    # below 2^peak, the largest bit_length(a_i) + bit_length(b_l) over
    # i + l <= top; the slots past top may carry, but only upward
    b_bits = list(accumulate([c.bit_length() for c in b], max))
    b_bits += [b_bits[-1]] * (top + 1 - len(b))
    peak = max(map(add, [c.bit_length() for c in a], reversed(b_bits)))
    width = (peak + len(b).bit_length() + 7) // 8
    product = _pack(a, width) * _pack(b, width)
    raw = product.to_bytes((product.bit_length() + 7) // 8, "little")
    return [0] * (low + first) + [int.from_bytes(raw[i:i + width], "little")
                                  for i in range(0, width * (top + 1), width)]


def _pack(coeffs, width):
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def _step(row, block, inner, tails, n):
    """Walks that move within a cyclic block, stepped in time: each state
    pulls from the history of its sources in the block, and from each
    geometric suffix (L, c, g) through a running value that time t turns
    into g * run + c * row[src][t - L]. The steps start after the first
    time at which a walk enters the block, and a block that no walk enters
    stays empty."""
    lows = [row[s].index(next(filter(None, row[s]))) for s in block if row[s] is not None]
    if not lows:
        return
    for s in block:
        if row[s] is None:
            row[s] = [0] * (n + 1)
    # the series of the block are filled in place, so each pull can hold
    # its source's list
    pulls = [(row[s], [(row[src], length, mult) for src, length, mult in singles],
              [(row[src], low, mults) for src, low, mults in groups])
             for s, singles, groups in inner]
    tails = [(row[s], row[src], length, coeff, g) for s, src, length, coeff, g in tails]
    runs = [0] * len(tails)
    for t in range(min(lows) + 1, n + 1):
        for series, singles, groups in pulls:
            c = 0
            for past, length, mult in singles:
                if length <= t:
                    c += mult * past[t - length]
            for past, low, mults in groups:
                j = t - low
                if j >= 0:
                    c += sum(map(mul, mults, past[j::-1] if j < len(mults) else past[j:j - len(mults):-1]))
            if c:
                series[t] += c
        if tails:  # finite graphs have none, and this loop is their hot path
            for k, (series, past, length, coeff, g) in enumerate(tails):
                if length <= t:
                    runs[k] = g * runs[k] + coeff * past[t - length]
                    series[t] += runs[k]
    for s in block:
        if not any(row[s]):
            row[s] = None


def _state(view, vertex):
    state = view.concrete.get(vertex)
    if state is None:
        raise ValidationError(f"vertex {vertex} does not exist in this graph")
    return state


def _require_integer(value, name, least):
    """ValidationError naming the argument `name` unless `value` is an
    integer >= least. A plain int skips the slower `numbers.Integral`
    check, which would cost about a microsecond per argument."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{name} must be an integer, got {value!r}", field=name)
    if value < least:
        raise ValidationError(f"{name} must be >= {least}", field=name)


def loop_count(graph, vertex, n_max):
    """Closed walks of n edges at `vertex`, n = 1..n_max."""
    _require_integer(n_max, "n_max", 1)
    view = walk_view(graph, n_max, [vertex])
    v = _state(view, vertex)
    (counts,) = _walk_counts(view, (), [v], [v], [lambda e: 0])
    return CountSeries("loop_count", 1, counts, {"vertex": vertex})


def first_return_count(graph, vertex, n_max):
    """First-return walks of n edges at `vertex`, n = 1..n_max."""
    _require_integer(n_max, "n_max", 1)
    view = walk_view(graph, n_max, [vertex])
    v = _state(view, vertex)
    (counts,) = _walk_counts(view, {v}, [v], [v], [lambda e: 2])
    return CountSeries("first_return", 1, counts, {"vertex": vertex})


def escape_count(graph, M, q, n_max):
    """z_n(M, q) for n = 0..n_max: words x_0..x_{n+1} with x_0, x_{n+1} <= q
    and at most floor((n+2)/M) positions at symbols <= q."""
    (series,) = escape_counts(graph, [M], q, n_max)
    return series


def escape_counts(graph, Ms, q, n_max):
    """`escape_count` for each budget M in `Ms` at one q and n_max, as a
    list in the order of `Ms`. The walk view, its counting plan and the
    rows of the count depend on q and n_max alone, so one pass of the rows
    serves every M."""
    for M in Ms:
        _require_integer(M, "M", 1)
    _require_integer(q, "q", 1)
    _require_integer(n_max, "n_max", 0)
    # a word x_0..x_{n+1} is a walk of e = n + 1 edges
    view = walk_view(graph, n_max + 1, list(range(1, q + 1)))
    marked = {i for i, v in enumerate(view.ids) if v <= q}
    endpoints = sorted(marked)
    budgets = [lambda e, M=M: (e + 1) // M for M in Ms]
    rows = _walk_counts(view, marked, endpoints, endpoints, budgets) if Ms else []
    return [CountSeries("escape_count", 0, counts, {"M": M, "q": q, "states": view.state_count})
            for M, counts in zip(Ms, rows)]


# ---------------------------------------------------------------------------
# growth estimation


@dataclass
class GrowthEstimate:
    rate: float
    residual: float
    window: tuple


def growth_rate(series):
    """Exponential growth rate of a count series: the least-squares slope
    of log c_n against n over the last half of the series (zero counts are
    skipped).
    """
    lo = series.start + len(series) // 2
    hi = series.start + len(series) - 1
    pts = [(n, c) for n, c in series.items() if lo <= n <= hi and c > 0]
    if not pts:
        return GrowthEstimate(float("-inf"), math.inf, (lo, hi))
    if len(pts) == 1:
        n, c = pts[0]
        rate = _log_big(c) / n if n else float("-inf")
        return GrowthEstimate(rate, math.inf, (lo, hi))
    xs = np.array([n for n, _ in pts], dtype=float)
    ys = np.array([_log_big(c) for _, c in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return GrowthEstimate(float(slope), resid, (lo, hi))
