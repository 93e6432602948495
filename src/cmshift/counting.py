"""Exact integer walk counting on graph presentations.

Counts are exact (arbitrary precision):

* `loop_count`: Z_n, closed walks of n edges at a vertex.
* `first_return_count`: Z*_n, closed walks whose only interior base visits
  are the endpoints.
* `escape_count`: z_n(M, q), words x_0..x_{n+1} with both endpoints at
  symbols <= q and at most floor((n+2)/M) positions at symbols <= q.
* `growth_rate`: exponential growth estimates for any count series.

On a loop system the closed-walk counts use the renewal recurrence
Z_n = sum_k a_k Z_{n-k} at the base vertex; at an interior vertex of a loop
of length l the walks factor through the base, giving Z_n = Z_{n-l}(base)
and Z*_n = W_{n-l} where W uses the loop counts with that one loop removed.
Escape counts run a marked-visit dynamic program over a certified WalkView.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graphs import FiniteGraph, LoopSystem, _log_big, walk_view


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

    @classmethod
    def from_json(cls, doc):
        return cls(
            label=doc.get("label", "counts"),
            start=int(doc["start"]),
            counts=[int(c) for c in doc["counts"]],
            meta=dict(doc.get("meta", {})),
        )


# ---------------------------------------------------------------------------
# closed walks


def _finite_loop_counts(graph, vertex, n_max):
    mult = graph.edge_multiplicities()
    dp = {vertex: 1}
    out = []
    for _ in range(n_max):
        nxt = {}
        for w, c in dp.items():
            for u in graph.out_neighbors(w):
                nxt[u] = nxt.get(u, 0) + c * mult[(w, u)]
        dp = nxt
        out.append(dp.get(vertex, 0))
    return out


def _finite_first_returns(graph, vertex, n_max):
    mult = graph.edge_multiplicities()
    out = [mult.get((vertex, vertex), 0)]
    # dp over walks from `vertex` that have not revisited it
    dp = {u: mult[(vertex, u)] for u in graph.out_neighbors(vertex) if u != vertex}
    for _ in range(2, n_max + 1):
        out.append(sum(c * mult.get((w, vertex), 0) for w, c in dp.items()))
        nxt = {}
        for w, c in dp.items():
            for u in graph.out_neighbors(w):
                if u != vertex:
                    nxt[u] = nxt.get(u, 0) + c * mult[(w, u)]
        dp = nxt
    return out[:n_max]


def _renewal_sequence(loop_counts, n_max):
    """Z_1..Z_n from Z_n = sum_{k<=n} a_k Z_{n-k}, Z_0 = 1."""
    z = [1]
    for n in range(1, n_max + 1):
        z.append(sum(loop_counts[k] * z[n - k] for k in range(1, n + 1)))
    return z


def _locate_interior(system, vertex):
    enum = system.enumeration(vertex)
    length, pos = enum.locate(vertex)
    return length, pos


def loop_count(graph, vertex, n_max):
    """Closed walks of n edges at `vertex`, n = 1..n_max."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if isinstance(graph, FiniteGraph):
        if not (1 <= vertex <= graph.symbols):
            raise ValidationError(f"vertex {vertex} out of range")
        counts = _finite_loop_counts(graph, vertex, n_max)
        return CountSeries("loop_count", 1, counts, {"vertex": vertex})
    system = graph
    base = _renewal_sequence(system.counts(n_max), n_max)
    if vertex == 1:
        counts = base[1:]
    else:
        length, _ = _locate_interior(system, vertex)
        counts = [base[n - length] if n >= length else 0 for n in range(1, n_max + 1)]
    return CountSeries("loop_count", 1, counts, {"vertex": vertex})


def first_return_count(graph, vertex, n_max):
    """First-return walks of n edges at `vertex`, n = 1..n_max."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if isinstance(graph, FiniteGraph):
        if not (1 <= vertex <= graph.symbols):
            raise ValidationError(f"vertex {vertex} out of range")
        counts = _finite_first_returns(graph, vertex, n_max)
        return CountSeries("first_return", 1, counts, {"vertex": vertex})
    system = graph
    a = system.counts(n_max)
    if vertex == 1:
        counts = a[1:]
    else:
        length, _ = _locate_interior(system, vertex)
        # base walks that avoid the one loop through `vertex`
        if length <= n_max:
            a[length] -= 1
        w = _renewal_sequence(a, n_max)
        counts = [w[n - length] if n >= length else 0 for n in range(1, n_max + 1)]
    return CountSeries("first_return", 1, counts, {"vertex": vertex})


# ---------------------------------------------------------------------------
# escape counts


def _escape_series(graph, M, q, n_max, a=None, b=None, max_states=None):
    if M < 1 or q < 1 or n_max < 0:
        raise ValidationError("need M >= 1, q >= 1, n_max >= 0")
    cover = max(q, a or 1, b or 1)
    view = walk_view(graph, n_max + 1, cover_id=cover, max_states=max_states)
    marked = [
        view.state_id(i) is not None and view.state_id(i) <= q
        for i in range(view.state_count)
    ]
    for pin in (a, b):
        if pin is not None and pin not in view.concrete:
            raise ValidationError(f"vertex {pin} does not exist in this graph")

    budget_cap = (n_max + 2) // M
    # dp[m][state] = walks from an allowed start, m marked positions so far
    dp = [[0] * view.state_count for _ in range(budget_cap + 1)]
    if a is not None:
        s0 = view.concrete[a]
        m0 = 1 if marked[s0] else 0
        if m0 <= budget_cap:
            dp[m0][s0] = 1
    else:
        if budget_cap >= 1:
            for i in range(view.state_count):
                if marked[i]:
                    dp[1][i] = 1

    ends = [view.concrete[b]] if b is not None else [
        i for i in range(view.state_count) if marked[i]
    ]
    counts = []
    for e in range(1, n_max + 2):
        nxt = [[0] * view.state_count for _ in range(budget_cap + 1)]
        for m in range(budget_cap + 1):
            row = dp[m]
            for src, dst, mult in view.edges:
                c = row[src]
                if c:
                    m2 = m + (1 if marked[dst] else 0)
                    if m2 <= budget_cap:
                        nxt[m2][dst] += c * mult
        dp = nxt
        n = e - 1
        budget = (n + 2) // M
        counts.append(sum(dp[m][s] for m in range(min(budget, budget_cap) + 1) for s in ends))
    meta = {"M": M, "q": q, "states": view.state_count}
    if a is not None:
        meta["pinned"] = [a, b]
    return CountSeries("escape_count", 0, counts, meta)


def escape_count(graph, M, q, n_max, max_states=None):
    """z_n(M, q) for n = 0..n_max: words x_0..x_{n+1} with x_0, x_{n+1} <= q
    and at most floor((n+2)/M) positions at symbols <= q."""
    return _escape_series(graph, M, q, n_max, max_states=max_states)


def escape_count_pinned(graph, M, q, a, b, n_max, max_states=None):
    """Like escape_count but with x_0 = a and x_{n+1} = b exactly."""
    return _escape_series(graph, M, q, n_max, a=a, b=b, max_states=max_states)


# ---------------------------------------------------------------------------
# growth estimation


@dataclass
class GrowthEstimate:
    method: str
    rate: float
    residual: float
    window: tuple
    points: int


def growth_rate(series, method="affine-fit", window=None):
    """Exponential growth rate of a count series.

    affine-fit: least-squares slope of log c_n against n over the window
    (zero counts are skipped). tail-max: max of (1/n) log c_n over the
    window. Default window is the last half of the series.
    """
    if method not in ("affine-fit", "tail-max"):
        raise ValidationError(f"unknown method {method!r}")
    lo = series.start + len(series) // 2
    hi = series.start + len(series) - 1
    if window is not None:
        lo, hi = window
    pts = [(n, c) for n, c in series.items() if lo <= n <= hi and c > 0]
    if not pts:
        return GrowthEstimate(method, float("-inf"), math.inf, (lo, hi), 0)
    if method == "tail-max":
        rate = max(_log_big(c) / n for n, c in pts if n != 0)
        return GrowthEstimate(method, rate, 0.0, (lo, hi), len(pts))
    if len(pts) == 1:
        n, c = pts[0]
        rate = _log_big(c) / n if n else float("-inf")
        return GrowthEstimate(method, rate, math.inf, (lo, hi), 1)
    xs = np.array([n for n, _ in pts], dtype=float)
    ys = np.array([_log_big(c) for _, c in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return GrowthEstimate("affine-fit", float(slope), resid, (lo, hi), len(pts))
