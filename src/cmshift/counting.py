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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graphs import _log_big, walk_view


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
# walk counts


def _walk_counts(view, marked, starts, ends, n_edges, budget):
    """[W_1, ..., W_{n_edges}]: W_e counts the walks of e edges on `view`
    from a state in `starts` to a state in `ends` whose positions (both
    endpoints included) fall on `marked` states at most budget(e) times.

    One time-indexed DP over (edges so far, marked positions, state): an
    edge of length l reads the layer l steps back. A layer is one flat list
    of rows, the walks with m marked positions at state s at index
    m * size + s.
    """
    size = view.state_count
    hits = [1 if i in marked else 0 for i in range(size)]
    cap = max(budget(e) for e in range(1, n_edges + 1))
    total = (cap + 1) * size
    # a walk that has used the whole budget can only be counted where it
    # stands when every end is marked
    live = (cap if all(hits[s] for s in ends) else cap + 1) * size
    # an edge into a marked state also moves its walks one row up
    by_length = {}
    for src, dst, mult, length in view.edges:
        if length <= n_edges:
            by_length.setdefault(length, []).append((src, dst + hits[dst] * size, mult))
    by_length = sorted(by_length.items())
    first = [0] * total
    for s in starts:
        if hits[s] <= cap:
            first[hits[s] * size + s] += 1

    def rows(layer):
        # offsets of the nonzero rows that walks may still leave from
        return [row for row in range(0, live, size) if any(layer[row:row + size])]

    layers = [(first, rows(first))]
    counts = []
    for e in range(1, n_edges + 1):
        layer = [0] * total
        for length, edges in by_length:
            if length > e:
                break
            prev, prev_rows = layers[e - length]
            for row in prev_rows:
                for src, dst, mult in edges:
                    c = prev[row + src]
                    if c:
                        j = row + dst
                        if j < total:
                            layer[j] += c * mult
        layers.append((layer, rows(layer)))
        top = min(budget(e), cap)
        counts.append(sum(layer[m * size + s] for m in range(top + 1) for s in ends))
    return counts


def _state(view, vertex):
    state = view.concrete.get(vertex)
    if state is None:
        raise ValidationError(f"vertex {vertex} does not exist in this graph")
    return state


def loop_count(graph, vertex, n_max):
    """Closed walks of n edges at `vertex`, n = 1..n_max."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    view = walk_view(graph, n_max, [vertex])
    v = _state(view, vertex)
    counts = _walk_counts(view, (), [v], [v], n_max, lambda e: 0)
    return CountSeries("loop_count", 1, counts, {"vertex": vertex})


def first_return_count(graph, vertex, n_max):
    """First-return walks of n edges at `vertex`, n = 1..n_max."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    view = walk_view(graph, n_max, [vertex])
    v = _state(view, vertex)
    counts = _walk_counts(view, {v}, [v], [v], n_max, lambda e: 2)
    return CountSeries("first_return", 1, counts, {"vertex": vertex})


def _escape_series(graph, M, q, n_max, a=None, b=None):
    if M < 1 or q < 1 or n_max < 0:
        raise ValidationError("need M >= 1, q >= 1, n_max >= 0")
    pins = [p for p in (a, b) if p is not None]
    view = walk_view(graph, n_max + 1, list(range(1, q + 1)) + pins)
    marked = {i for i, v in enumerate(view.ids) if v <= q}
    if a is None:
        starts = ends = sorted(marked)
    else:
        starts, ends = [_state(view, a)], [_state(view, b)]
    # a word x_0..x_{n+1} is a walk of e = n + 1 edges
    counts = _walk_counts(view, marked, starts, ends, n_max + 1, lambda e: (e + 1) // M)
    meta = {"M": M, "q": q, "states": view.state_count}
    if a is not None:
        meta["pinned"] = [a, b]
    return CountSeries("escape_count", 0, counts, meta)


def escape_count(graph, M, q, n_max):
    """z_n(M, q) for n = 0..n_max: words x_0..x_{n+1} with x_0, x_{n+1} <= q
    and at most floor((n+2)/M) positions at symbols <= q."""
    return _escape_series(graph, M, q, n_max)


def escape_count_pinned(graph, M, q, a, b, n_max):
    """Like escape_count but with x_0 = a and x_{n+1} = b exactly."""
    return _escape_series(graph, M, q, n_max, a=a, b=b)


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
