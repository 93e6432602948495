"""Graph presentations of countable Markov shifts.

Two presentations are supported:

* `FiniteGraph`: symbols 1..S with an explicit edge set (multiplicities
  allowed internally; JSON documents are simple).
* `LoopSystem`: a distinguished base vertex with `a_l` first-return loops of
  each length `l`, given by an explicit list plus an optional infinite tail
  rule. Loops of length l >= 2 have l-1 interior vertices of their own; loops
  of length 1 are parallel self-edges at the base. Parallel loops make the
  presentation a multigraph, and every count downstream is a walk count
  (equal to the cylinder count whenever the presentation is simple).

The canonical enumeration gives the base vertex id 1 and numbers loop
interiors consecutively, loops ordered by (length, explicit-before-tail,
insertion order). Truncating at q keeps the induced subgraph on ids <= q.
"""

import itertools
import json
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, SchemaError, ValidationError


# longest prefix of loop counts a LoopSystem caches; the loop series sums at
# most this many terms
SERIES_TERMS = 4096
# counts longer than this many bits enter float sums through their logarithm
BIG_BITS = 500
# most symbols a FiniteGraph may have: its kernels hold dense symbols x
# symbols float matrices, 128 MiB at this size
MAX_SYMBOLS = 4096


def _log_big(c):
    """log of a positive integer of any size."""
    if c.bit_length() <= 900:
        return math.log(c)
    shift = c.bit_length() - 900
    return math.log(c >> shift) + shift * math.log(2)


# ---------------------------------------------------------------------------
# tails


@dataclass(frozen=True)
class GeometricTail:
    """a_l loops of each length l >= from_length, about coeff * growth**l.

    When coeff and growth are both integers, a_l is the exact product
    coeff * growth**l.  Otherwise a_l is the floor of the float product
    `coeff * growth**l` as long as that stays in the float range, and past
    the float overflow point the exact floor of the rational product of the
    two floats' exact values.  The two rules can disagree from about the
    16th digit on, so a_l is deterministic but not floor(coeff * growth**l)
    of the real numbers below the overflow point.
    """

    from_length: int
    coeff: float
    growth: float

    def __post_init__(self):
        if self.from_length < 1:
            raise ValidationError("from_length must be >= 1", field="loop_system.tail.from_length")
        for name, low in (("coeff", 0), ("growth", 1)):
            try:
                value = float(getattr(self, name))
            except OverflowError:  # an integer past the float range
                value = math.inf
            if not low <= value < math.inf:
                raise ValidationError(
                    f"{name} must be a finite number >= {low}", field=f"loop_system.tail.{name}"
                )
            object.__setattr__(self, name, value)  # frozen: store the float

    def multiplicity(self, length):
        if length < self.from_length:
            return 0
        if float(self.growth).is_integer() and float(self.coeff).is_integer():
            return int(self.coeff) * int(self.growth) ** length
        try:
            return int(math.floor(self.coeff * self.growth ** length))
        except OverflowError:
            # beyond float range; exact floors need integral parameters
            num, den = self.coeff.as_integer_ratio()
            gn, gd = self.growth.as_integer_ratio()
            return num * gn ** length // (den * gd ** length)

    def multiplicities(self, lo, hi):
        """Yield multiplicity(l) for l in lo..hi, one at a time, past the
        float range from one running power gn**l instead of a fresh one per
        length: a caller that takes each count as it comes holds one."""
        yield from [0] * max(0, min(hi + 1, self.from_length) - lo)
        l = max(lo, self.from_length)
        if float(self.growth).is_integer() and float(self.coeff).is_integer():
            c, g = int(self.coeff), int(self.growth)
            power = c * g ** l
            for _ in range(l, hi + 1):
                yield power
                power *= g
            return
        while l <= hi:
            try:
                a = int(math.floor(self.coeff * self.growth ** l))
            except OverflowError:
                break
            yield a
            l += 1
        if l <= hi:
            num, den = self.coeff.as_integer_ratio()
            gn, gd = self.growth.as_integer_ratio()
            # the denominators of float ratios are powers of two, so the
            # floor of num gn**l / (den gd**l) is a right shift
            s0, s1 = den.bit_length() - 1, gd.bit_length() - 1
            power = num * gn ** l
            for length in range(l, hi + 1):
                yield power >> (s0 + length * s1)
                power *= gn

    @property
    def effective(self):
        """True when the tail contributes infinitely many loops."""
        if self.growth > 1:
            return self.coeff > 0
        return self.coeff >= 1

    def envelope(self, beyond, x, toward=math.inf):
        """coeff * sum_{l > beyond} y**l for y = growth * x rounded toward
        `toward` (exact when growth is a power of two); inf once y >= 1."""
        y = self.growth * x
        if math.frexp(self.growth)[0] != 0.5:
            y = math.nextafter(y, toward)
        if y >= 1:
            return math.inf
        start = max(beyond + 1, self.from_length)
        return self.coeff * y ** start / (1 - y)


@dataclass(frozen=True)
class FormulaTail:
    """Multiplicities from a callable, with declared analytic data.

    `growth` declares limsup (1/l) log a_l = log(growth), so the loop
    generating function has radius exactly 1/growth. `upper_sum(beyond, x)`
    must return a certified upper bound for sum_{l > beyond} a_l x**l valid
    for 0 < x <= 1/growth and every beyond >= 0, nonincreasing in beyond at
    each x, as the sum itself is: `measures.loop_mme` bisects on it.
    `series_at_radius` / `mean_diverges` carry exact knowledge about the
    behaviour at the radius when the construction certifies it; None means
    unknown.
    """

    fn: callable
    growth: float
    upper_sum: callable = None
    series_at_radius: float = None
    mean_diverges: bool = None

    def multiplicity(self, length):
        return int(self.fn(length))

    def multiplicities(self, lo, hi):
        return (int(self.fn(l)) for l in range(lo, hi + 1))

    @property
    def from_length(self):
        return 1

    @property
    def effective(self):
        return True


# ---------------------------------------------------------------------------
# finite graphs


class FiniteGraph:
    """Directed graph on symbols 1..symbols, with edge multiplicities.

    The graph has no mutator, so `perron_plan` holds the Perron plan of
    `thermo` (its strongly connected blocks, their one-vertex romes and
    t = 0 Perron data) once a Perron query has built it, and every later
    query of the same graph object reads it.
    """

    def __init__(self, symbols, edges):
        if not isinstance(symbols, int) or symbols < 1:
            raise ValidationError("symbols must be a positive integer", field="finite.symbols")
        if symbols > MAX_SYMBOLS:
            raise CapacityError(
                f"{symbols} symbols exceed the cap of {MAX_SYMBOLS}", field="finite.symbols"
            )
        self.symbols = symbols
        mult = {}
        items = edges.items() if isinstance(edges, dict) else ((e, 1) for e in edges)
        for k, ((i, j), m) in enumerate(items):
            if not (1 <= i <= symbols and 1 <= j <= symbols):
                raise ValidationError(
                    f"edge ({i},{j}) out of range 1..{symbols}", field=f"finite.edges[{k}]"
                )
            if m < 1:
                raise ValidationError(
                    f"edge ({i},{j}) has multiplicity {m}", field=f"finite.edges[{k}]"
                )
            mult[(i, j)] = mult.get((i, j), 0) + m
        self._mult = mult
        self._out = {v: [] for v in range(1, symbols + 1)}
        for (i, j) in mult:
            self._out[i].append(j)
        for v in self._out:
            self._out[v].sort()
        self.perron_plan = None

    def is_edge(self, i, j):
        return (i, j) in self._mult

    def out_neighbors(self, v):
        return list(self._out.get(v, ()))

    def edge_multiplicities(self):
        return dict(self._mult)

    @cached_property
    def edge_index(self):
        """(flat, parallel): the edges as the ascending row-major indices
        (i - 1) * symbols + j - 1 of a symbols x symbols matrix, a read-only
        int array, and the (i - 1, j - 1, multiplicity) of every edge of
        multiplicity > 1. Built on the first call and kept: O(edges), where
        a dense mask would hold symbols x symbols entries."""
        n = self.symbols
        flat = np.array(sorted((i - 1) * n + j - 1 for i, j in self._mult), dtype=np.int64)
        flat.flags.writeable = False
        parallel = tuple((i - 1, j - 1, m) for (i, j), m in self._mult.items() if m > 1)
        return flat, parallel

    @property
    def is_simple(self):
        return all(m == 1 for m in self._mult.values())

    def truncate(self, q):
        size = min(q, self.symbols)
        if size < 1:
            raise ValidationError("truncation needs q >= 1")
        mult = {e: m for e, m in self._mult.items() if e[0] <= size and e[1] <= size}
        return Truncation(size, FiniteGraph(size, mult))

    def __repr__(self):
        return f"FiniteGraph(symbols={self.symbols}, edges={len(self._mult)})"


# ---------------------------------------------------------------------------
# loop systems


class Enumeration:
    """Materialized prefix of the canonical vertex numbering of a LoopSystem.

    Covers every interior id <= max_id (and the whole loop containing each
    such id). Rows are the loop records (length, first, last) in id order:
    a loop of length l holds the interior ids first..last, last = first +
    l - 2, and the lasts rise strictly.
    """

    def __init__(self, system, max_id):
        self.max_id = max_id
        rows = []
        next_id = 2
        length = 2
        limit = system.max_loop_length()
        while next_id <= max_id:
            if limit is not None and length > limit:
                break
            a = system.multiplicity(length)
            taken = 0
            while taken < a and next_id <= max_id:
                rows.append((length, next_id, next_id + length - 2))
                next_id += length - 1
                taken += 1
            length += 1
        self.rows = rows
        self.next_free_id = next_id
        self._firsts = [r[1] for r in rows]

    def locate(self, vid):
        """The record (length, first, last) of the loop holding an interior
        id."""
        k = bisect_right(self._firsts, vid) - 1
        if k < 0:
            raise ValidationError(f"id {vid} is not an interior vertex")
        record = self.rows[k]
        if vid > record[2]:
            raise ValidationError(f"id {vid} is beyond the materialized enumeration")
        return record


def loop_record(system, length, ordinal):
    """The record (length, first, last) of the ordinal-th loop of a length
    >= 2, from the counts of the shorter loops without enumerating them."""
    first = 2 + ordinal * (length - 1)
    first += sum((l - 1) * a for l, a in enumerate(system.counts(length - 1)))
    return length, first, first + length - 2


@dataclass(frozen=True)
class CountTable:
    """Loop counts a_l of a LoopSystem for the lengths 1..upto.

    `exact[l]` is a_l (exact[0] = 0). The arrays cover the nonzero lengths
    only, ascending: `lengths`, `logs` = log a_l, `big` marking the counts
    of more than BIG_BITS bits, and `floats` = float(a_l) for the others
    (0.0 where `big`).
    """

    upto: int
    exact: tuple
    lengths: np.ndarray
    logs: np.ndarray
    floats: np.ndarray
    big: np.ndarray

    def extended(self, counts):
        """The table for lengths 1..upto + len(counts), given those counts."""
        rows = [(l, a) for l, a in enumerate(counts, self.upto + 1) if a]
        big = [a.bit_length() > BIG_BITS for _, a in rows]
        floats = [0.0 if b else float(a) for (_, a), b in zip(rows, big)]
        return CountTable(
            self.upto + len(counts),
            self.exact + tuple(counts),
            np.concatenate([self.lengths, np.array([l for l, _ in rows], dtype=np.int64)]),
            np.concatenate([self.logs, np.array([_log_big(a) for _, a in rows], dtype=float)]),
            np.concatenate([self.floats, np.array(floats, dtype=float)]),
            np.concatenate([self.big, np.array(big, dtype=bool)]),
        )

    def prefix(self, upto):
        """Number of nonzero lengths <= upto."""
        return int(self.lengths.searchsorted(upto, side="right"))


_EMPTY_TABLE = CountTable(
    0, (0,), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool)
)


class LoopSystem:
    """Loops at a common base vertex: explicit list plus optional tail rule.

    Loop counts are computed once: the system keeps a CountTable of a_l for
    the lengths 1..n, extended as far as a query asks up to SERIES_TERMS (or
    the longest loop); longer lengths are counted afresh on every query. The
    canonical enumeration is kept the same way. So are the certified loop
    series bounds of `thermo.LoopGF`, which are values of the system alone:
    `series_slices` holds the summation slices of the count table by
    (upto, beyond), and `series_bounds` the bounds by (x, beyond), both
    emptied together when `series_bounds` reaches `thermo.BOUNDS_MEMO`
    entries.
    """

    def __init__(self, loops, tail=None):
        loops = [(int(l), int(m)) for l, m in loops]
        for k, (l, m) in enumerate(loops):
            field = f"loop_system.loops[{k}]"
            if l < 1:
                raise ValidationError(f"loop length {l} must be >= 1", field=f"{field}.length")
            if m < 0:
                raise ValidationError(
                    f"loop multiplicity {m} must be >= 0", field=f"{field}.multiplicity"
                )
        self.loops = tuple(loops)
        self.tail = tail
        self._explicit = {}
        for l, m in loops:
            self._explicit[l] = self._explicit.get(l, 0) + m
        # (l, a) of the explicit lengths with loops, shortest first
        self.explicit_loops = tuple(sorted((l, m) for l, m in self._explicit.items() if m > 0))
        self.longest_explicit = self.explicit_loops[-1][0] if self.explicit_loops else 0
        if not self.is_infinite and not self.explicit_loops:
            raise ValidationError("loop system needs at least one loop", field="loop_system.loops")
        lim = self.max_loop_length()
        self._cap = SERIES_TERMS if lim is None else min(SERIES_TERMS, lim)
        self._table = _EMPTY_TABLE
        self._enum = None
        self.series_slices = {}
        self.series_bounds = {}

    @property
    def symbols(self):
        return None  # countably infinite

    @property
    def is_infinite(self):
        return self.tail is not None and self.tail.effective

    def _fresh_counts(self, lo, hi):
        """a_l for l = lo..hi, counted without the table, one at a time."""
        if hi < lo:
            return ()
        explicit = map(self._explicit.get, range(lo, hi + 1), itertools.repeat(0))
        if self.tail is None:
            return explicit
        return map(operator.add, explicit, self.tail.multiplicities(lo, hi))

    def count_table(self, upto):
        """The cached table, extended to cover min(upto, SERIES_TERMS, the
        longest loop). An extension is a new table that replaces the old one,
        so a table already handed out never changes under its reader."""
        table = self._table
        upto = min(upto, self._cap)
        if upto > table.upto:
            table = table.extended(list(self._fresh_counts(table.upto + 1, upto)))
            self._table = table
        return table

    def multiplicity(self, length):
        if length < 1:
            return 0
        if length > self._cap:
            return next(self._fresh_counts(length, length))
        table = self._table
        if length > table.upto:
            # single lookups extend the table by doubling
            table = self.count_table(max(length, 2 * table.upto))
        return table.exact[length]

    def counts(self, upto):
        """[a_0, a_1, ..., a_upto] with a_0 = 0."""
        out = list(self.count_table(upto).exact[: upto + 1])
        return out + list(self._fresh_counts(len(out), upto))

    def log_counts(self, lo, hi):
        """(lengths, log a_l) of the nonzero lengths in [lo, hi], as arrays.
        Past the count table each log is taken as its count is made, so no
        more than one big count is held at a time."""
        table = self.count_table(hi)
        i = int(np.searchsorted(table.lengths, lo, side="left"))
        j = table.prefix(hi)
        lengths, logs = table.lengths[i:j], table.logs[i:j]
        start = max(lo, table.upto + 1)
        if self.is_infinite:
            rest = enumerate(self._fresh_counts(start, hi), start)
        else:  # past the table a finite system has its explicit loops only
            rest = ((l, a) for l, a in self.explicit_loops if start <= l <= hi)
        rest = [(l, _log_big(a)) for l, a in rest if a]
        if rest:
            lengths = np.concatenate([lengths, np.array([l for l, _ in rest], dtype=np.int64)])
            logs = np.concatenate([logs, np.array([g for _, g in rest])])
        return lengths, logs

    def max_loop_length(self):
        """Largest loop length, or None when the tail is infinite."""
        if self.is_infinite:
            return None
        return self.longest_explicit

    def enumeration(self, max_id):
        """The system's one Enumeration, covering at least the ids <= max_id.

        Its rows can run past max_id. An extension doubles the covered ids,
        so a run of growing queries builds only logarithmically many.
        """
        enum = self._enum
        if enum is None or enum.max_id < max_id:
            enum = Enumeration(self, max(max_id, 2 * enum.max_id if enum else 0))
            self._enum = enum
        return enum

    def truncate(self, q):
        if q < 1:
            raise ValidationError("truncation needs q >= 1")
        enum = self.enumeration(q)
        mult = {}
        a1 = self.multiplicity(1)
        if a1:
            mult[(1, 1)] = a1
        for _, first, last in enum.rows:
            if first > q:
                break
            mult[(1, first)] = 1
            for vid in range(first, min(last, q)):
                mult[(vid, vid + 1)] = 1
            if last <= q:
                mult[(last, 1)] = 1
        size = min(q, enum.next_free_id - 1)
        return Truncation(size, FiniteGraph(max(size, 1), mult))

    def whole_loops(self, q):
        """(boundary, loops): the loops lying entirely at ids <= q, as
        (length, multiplicity) pairs of positive multiplicity with the base
        self-loops first, and the largest id <= q at which one of them closes
        (1 when none does). The truncation at the boundary is the finite loop
        system of these loops, with the same numbering."""
        a1 = self.multiplicity(1)
        loops = [(1, a1)] if a1 else []
        boundary = 1
        for length, _, last in self.enumeration(q).rows:
            if last > q:
                break
            loops.append((length, 1))
            boundary = last
        return boundary, loops

    def __repr__(self):
        tail = type(self.tail).__name__ if self.tail is not None else None
        return f"LoopSystem(loops={list(self.loops)!r}, tail={tail})"


class Truncation:
    """Induced subgraph on the symbols <= q of the canonical enumeration."""

    def __init__(self, vertex_count, graph):
        self.vertex_count = vertex_count
        self._graph = graph

    def as_graph(self):
        return self._graph

    def edge_multiplicities(self):
        return self._graph.edge_multiplicities()


# ---------------------------------------------------------------------------
# walk views: the rome presentation for ambient counting


class WalkView:
    """Lengthed-edge graph on the concrete vertices of a presentation.

    A rome presentation (Block, Guckenheimer, Misiurewicz and Young, 1980):
    the states are a set of concrete vertices that every cycle meets, and an
    edge (src, dst, multiplicity, length) stands for `multiplicity` paths of
    `length` edges from src to dst whose interior vertices are not states,
    one edge for each (src, dst, length). Walks between states of at most
    the `n_edges` edges that `walk_view` was asked for are in bijection with
    the ambient walks of the same length and endpoints, and the positions
    inside an edge are never states.
    """

    def __init__(self, ids, edges, n_edges):
        self.ids = ids                  # state index -> vertex id
        self.concrete = {v: i for i, v in enumerate(ids)}
        self.edges = edges              # list of (src, dst, multiplicity, length)
        self.n_edges = n_edges

    @property
    def state_count(self):
        return len(self.ids)


def walk_view(graph, n_edges, ids):
    """The rome presentation certified for walks of <= n_edges edges.

    A finite graph is its own presentation, with edges of length 1. For a
    loop system the states are the base and the interiors of the loops that
    hold one of `ids` (whole loops, joined by length-1 edges); the other
    loops of each length l <= n_edges become one base -> base edge of length
    l carrying their number. A walk whose endpoints and marked symbols are
    states is counted exactly, since it cannot stop inside those loops.
    """
    if isinstance(graph, FiniteGraph):
        states = list(range(1, graph.symbols + 1))
        edges = [(i - 1, j - 1, m, 1) for (i, j), m in graph.edge_multiplicities().items()]
        return WalkView(states, edges, n_edges)

    system = graph
    wanted = sorted(ids)
    states = [1]
    edges = []
    taken = {}
    for length, first, last in system.enumeration(wanted[-1]).rows:
        if first > wanted[-1]:
            break
        k = bisect_left(wanted, first)
        if k == len(wanted) or wanted[k] > last:
            continue
        taken[length] = taken.get(length, 0) + 1
        prev = 0
        for vid in range(first, last + 1):
            states.append(vid)
            edges.append((prev, len(states) - 1, 1, 1))
            prev = len(states) - 1
        edges.append((prev, 0, 1, 1))
    limit = system.max_loop_length()
    longest = n_edges if limit is None else min(n_edges, limit)
    for length, a in enumerate(system.counts(longest)):
        extra = a - taken.get(length, 0)
        if extra > 0:
            edges.append((0, 0, extra, length))
    return WalkView(states, edges, n_edges)


# ---------------------------------------------------------------------------
# words and cylinders


def canonical_cylinders(graph, depth, symbol_cap=32):
    """The canonical cylinder enumeration: admissible words over symbols
    <= symbol_cap, breadth-first by length then lexicographic. The k-th
    cylinder in this global order carries weight 2**-(k+1) in the rho metric.
    """
    if depth < 1:
        raise ValidationError("cylinder depth must be >= 1", field="depth")
    if isinstance(graph, FiniteGraph):
        size = min(graph.symbols, symbol_cap)
        mult = {e for e in graph.edge_multiplicities() if e[0] <= size and e[1] <= size}
    else:
        trunc = graph.truncate(symbol_cap)
        size = trunc.vertex_count
        mult = set(trunc.edge_multiplicities())
    out = [(v,) for v in range(1, size + 1)]
    layer = out[:]
    for _ in range(depth - 1):
        layer = [w + (v,) for w in layer for v in range(1, size + 1) if (w[-1], v) in mult]
        out.extend(layer)
    return out


# ---------------------------------------------------------------------------
# connectivity


def strongly_connected_components(succ):
    """Strongly connected components of the graph on 0..len(succ) - 1 with
    successor lists succ, as vertex lists, by iterative Tarjan: roots and
    successors in list order, each component after every one it reaches."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    out = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if index[u] < 0:
                    index[u] = low[u] = count
                    count += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append((u, iter(succ[u])))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


# ---------------------------------------------------------------------------
# JSON documents

GRAPH_KINDS = ("finite", "loop_system")


def _require(doc, key, field, kind=dict):
    if key not in doc:
        raise SchemaError(f"missing field {field!r}", field=field)
    value = doc[key]
    # JSON true/false load as bool, a subclass of int: never a number here
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(f"field {field!r} has the wrong type", field=field)
    return value


def load_graph(doc):
    """Build a graph from its JSON document form.

    This checks the JSON shapes and the two rules of documents alone: no
    duplicate edge and a non-empty edge list. The constructors check every
    range and name the document field at fault.
    """
    if not isinstance(doc, dict):
        raise SchemaError("graph document must be an object", field="")
    kind = doc.get("kind")
    if kind not in GRAPH_KINDS:
        raise SchemaError(f"kind must be one of {GRAPH_KINDS}", field="kind")
    if kind == "finite":
        body = _require(doc, "finite", "finite")
        symbols = _require(body, "symbols", "finite.symbols", int)
        edges = _require(body, "edges", "finite.edges", list)
        pairs = {}
        for k, e in enumerate(edges):
            field = f"finite.edges[{k}]"
            if (
                not isinstance(e, (list, tuple))
                or len(e) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
            ):
                raise SchemaError("edge must be a pair of integers", field=field)
            i, j = e
            if (i, j) in pairs:
                raise ValidationError(f"duplicate edge ({i},{j})", field=field)
            pairs[(i, j)] = 1
        graph = FiniteGraph(symbols, pairs)
        if not pairs:
            raise ValidationError("edge list is empty", field="finite.edges")
        return graph

    body = _require(doc, "loop_system", "loop_system")
    loops = []
    for k, item in enumerate(_require(body, "loops", "loop_system.loops", list)):
        base = f"loop_system.loops[{k}]"
        if not isinstance(item, dict):
            raise SchemaError("loop must be an object", field=base)
        length = _require(item, "length", f"{base}.length", int)
        loops.append((length, _require(item, "multiplicity", f"{base}.multiplicity", int)))
    tail_doc = _require(body, "tail", "loop_system.tail", None)
    tail = None
    if tail_doc is not None:
        if not isinstance(tail_doc, dict):
            raise SchemaError("tail must be null or an object", field="loop_system.tail")
        tail = GeometricTail(
            _require(tail_doc, "from_length", "loop_system.tail.from_length", int),
            _require(tail_doc, "coeff", "loop_system.tail.coeff", (int, float)),
            _require(tail_doc, "growth", "loop_system.tail.growth", (int, float)),
        )
    return LoopSystem(loops, tail)


def load_graph_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", field="") from exc
    return load_graph(doc)
