"""Ergodic measures close to a non-ergodic mixture.

Mixtures of distinct ergodic measures are not ergodic, yet they can be
approximated — in cylinder distance, with little entropy loss — by the
maximal-entropy measure of a single irreducible system of concatenated
blocks: long words from each component's support, cycled in fixed slots.
This witnesses, at desk scale, that ergodic measures are dense in entropy
among invariant measures.

``concatenated_system`` builds the block system as an explicit finite
graph (states = position inside a slot, labeled by the ambient symbol;
the presentation is right-resolving, so the labeled process keeps the
graph's full entropy).  ``concatenated_measure`` equips it with its
maximal-entropy chain.  ``two_component_demo`` runs the whole pipeline
against a half-and-half mixture.
"""

import math
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import ConnectorNotFound, ValidationError
from .families import full_shift, golden_mean
from .graphs import FiniteGraph, _log_big
from .measures import rho_distance


def _check_support(ambient, support):
    if support.symbols > ambient.symbols:
        raise ValidationError("support graph has more symbols than the ambient graph")
    for (i, j), _ in support.edge_multiplicities().items():
        if not ambient.is_edge(i, j):
            raise ValidationError(f"support edge ({i},{j}) is not an ambient edge")


def _shortest_path(graph, src, dst):
    """Shortest vertex path of at least one edge from src to dst (a shortest
    cycle through src when dst is src), or None."""
    prev = {}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in graph.out_neighbors(v):
            if w not in prev:
                prev[w] = v
                if w == dst:
                    path = [w, v]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                queue.append(w)
    return None


@dataclass(frozen=True)
class ConcatenatedSystem:
    """Finite presentation of the concatenated-block subshift."""

    graph: FiniteGraph
    labels: tuple
    n: int
    M: int
    block_counts: tuple
    entropy_floor: float
    slot_starts: tuple


def concatenated_system(ambient, supports, n, M):
    """Cycle through M slots; slot s holds any length-n word admissible in
    supports[s % len(supports)] starting at the anchor symbol 1, then routes
    back to the next slot's anchor (directly, or through a shortest connector
    path in the ambient graph; a block that ends at the anchor takes a
    shortest cycle through it when the ambient graph has no anchor
    self-loop), so every edge joins labels that the ambient graph joins.

    Raises ConnectorNotFound when some slot has no way back to the anchor.
    """
    anchor = 1
    if n < 2:
        raise ValidationError("blocks need length >= 2")
    if M < 1:
        raise ValidationError("M must be >= 1")
    if not supports:
        raise ValidationError("at least one support graph is needed")
    for sup in supports:
        _check_support(ambient, sup)
    slots = [supports[s % len(supports)] for s in range(M)]

    # states: ("b", slot, offset, vertex) block positions,
    #         ("c", slot, end_vertex, k) connector interiors
    edges = []
    state_label = {}
    conn_lengths = [dict() for _ in range(M)]

    def block(s, o, v):
        key = ("b", s, o, v)
        state_label[key] = v
        return key

    block_counts = []
    for s, sup in enumerate(slots):
        # layers[o][v]: the words of o + 1 symbols from the anchor to v
        layers = [Counter({anchor: 1})]
        for o in range(n - 1):
            nxt = Counter()
            for v, c in layers[o].items():
                for w in sup.out_neighbors(v):
                    nxt[w] += c
                    edges.append((block(s, o, v), block(s, o + 1, w)))
            layers.append(nxt)
        nxt_start = block((s + 1) % M, 0, anchor)
        joined = 0
        for v in sorted(layers[n - 1]):
            end = block(s, n - 1, v)
            if ambient.is_edge(v, anchor):
                edges.append((end, nxt_start))
                conn_lengths[s][v] = 0
                joined += 1
                continue
            path = _shortest_path(ambient, v, anchor)
            if path is None:
                continue
            interior = path[1:-1]
            prev = end
            for k, u in enumerate(interior):
                key = ("c", s, v, k)
                state_label[key] = u
                edges.append((prev, key))
                prev = key
            edges.append((prev, nxt_start))
            conn_lengths[s][v] = len(interior)
            joined += 1
        if not joined:
            raise ConnectorNotFound(
                f"slot {s}: no block end can reach the anchor {anchor}"
            )
        # every state of a word ending at a joined end lies on a cycle
        # through the slot starts, so pruning keeps all these words
        block_counts.append(sum(layers[n - 1][v] for v in conn_lengths[s]))

    # every state is reachable from the first slot start, so its strongly
    # connected component is the states that lead back to it: one backward
    # search, numbered in repr order (an edge stays when its head does)
    start0 = ("b", 0, 0, anchor)
    into = {}
    for a, b in edges:
        into.setdefault(b, []).append(a)
    kept = {start0}
    stack = [start0]
    while stack:
        for a in into.get(stack.pop(), ()):
            if a not in kept:
                kept.add(a)
                stack.append(a)
    order = sorted(kept, key=repr)
    ids = {key: i + 1 for i, key in enumerate(order)}
    graph = FiniteGraph(len(order), {(ids[a], ids[b]): 1 for a, b in edges if b in ids})
    labels = tuple(state_label[key] for key in order)

    # the certified entropy floor
    period = M * n + sum(max(c.values(), default=0) for c in conn_lengths)
    spread = sum(
        max(c.values(), default=0) - min(c.values(), default=0)
        for c in conn_lengths
    )
    prod = 1
    for b in block_counts:
        prod *= max(b, 1)
    floor = (_log_big(prod) - (math.log(spread + 1) if spread else 0.0)) / period
    return ConcatenatedSystem(
        graph=graph,
        labels=labels,
        n=n,
        M=M,
        block_counts=tuple(block_counts),
        entropy_floor=floor,
        slot_starts=tuple(ids[("b", s, 0, anchor)] for s in range(M)),
    )


class LabeledMarkovMeasure:
    """A stationary chain on a presentation graph, read through its labels.

    The presentation is right-resolving (out-edges of any state carry
    distinct labels), so the labeled process has the same entropy as the
    chain itself.
    """

    def __init__(self, chain, labels):
        self.chain = chain
        self.labels = tuple(labels)
        self.mass = 1.0
        self.entropy = chain.entropy
        arr = np.asarray(self.labels)
        self._states = {a: np.flatnonzero(arr == a) for a in sorted(set(self.labels))}
        self._steps = {}

    def _step(self, a, b):
        """The nonzero entries of P from the states labeled a to those labeled
        b: (rows among a's states, columns among b's states, values)."""
        step = self._steps.get((a, b))
        if step is None:
            block = self.chain.P[np.ix_(self._states[a], self._states[b])]
            rows, cols = np.nonzero(block)
            step = self._steps[(a, b)] = (rows, cols, block[rows, cols])
        return step

    def cylinder_mass(self, word):
        """Mass of [word]: the stationary mass on the states labeled word[0],
        carried one symbol at a time through the nonzero entries of P into
        the states of the next label (a block system has at most two a row)."""
        if any(sym not in self._states for sym in word):
            return 0.0
        vec = self.chain.pi[self._states[word[0]]]
        for a, b in zip(word, word[1:]):
            rows, cols, vals = self._step(a, b)
            vec = np.bincount(cols, weights=vec[rows] * vals, minlength=len(self._states[b]))
        return float(vec.sum())

    def symbol_masses(self, q):
        out = np.zeros(q)
        for a, states in self._states.items():
            if 1 <= a <= q:
                out[a - 1] = self.chain.pi[states].sum()
        return out


def concatenated_measure(system):
    """Maximal-entropy measure of the concatenated system, as a measure on
    the ambient symbols."""
    chain = measures.parry_measure(system.graph)
    return LabeledMarkovMeasure(chain, system.labels)


# ---------------------------------------------------------------------------
# the two-component demonstration


@dataclass(frozen=True)
class DensityReport:
    rho: float
    depth: int
    entropy_target: float
    entropy_built: float
    gap: float
    n: int
    M: int
    block_counts: tuple
    states: int


def two_component_demo(n=64, M=4, depth=6):
    """Approximate the half-and-half mixture of the golden-mean maximal
    measure and the fair coin measure by one ergodic concatenated measure,
    and report the cylinder distance and entropy gap."""
    ambient = full_shift(2)
    gold = golden_mean()
    target = measures.MixtureMeasure(
        [
            (0.5, measures.parry_measure(gold)),
            (0.5, measures.bernoulli_measure(ambient, (0.5, 0.5))),
        ]
    )
    system = concatenated_system(ambient, [gold, ambient], n=n, M=M)
    built = concatenated_measure(system)
    rho = rho_distance(target, built, ambient, depth=depth)
    return DensityReport(
        rho=rho,
        depth=depth,
        entropy_target=target.entropy,
        entropy_built=built.entropy,
        gap=abs(built.entropy - target.entropy),
        n=n,
        M=M,
        block_counts=system.block_counts,
        states=system.graph.symbols,
    )
