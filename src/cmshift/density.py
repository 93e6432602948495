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
graph's full entropy).  Its states are integers from the start, cut to the
strongly connected component of the first slot start by one backward
search and numbered once, in the order of their (kind, slot, ., .) reprs.
``concatenated_measure`` equips it with its maximal-entropy chain, whose
``cylinder_masses`` carries each word's state vector from its prefix's.
``two_component_demo`` runs the whole pipeline against a half-and-half
mixture.
"""

import math
from collections import deque
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

    # states are numbered as they are made. keys[x] is the str of each field
    # of ("b", slot, offset, vertex) for a block position or ("c", slot,
    # end_vertex, k) for a connector interior: "," and ")" sort below every
    # digit, so these keys sort as the reprs of the int tuples do
    keys, state_label, into, edges = [], [], [], []

    def state(key, label):
        keys.append(key)
        state_label.append(label)
        into.append([])
        return len(keys) - 1

    def edge(a, b):
        edges.append((a, b))
        into[b].append(a)

    starts = [state(("b", str(s), "0", str(anchor)), anchor) for s in range(M)]
    conn_lengths = [dict() for _ in range(M)]
    block_counts = []
    for s, sup in enumerate(slots):
        slot = str(s)
        # layer[v]: [the words of o + 1 symbols from the anchor to v, state]
        layer = {anchor: [1, starts[s]]}
        for o in range(1, n):
            offset, nxt = str(o), {}
            for v, (c, a) in layer.items():
                for w in sup.out_neighbors(v):
                    hit = nxt.get(w)
                    if hit is None:
                        hit = nxt[w] = [0, state(("b", slot, offset, str(w)), w)]
                    hit[0] += c
                    edge(a, hit[1])
            layer = nxt
        nxt_start = starts[(s + 1) % M]
        joined = conn_lengths[s]
        words = 0
        for v in sorted(layer):
            path = (v, anchor) if ambient.is_edge(v, anchor) else _shortest_path(ambient, v, anchor)
            if path is None:
                continue
            c, prev = layer[v]
            for k, u in enumerate(path[1:-1]):
                x = state(("c", slot, str(v), str(k)), u)
                edge(prev, x)
                prev = x
            edge(prev, nxt_start)
            joined[v] = len(path) - 2
            # every state of a word ending at a joined end lies on a cycle
            # through the slot starts, so pruning keeps all these words
            words += c
        if not joined:
            raise ConnectorNotFound(f"slot {s}: no block end can reach the anchor {anchor}")
        block_counts.append(words)

    # every state is reachable from the first slot start, so its strongly
    # connected component is the states that lead back to it: one backward
    # search, numbered in key order (an edge stays when its head does)
    kept = [False] * len(keys)
    kept[starts[0]] = True
    stack = [starts[0]]
    while stack:
        for a in into[stack.pop()]:
            if not kept[a]:
                kept[a] = True
                stack.append(a)
    order = sorted((x for x in range(len(keys)) if kept[x]), key=keys.__getitem__)
    ids = {x: i for i, x in enumerate(order, 1)}
    graph = FiniteGraph(len(order), {(ids[a], ids[b]): 1 for a, b in edges if kept[b]})
    labels = tuple(state_label[x] for x in order)

    # the certified entropy floor
    period = M * n + sum(max(c.values()) for c in conn_lengths)
    spread = sum(max(c.values()) - min(c.values()) for c in conn_lengths)
    floor = (_log_big(math.prod(block_counts)) - (math.log(spread + 1) if spread else 0.0)) / period
    return ConcatenatedSystem(
        graph=graph,
        labels=labels,
        n=n,
        M=M,
        block_counts=tuple(block_counts),
        entropy_floor=floor,
        slot_starts=tuple(ids[x] for x in starts),
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

    def cylinder_masses(self, words):
        """cylinder_mass of each word of a breadth-first list: each word's
        state vector is its prefix's carried one step, by the same products
        summed in the same order."""
        vecs, out = [], []
        for word, k in zip(words, measures.prefix_index(words)):
            b = word[-1]
            if b not in self._states or (k >= 0 and vecs[k] is None):
                vec = None
            elif k < 0:
                vec = self.chain.pi[self._states[b]]
            else:
                rows, cols, vals = self._step(word[-2], b)
                vec = np.bincount(cols, weights=vecs[k][rows] * vals, minlength=len(self._states[b]))
            vecs.append(vec)
            out.append(0.0 if vec is None else float(vec.sum()))
        return out

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
