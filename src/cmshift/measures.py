"""Shift-invariant measures and weak-star limit diagnostics.

Measures expose a common surface: `cylinder_mass(word)` for the mass of the
cylinder [word] at the canonical symbols, `cylinder_masses(words)` for the
masses of a breadth-first word list (every word's prefix word[:-1] listed
before it, as `canonical_cylinders` lists them), each equal to
`cylinder_mass` bit for bit and carried from its prefix's state instead of
walked from the first symbol, `symbol_masses(q)` for the masses of the
one-symbol cylinders [1]..[q] as one array (entry a-1 equal to
`cylinder_mass((a,))` bit for bit), `entropy`, and `mass` (total mass, 1 for
probability measures). Three concrete kinds:

* `MarkovMeasure`: a stationary Markov chain on a finite graph.
* `LoopMarkovMeasure`: a loop system chain, collapsed to a choice
  distribution over loop lengths (uniform within a length class). The base
  is visited once per loop, so mu([1]) = 1/E[length], and the suspension
  entropy is sum w_l (log a_l - log w_l) / E.
* `MixtureMeasure`: a convex combination; entropy is the matching convex
  combination (affine on ergodic components).

`cylinder_limit` takes a schedule of measures, stacks their symbol masses
into one (schedule x q) array, extrapolates every cylinder at once (iterated
Aitken along the schedule, exact on geometric tails), sums a mass ladder
over truncations, and optionally verifies the limit against a candidate
measure by fitting a single scale factor.
"""

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, ValidationError
from .graphs import FiniteGraph, LoopSystem, canonical_cylinders, loop_record
from .thermo import LoopGF, _blocks, _irreducible, _plan, classify, series_root


# ---------------------------------------------------------------------------
# Markov measures on finite graphs


class MarkovMeasure:
    """Stationary Markov chain (pi, P) supported on a finite graph.

    `classes` says why its n-cylinder masses fall into a few classes, or is
    None. ("ends", v): a Parry chain on a simple graph, P(a, b) =
    v_b / (lam v_a) on every edge for the right Perron vector v, so a word
    from i to j has mass pi_i v_j / (v_i lam^(n-1)). ("types", p): a
    product measure with probability vector p, so a word's mass depends
    only on how often it uses each symbol.
    """

    def __init__(self, graph, pi, P, classes=None):
        if not isinstance(graph, FiniteGraph):
            raise ValidationError("MarkovMeasure needs a finite graph")
        self.graph = graph
        self.classes = classes
        n = graph.symbols
        self.pi = np.asarray(pi, dtype=float)
        self.P = np.asarray(P, dtype=float)
        if self.pi.shape != (n,) or self.P.shape != (n, n):
            raise ValidationError("pi/P shapes do not match the graph")
        # the support of P, row-major, each entry against the graph's edge
        # index at its sorted place
        flat, parallel = graph.edge_index
        support = off = np.flatnonzero(self.P > 0)
        if len(flat):
            off = support[flat.take(np.searchsorted(flat, support), mode="clip") != support]
        if len(off):
            i, j = divmod(int(off[0]), n)
            raise ValidationError(f"P({i + 1},{j + 1}) > 0 off the graph")
        self.mass = 1.0
        # -sum pi_i P_ij log P_ij, summed over all n x n entries, zeros
        # included, as the dense sum did, so its rounding is the same
        values = self.P.ravel()[support]
        terms = np.zeros(n * n)
        terms[support] = self.pi[support // n] * values * np.log(values)
        self.entropy = float(-np.sum(terms))
        # P(i, j) spreads evenly over the m_ij parallel edges from i to j
        if parallel:
            self.entropy += math.fsum(
                self.pi[i] * self.P[i, j] * math.log(m) for i, j, m in parallel
            )

    def cylinder_mass(self, word):
        p = self.pi[word[0] - 1]
        for a, b in zip(word, word[1:]):
            p *= self.P[a - 1, b - 1]
            if p == 0.0:
                return 0.0
        return float(p)

    def cylinder_masses(self, words):
        """cylinder_mass of each word of a breadth-first list: its prefix's
        mass times one entry of P, the product cylinder_mass takes."""
        out = []
        for word, k in zip(words, prefix_index(words)):
            p = self.pi[word[0] - 1] if k < 0 else out[k] and out[k] * self.P[word[-2] - 1, word[-1] - 1]
            out.append(float(p))
        return out

    def symbol_masses(self, q):
        out = np.zeros(q)
        out[: self.graph.symbols] = self.pi[:q]
        return out


def markov_measure(graph, transitions):
    """Markov measure from a transition dict {(i, j): prob}.

    The stationary vector is the left Perron vector of P: the certified
    right vector of the one block of P.T (`thermo._blocks`), one backward
    pass at a one-vertex rome of the support, else the log-weight kernel's
    (one eig call a pass). It needs a strongly connected support:
    NotStronglyConnected on any other.
    """
    n = graph.symbols
    P = np.zeros((n, n))
    for (i, j), p in transitions.items():
        if not graph.is_edge(i, j):
            raise ValidationError(f"({i},{j}) is not an edge")
        if not p >= 0:
            raise ValidationError("transition probabilities must be >= 0")
        P[i - 1, j - 1] = p
    rows = P.sum(axis=1)
    if not np.max(np.abs(rows - 1.0)) <= 1e-9:
        raise ValidationError("transition rows must sum to 1")
    left = _irreducible(_blocks(P.T), "Perron vectors need a strongly connected support").right[1]
    return MarkovMeasure(graph, left / left.sum(), P)


def parry_measure(graph):
    """The maximal-entropy Markov chain of a strongly connected graph, from
    the Perron data of its plan; NotStronglyConnected on any other graph."""
    if not isinstance(graph, FiniteGraph):
        raise ValidationError("parry_measure needs a finite graph")
    block = _irreducible(_plan(graph), "Perron vectors need a strongly connected support")
    _, u, v = block.perron
    # P(i, j) = a_ij v_j / (Av)_i: rows sum to 1 whatever the bracket width
    rows, cols, weights = block.edges
    P = np.zeros((graph.symbols, graph.symbols))
    P[rows, cols] = weights * v[cols]
    P /= P.sum(axis=1)[:, None]
    pi = u * v
    # parallel edges weigh a word by their multiplicities: no end classes
    classes = ("ends", v) if graph.is_simple else None
    return MarkovMeasure(graph, pi / pi.sum(), P, classes=classes)


def bernoulli_measure(graph, probs):
    """Product measure on a full shift: every row of P equals probs."""
    n = graph.symbols
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (n,):
        raise ValidationError("probs must give one weight per symbol")
    if not (abs(probs.sum() - 1.0) <= 1e-12 and (probs >= 0).all()):
        raise ValidationError("probs must be a probability vector")
    P = np.tile(probs, (n, 1))
    return MarkovMeasure(graph, probs, P, classes=("types", probs))


# ---------------------------------------------------------------------------
# loop-chain measures


class LoopMarkovMeasure:
    """Chain on a loop system given by choice weights over loop lengths.

    `weights[l]` is the total probability of picking a loop of length l at
    the base; within a length the a_l loops are equally likely.

    Construction takes one pass over the weights for each thing it builds:
    the positive weights, their normalised values, the log counts (read off
    `log_counts` in one piece when the weights sit on exactly the nonzero
    lengths of their range, in order, as the chains of `loop_mme` and
    `tail_parry_measure` do), the expected length, and the entropy, with one
    `math.log` per weight.
    """

    def __init__(self, system, weights, entropy=None):
        if not isinstance(system, LoopSystem):
            raise ValidationError("LoopMarkovMeasure needs a loop system")
        self.system = system
        weights = {int(l): float(w) for l, w in weights.items() if w > 0}
        if not weights:
            raise ValidationError("weights are empty")
        lengths = list(weights)
        total = math.fsum(weights.values())
        shares = [w / total for w in weights.values()]
        self.weights = dict(zip(lengths, shares))
        counted, logs = system.log_counts(min(lengths), max(lengths))
        counted, logs = counted.tolist(), logs.tolist()
        if counted != lengths:
            known = dict(zip(counted, logs))
            for l in lengths:
                if l not in known:
                    raise ValidationError(f"no loops of length {l}")
            logs = [known[l] for l in lengths]
        self._log_counts = dict(zip(lengths, logs))
        self.expected_length = math.fsum([l * w for l, w in zip(lengths, shares)])
        if entropy is None:
            entropy = (
                math.fsum([w * (c - math.log(w)) for w, c in zip(shares, logs)])
                / self.expected_length
            )
        self.entropy = float(entropy)
        self.mass = 1.0
        self._symbol_masses = {}

    def _per_loop(self, length):
        """Choice probability of one individual loop of this length."""
        w = self.weights.get(length, 0.0)
        if w == 0.0:
            return 0.0
        return math.exp(math.log(w) - self._log_counts[length])

    def cylinder_mass(self, word):
        """Mass of [word], walked against the loop records: from the base
        the chain goes to 1 or to a loop's first id, inside a loop to the
        next id, and after the loop's last id back to 1."""
        enum = self.system.enumeration(max(word))
        try:
            if word[0] == 1:
                p = 1.0 / self.expected_length
            else:
                length, _, last = enum.locate(word[0])
                p = self._per_loop(length) / self.expected_length
            for vid, nxt in zip(word, word[1:]):
                if p == 0.0:
                    return 0.0
                if vid == 1:
                    if nxt == 1:
                        p *= self.weights.get(1, 0.0)
                        continue
                    length, first, last = enum.locate(nxt)
                    if nxt != first:
                        return 0.0
                    p *= self._per_loop(length)
                elif nxt != (vid + 1 if vid < last else 1):
                    return 0.0
        except ValidationError:  # an id that is no vertex
            return 0.0
        return p

    def cylinder_masses(self, words):
        return [self.cylinder_mass(word) for word in words]

    def symbol_masses(self, q):
        """[1] has mass 1/E; every interior id of a loop of length l has the
        mass of that loop, _per_loop(l) / E; ids past the loops have none.
        The rows of one length are adjacent, so each length takes one
        _per_loop. Built once per q and kept, read-only: the measure shared
        by every mixture of a schedule is summed once."""
        out = self._symbol_masses.get(q)
        if out is None:
            out = np.zeros(q)
            out[:1] = 1.0 / self.expected_length
            prev = None
            for length, first, last in self.system.enumeration(q).rows:
                if first > q:
                    break
                if length != prev:
                    mass, prev = self._per_loop(length) / self.expected_length, length
                out[first - 1 : last] = mass
            out.flags.writeable = False
            self._symbol_masses[q] = out
        return out


# the weight of the loop series past the last length loop_mme keeps
WEIGHT_CUTOFF = 1e-13
# the longest cutoff loop_mme searches: a tail still heavier than
# WEIGHT_CUTOFF past it raises NonConvergent
MME_LENGTHS = 99999


def loop_mme(system):
    """The maximal-entropy loop chain: weights a_l x*^l, with the verdict,
    x* and the entropy -log x* from thermo.classify.

    The weights run to the first length >= 8 beyond which the series' tail
    is below WEIGHT_CUTOFF, or to the longest loop where that is shorter;
    NonConvergent when the tail is still above WEIGHT_CUTOFF past length
    MME_LENGTHS. `_weight_cutoff` finds that length by bisection, in at
    most 17 tail bounds; the chain then takes one pass per field
    (`LoopMarkovMeasure`)."""
    verdict = classify(system)
    if verdict.verdict == "transient":
        raise ValidationError("transient system: the loop series stays below 1")
    if verdict.verdict == "null-recurrent":
        raise ValidationError("null recurrent system: no maximal measure")
    root = verdict.x_star
    weights = _weights(*system.log_counts(1, _weight_cutoff(system, root)), root)
    return LoopMarkovMeasure(system, weights, entropy=verdict.entropy)


def _weight_cutoff(system, x):
    """The smaller of the longest loop and the first length >= 8 beyond
    which the loop series at x is below WEIGHT_CUTOFF; NonConvergent when
    there is no such length up to MME_LENGTHS and no longest loop there.

    The upper tail bound of `LoopGF._tail_bounds` is nonincreasing in the
    length, so the first light length is found by bisection of
    [8, min(longest loop, MME_LENGTHS)]: at most 17 tail bounds, where a
    scan takes one per length."""
    gf = LoopGF(system)
    lim = system.max_loop_length()
    top = MME_LENGTHS if lim is None else min(lim, MME_LENGTHS)

    def light(stop):
        return gf._tail_bounds(stop, x)[1] < WEIGHT_CUTOFF

    stop = 8 + bisect.bisect_left(range(8, top + 1), True, key=light)
    if stop <= top:
        return stop
    if lim is not None and lim <= MME_LENGTHS:
        return lim
    raise NonConvergent(
        f"the loop series past length {MME_LENGTHS} still weighs up to "
        f"{gf._tail_bounds(MME_LENGTHS, x)[1]}, above WEIGHT_CUTOFF {WEIGHT_CUTOFF}"
    )


def _weights(lengths, logs, y):
    """{l: a_l y**l} from the lengths and log-counts of a loop system."""
    exps = (logs + lengths * math.log(y)).tolist()
    return dict(zip(lengths.tolist(), map(math.exp, exps)))


def tail_parry_measure(system, lo, hi):
    """Equilibrium chain of the sub-system of loops with length in [lo, hi]."""
    lengths, logs = system.log_counts(lo, hi)
    if not len(lengths):
        raise ValidationError(f"no loops with length in [{lo}, {hi}]")
    x0 = math.exp(series_root(lengths, logs))
    return LoopMarkovMeasure(system, _weights(lengths, logs, x0))


def periodic_loop_measure(system, length):
    """The orbit measure of the first loop of a length: entropy zero."""
    if system.multiplicity(length) < 1:
        raise ValidationError(f"no loop of length {length}")
    if length == 1:
        orbit = [1]
    else:
        _, first, last = loop_record(system, length, 0)
        orbit = [1] + list(range(first, last + 1))
    return _PeriodicOrbitMeasure(system, orbit)


class _PeriodicOrbitMeasure:
    def __init__(self, system, orbit):
        self.system = system
        self.orbit = list(orbit)
        self.entropy = 0.0
        self.mass = 1.0

    def cylinder_mass(self, word):
        n = len(self.orbit)
        hits = 0
        for i in range(n):
            if all(self.orbit[(i + j) % n] == w for j, w in enumerate(word)):
                hits += 1
        return hits / n

    def cylinder_masses(self, words):
        return [self.cylinder_mass(word) for word in words]

    def symbol_masses(self, q):
        return np.bincount(self.orbit, minlength=q + 1)[1 : q + 1] / len(self.orbit)


# ---------------------------------------------------------------------------
# mixtures


class MixtureMeasure:
    """Convex combination of measures; entropy is the affine combination."""

    def __init__(self, components):
        self.components = [(float(c), m) for c, m in components]
        if not all(0 <= c < math.inf for c, _ in self.components):
            raise ValidationError("mixture weights must be finite and >= 0")
        self.mass = math.fsum(c * m.mass for c, m in self.components)
        self.entropy = math.fsum(c * m.entropy for c, m in self.components)

    def cylinder_mass(self, word):
        return math.fsum(c * m.cylinder_mass(word) for c, m in self.components)

    def cylinder_masses(self, words):
        parts = [m.cylinder_masses(words) for _, m in self.components]
        weights = [c for c, _ in self.components]
        return [math.fsum(map(operator.mul, weights, col)) for col in zip(*parts)]

    def symbol_masses(self, q):
        """The weighted sum, entrywise correctly rounded like cylinder_mass:
        a sum of at most two terms takes one rounding, so a plain add is
        already its fsum."""
        parts = [c * m.symbol_masses(q) for c, m in self.components]
        if len(parts) <= 2:
            return sum(parts, np.zeros(q))
        return np.array([math.fsum(col) for col in zip(*(p.tolist() for p in parts))])


# ---------------------------------------------------------------------------
# the cylinder metric


def prefix_index(words):
    """The place of each word's prefix word[:-1] in a word list, -1 for a
    one-symbol word; ValidationError when a prefix is not listed before its
    word."""
    at = {}
    for i, word in enumerate(words):
        at.setdefault(word, i)
    out = [at.get(word[:-1], i) if len(word) > 1 else -1 for i, word in enumerate(words)]
    if any(k >= i for i, k in enumerate(out)):
        raise ValidationError("a word's prefix is not listed before it")
    return out


def rho_distance(mu, nu, graph, depth=3):
    """Weighted cylinder distance: the k-th canonical cylinder (1-indexed)
    contributes 2**-k of the mass difference. The weight not covered by the
    enumeration is at most 2**-(number of cylinders). Both measures take
    their masses in one `cylinder_masses` call over the enumeration."""
    words = canonical_cylinders(graph, depth)
    total = 0.0
    weight = 0.5
    for a, b in zip(mu.cylinder_masses(words), nu.cylinder_masses(words)):
        total += weight * abs(a - b)
        weight *= 0.5
    return total


# ---------------------------------------------------------------------------
# limits of measure schedules


def _aitken_limit(xs):
    """Iterated Aitken delta-squared along axis 0, entrywise: each pass maps
    three consecutive terms to x2 - (x2 - x1)**2 / d, d the second
    difference (x2 itself where |d| < 1e-300), until fewer than three
    remain; returns the last term. The square is float_power's, the libm
    pow of Python's `**`, so the digits match a scalar evaluation."""
    xs = np.asarray(xs, dtype=float)
    while len(xs) >= 3:
        x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
        d = (x2 - x1) - (x1 - x0)
        with np.errstate(all="ignore"):
            xs = np.where(np.abs(d) < 1e-300, x2, x2 - np.float_power(x2 - x1, 2.0) / d)
    return xs[-1]


@dataclass
class LimitReport:
    limits: dict
    mass: float
    candidate_scale: float = None
    candidate_residual: float = None
    normalized_entropy: float = None


def cylinder_limit(schedule, graph, q_max=32, candidate=None, tol=1e-9):
    """Extrapolate the weak-star limit of a schedule of measures.

    The symbol masses of the schedule form one (schedule x q) array, and
    every cylinder's sequence is extrapolated at once by iterated Aitken
    (exact when the escape is geometric). The total mass comes from the
    candidate fit when one is supplied and matches within `tol`; otherwise
    from Aitken extrapolation of the mass ladder over truncations.
    """
    if len(schedule) < 3:
        raise ValidationError("a schedule needs at least 3 measures")
    if isinstance(graph, FiniteGraph):
        q = min(graph.symbols, q_max)
        ladder_qs = [q]
    else:
        enum = graph.enumeration(q_max)
        q = min(q_max, enum.next_free_id - 1)
        ladder_qs = [last for _, _, last in enum.rows if last <= q_max]
        if not ladder_qs or ladder_qs[-1] != q:
            ladder_qs.append(q)

    masses = np.array([m.symbol_masses(q) for m in schedule])
    limits = _aitken_limit(masses)
    limits = np.where(limits < 0.0, 0.0, limits)  # max(x, 0.0): nan and -0.0 stay
    running = np.cumsum(limits).tolist()
    ladder = [(k, running[k - 1]) for k in ladder_qs]
    if isinstance(graph, FiniteGraph):
        mass = running[-1]
    else:
        mass = float(_aitken_limit([s for _, s in ladder]))

    scale = residual = entropy = None
    if candidate is not None:
        cand = candidate.symbol_masses(q)
        den = math.fsum(np.float_power(cand, 2.0).tolist())
        if den > 0:
            scale = math.fsum((limits * cand).tolist()) / den
            residual = float(np.max(np.abs(limits - scale * cand)))
            if residual <= tol:
                mass = scale * candidate.mass
                entropy = candidate.entropy
    return LimitReport(dict(enumerate(limits.tolist(), 1)), mass, scale, residual, entropy)
