"""Shared helpers for the randomized property suite.

The oracles here enumerate walks explicitly (word-by-word recursion over
out-edges), independent of the transfer-matrix and renewal recursions under
test.  Instances stay tiny — at most 5 symbols and words of length <= 10 —
so exhaustive enumeration is exact and fast.  Perron roots are bracketed in
decimal arithmetic by the Collatz-Wielandt bounds of positive vectors, with
no float eigensolver.
"""

import itertools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext

from cmshift.counting import CountSeries, _state, _walk_counts
from cmshift.density import _shortest_path
from cmshift.errors import CapacityError, ConnectorNotFound, NonConvergent, ValidationError
from cmshift.graphs import (
    FiniteGraph,
    GeometricTail,
    LoopSystem,
    _log_big,
    canonical_cylinders,
    strongly_connected_components,
    walk_view,
)
from cmshift.measures import MME_LENGTHS, WEIGHT_CUTOFF, LimitReport
from cmshift.thermo import LoopGF


def components(graph):
    """The strongly connected components of a finite graph, as symbol lists."""
    succ = [[j - 1 for j in graph.out_neighbors(i)] for i in range(1, graph.symbols + 1)]
    return [[v + 1 for v in comp] for comp in strongly_connected_components(succ)]


def random_strongly_connected_graph(rng, max_symbols=5, p=0.5):
    """A random simple strongly connected graph on 2..max_symbols symbols."""
    while True:
        s = rng.randint(2, max_symbols)
        edges = [
            (i, j)
            for i in range(1, s + 1)
            for j in range(1, s + 1)
            if rng.random() < p
        ]
        if not edges:
            continue
        g = FiniteGraph(s, edges)
        if len(components(g)) == 1:
            return g


def random_two_out_graph(rng, symbols):
    """A random strongly connected simple graph with two out-edges at every
    vertex: a random Hamiltonian cycle plus one random chord per vertex (a
    self-loop allowed)."""
    order = list(range(1, symbols + 1))
    rng.shuffle(order)
    edges = set()
    for k, v in enumerate(order):
        nxt = order[(k + 1) % symbols]
        edges.add((v, nxt))
        edges.add((v, rng.choice([u for u in order if u != nxt])))
    return FiniteGraph(symbols, sorted(edges))


def enumerate_words(graph, n, start=None, end=None, cap=1_000_000):
    """All admissible words with n symbols, lexicographic order: the
    brute-force word oracle.

    Requires a simple FiniteGraph: on a multigraph, words and walks are not
    in bijection.
    """
    if not isinstance(graph, FiniteGraph):
        raise ValidationError("enumerate_words needs a finite graph; truncate first")
    if not graph.is_simple:
        raise ValidationError("enumerate_words needs a simple graph (no parallel edges)")
    if n < 1:
        raise ValidationError("word length must be >= 1")
    starts = [start] if start is not None else list(range(1, graph.symbols + 1))
    out = []
    stack = [(v,) for v in reversed(starts) if 1 <= v <= graph.symbols]
    while stack:
        w = stack.pop()
        if len(w) == n:
            if end is None or w[-1] == end:
                out.append(w)
                if len(out) > cap:
                    raise CapacityError(f"more than {cap} words of length {n}")
            continue
        for v in reversed(graph.out_neighbors(w[-1])):
            stack.append(w + (v,))
    return out


def walks(graph, length, start=None):
    """All walks x_0..x_length, one symbol per step, as tuples."""
    starts = [start] if start is not None else range(1, graph.symbols + 1)
    acc = [(v,) for v in starts]
    for _ in range(length):
        acc = [w + (v,) for w in acc for v in graph.out_neighbors(w[-1])]
    return acc


def brute_loop_count(graph, vertex, n):
    """Number of walks of n edges from vertex back to itself."""
    return sum(1 for w in walks(graph, n, start=vertex) if w[-1] == vertex)


def brute_first_return_count(graph, vertex, n):
    """Loops of n edges at vertex whose interior avoids vertex."""
    return sum(
        1
        for w in walks(graph, n, start=vertex)
        if w[-1] == vertex and all(x != vertex for x in w[1:-1])
    )


def brute_escape_count(graph, M, q, n, a=None, b=None):
    """Words x_0..x_{n+1} with endpoints <= q (or pinned to a, b) and at
    most floor((n+2)/M) positions at symbols <= q."""
    budget = (n + 2) // M
    total = 0
    for w in walks(graph, n + 1):
        if a is None:
            if w[0] > q or w[-1] > q:
                continue
        else:
            if w[0] != a or w[-1] != b:
                continue
        if sum(1 for x in w if x <= q) <= budget:
            total += 1
    return total


def brute_markov_masses(measure, graph, n):
    """All positive-mass n-cylinder masses of a stationary chain, one word at
    a time by graph DFS, each the left-to-right product pi(x_0) P(x_0, x_1) ..."""
    out = []
    stack = [
        ((v,), float(measure.pi[v - 1]))
        for v in range(graph.symbols, 0, -1)
        if measure.pi[v - 1] > 0.0
    ]
    while stack:
        word, mass = stack.pop()
        if len(word) == n:
            out.append(mass)
            continue
        a = word[-1]
        for b in reversed(graph.out_neighbors(a)):
            p = float(measure.P[a - 1, b - 1])
            if p > 0.0:
                stack.append((word + (b,), mass * p))
    return out


def brute_min_cover(masses, delta):
    """Smallest number of cylinders whose total mass exceeds 1 - delta,
    checked over every subset on correctly rounded sums (`math.fsum`, which
    is monotone, so the heaviest k always reach the largest k-sum)."""
    best = None
    for k in range(1, len(masses) + 1):
        for combo in itertools.combinations(masses, k):
            if math.fsum(combo) > 1 - delta:
                best = k
                break
        if best is not None:
            break
    return best


def relabeled(graph, sigma):
    """The graph with symbol i renamed to sigma[i] (a dict or list lookup)."""
    edges = {
        (sigma[i], sigma[j]): m for (i, j), m in graph.edge_multiplicities().items()
    }
    return FiniteGraph(graph.symbols, edges)


def marked_preserving_permutation(rng, symbols, q):
    """A random permutation of 1..symbols mapping {1..q} onto itself."""
    low = list(range(1, min(q, symbols) + 1))
    high = list(range(min(q, symbols) + 1, symbols + 1))
    rng.shuffle(low)
    rng.shuffle(high)
    image = low + high
    return {i + 1: image[i] for i in range(symbols)}


def scalar_aitken_limit(xs):
    """Iterated Aitken delta-squared on a list of floats, one term at a time."""
    xs = list(xs)
    while len(xs) >= 3:
        nxt = []
        for x0, x1, x2 in zip(xs, xs[1:], xs[2:]):
            d = (x2 - x1) - (x1 - x0)
            nxt.append(x2 if abs(d) < 1e-300 else x2 - (x2 - x1) ** 2 / d)
        xs = nxt
    return xs[-1]


def per_id_cylinder_limit(schedule, graph, q_max=32, candidate=None, tol=1e-9):
    """measures.cylinder_limit one symbol id at a time: each id's masses from
    cylinder_mass((a,)), a scalar iterated Aitken per id and for the ladder,
    and the candidate fit summed entry by entry."""
    if isinstance(graph, FiniteGraph):
        ids = list(range(1, min(graph.symbols, q_max) + 1))
        ladder_qs = [ids[-1]]
    else:
        enum = graph.enumeration(q_max)
        ids = list(range(1, min(q_max, enum.next_free_id - 1) + 1))
        ladder_qs = [last for _, _, last in enum.rows if last <= q_max]
        if not ladder_qs or ladder_qs[-1] != ids[-1]:
            ladder_qs.append(ids[-1])
    limits = {}
    for a in ids:
        limits[a] = max(scalar_aitken_limit([m.cylinder_mass((a,)) for m in schedule]), 0.0)
    running = 0.0
    by_q = {}
    for a in ids:
        running += limits[a]
        by_q[a] = running
    ladder = [(q, by_q[q]) for q in ladder_qs]
    mass = running if isinstance(graph, FiniteGraph) else scalar_aitken_limit([s for _, s in ladder])
    scale = residual = entropy = None
    if candidate is not None:
        cand = {a: candidate.cylinder_mass((a,)) for a in ids}
        num = math.fsum(limits[a] * cand[a] for a in ids)
        den = math.fsum(cand[a] ** 2 for a in ids)
        if den > 0:
            scale = num / den
            residual = max(abs(limits[a] - scale * cand[a]) for a in ids)
            if residual <= tol:
                mass = scale * candidate.mass
                entropy = candidate.entropy
    return LimitReport(limits, mass, scale, residual, entropy)


def scanned_weight_cutoff(system, x):
    """measures._weight_cutoff by a scan of the lengths from 1 on, one tail
    bound a length from 8 on, stopping at the longest loop: the reference
    for its bisection."""
    gf = LoopGF(system)
    lim = system.max_loop_length()
    stop = 1
    while not (stop >= 8 and gf._tail_bounds(stop, x)[1] < WEIGHT_CUTOFF):
        if lim is not None and stop >= lim:
            break
        if stop >= MME_LENGTHS:
            raise NonConvergent(
                f"the loop series past length {stop} still weighs up to "
                f"{gf._tail_bounds(stop, x)[1]}, above WEIGHT_CUTOFF {WEIGHT_CUTOFF}"
            )
        stop += 1
    return stop


def dict_loop_chain(system, weights, entropy=None):
    """(weights, log counts, expected length, entropy) of
    measures.LoopMarkovMeasure(system, weights, entropy), built as dicts
    entry by entry: the reference for its one-pass fields."""
    weights = {int(l): float(w) for l, w in weights.items() if w > 0}
    total = math.fsum(weights.values())
    weights = {l: w / total for l, w in weights.items()}
    lengths, logs = system.log_counts(min(weights), max(weights))
    known = dict(zip(lengths.tolist(), logs.tolist()))
    for l in weights:
        if l not in known:
            raise ValidationError(f"no loops of length {l}")
    log_counts = {l: known[l] for l in weights}
    expected = math.fsum(l * w for l, w in weights.items())
    if entropy is None:
        entropy = (
            math.fsum(w * (log_counts[l] - math.log(w)) for l, w in weights.items()) / expected
        )
    return weights, log_counts, expected, float(entropy)


def graph_spec(graph):
    """The JSON document form of a graph (inverse of load_graph)."""
    if isinstance(graph, FiniteGraph):
        if not graph.is_simple:
            raise ValidationError("multigraphs have no document form")
        edges = sorted(graph.edge_multiplicities())
        return {
            "kind": "finite",
            "finite": {"symbols": graph.symbols, "edges": [[i, j] for i, j in edges]},
        }
    if isinstance(graph, LoopSystem):
        tail = graph.tail
        if tail is not None and not isinstance(tail, GeometricTail):
            raise ValidationError("formula tails have no document form")
        tail_doc = None
        if tail is not None:
            tail_doc = {
                "from_length": tail.from_length,
                "coeff": tail.coeff,
                "growth": tail.growth,
            }
        return {
            "kind": "loop_system",
            "loop_system": {
                "loops": [{"length": l, "multiplicity": m} for l, m in graph.loops],
                "tail": tail_doc,
            },
        }
    raise ValidationError(f"not a graph: {graph!r}")


def escape_count_pinned(graph, M, q, a, b, n_max):
    """counting.escape_count with x_0 = a and x_{n+1} = b exactly: the same
    count kernel on the walk view, started at a's state and ended at b's."""
    if M < 1 or q < 1 or n_max < 0:
        raise ValidationError("need M >= 1, q >= 1, n_max >= 0")
    view = walk_view(graph, n_max + 1, list(range(1, q + 1)) + [a, b])
    marked = {i for i, v in enumerate(view.ids) if v <= q}
    starts, ends = [_state(view, a)], [_state(view, b)]
    (counts,) = _walk_counts(view, marked, starts, ends, [lambda e: (e + 1) // M])
    meta = {"M": M, "q": q, "states": view.state_count, "pinned": [a, b]}
    return CountSeries("escape_count", 0, counts, meta)


def tarjan_pruned_system(ambient, supports, n, M):
    """density.concatenated_system's presentation built whole and then cut
    down by Tarjan's algorithm: every block and connector state of the M
    slots, numbered in repr order, kept when it lies in the strongly
    connected component of the slot-0 start. ConnectorNotFound where a slot
    has no block end that reaches the anchor 1, or where a slot start falls
    outside that component.

    Returns (graph, labels, slot_starts, block_counts, entropy_floor,
    states), states the number of states before the cut.
    """
    label, edges, counts, conns = {("b", 0, 0, 1): 1}, [], [], []
    for s in range(M):
        sup = supports[s % len(supports)]
        ends = Counter({1: 1})
        for o in range(n - 1):
            nxt = Counter()
            for v, c in ends.items():
                for w in sup.out_neighbors(v):
                    label[("b", s, o + 1, w)] = w
                    edges.append((("b", s, o, v), ("b", s, o + 1, w)))
                    nxt[w] += c
            ends = nxt
        start = ("b", (s + 1) % M, 0, 1)
        label[start] = 1
        conn = {}
        for v in sorted(ends):
            path = (v, 1) if ambient.is_edge(v, 1) else _shortest_path(ambient, v, 1)
            if path is None:
                continue
            keys = [("b", s, n - 1, v)] + [("c", s, v, k) for k in range(len(path) - 2)]
            for key, u in zip(keys[1:], path[1:-1]):
                label[key] = u
            edges.extend(zip(keys, keys[1:] + [start]))
            conn[v] = len(keys) - 1
        if not conn:
            raise ConnectorNotFound(f"slot {s}")
        counts.append(sum(ends[v] for v in conn))
        conns.append(conn)

    every = sorted(label, key=repr)
    whole = {key: i + 1 for i, key in enumerate(every)}
    graph = FiniteGraph(len(every), {(whole[a], whole[b]): 1 for a, b in edges})
    comp = next(c for c in components(graph) if whole[("b", 0, 0, 1)] in c)
    order = [every[i - 1] for i in sorted(comp)]
    ids = {key: i + 1 for i, key in enumerate(order)}
    graph = FiniteGraph(len(order), {
        (ids[a], ids[b]): 1 for a, b in edges if a in ids and b in ids
    })
    starts = []
    for s in range(M):
        if ("b", s, 0, 1) not in ids:
            raise ConnectorNotFound(f"slot {s} is unreachable after pruning")
        starts.append(ids[("b", s, 0, 1)])

    period = M * n + sum(max(c.values()) for c in conns)
    spread = sum(max(c.values()) - min(c.values()) for c in conns)
    floor = (_log_big(math.prod(counts)) - (math.log(spread + 1) if spread else 0.0)) / period
    labels = tuple(label[key] for key in order)
    return graph, labels, tuple(starts), tuple(counts), floor, len(every)


def per_word_rho_distance(mu, nu, graph, depth=3):
    """measures.rho_distance as one cylinder_mass call a measure and word:
    each canonical cylinder walked from its first symbol."""
    total = 0.0
    weight = 0.5
    for cyl in canonical_cylinders(graph, depth):
        total += weight * abs(mu.cylinder_mass(cyl) - nu.cylinder_mass(cyl))
        weight *= 0.5
    return total


def pressure_sweep_graphs():
    """The seeded pressure sweep: 293 random simple graphs of 2..6 symbols,
    each ordered pair an edge with probability 1/2 (edgeless draws
    redrawn), from random.Random(11)."""
    rng = random.Random(11)
    out = []
    while len(out) < 293:
        s = rng.randint(2, 6)
        edges = [(i, j) for i in range(1, s + 1) for j in range(1, s + 1) if rng.random() < 0.5]
        if edges:
            out.append(FiniteGraph(s, edges))
    return out


def _decimal_solve(m, b):
    """x with m x = b, by Gaussian elimination with partial pivoting in the
    current decimal context; None on a zero pivot."""
    n = len(m)
    m = [row[:] + [bi] for row, bi in zip(m, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if not m[p][k]:
            return None
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] -= f * m[k][j]
    x = [Decimal(0)] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
    return x


def _collatz_wielandt(rows, v):
    """[min, max] of (A v)_i / v_i for a positive vector v: it contains the
    Perron root of the nonnegative matrix A = rows."""
    ratios = [sum(a * x for a, x in zip(row, v)) / vi for row, vi in zip(rows, v)]
    return min(ratios), max(ratios)


def decimal_perron_bracket(rows):
    """[lo, hi] around the Perron root of an irreducible nonnegative matrix
    of Decimals, in the current decimal context: the intersection of the
    Collatz-Wielandt brackets of the positive vectors met, closed to 1e-25
    relative or after 200 steps.

    The vectors come from a shifted power iteration: each step solves
    (sigma - A) y = v, a power step of (sigma - A)^-1, whose iterates stay
    positive for sigma above the root. sigma is the upper end of the bracket
    (Noda's iteration), or the geometric mean of the ends while they are
    more than a factor 2 apart (a bisection in log sigma, since the root can
    sit e^-t below the largest entry); a step whose iterate is not positive
    put sigma at or below the root. Each solve is on D^-1 A D, D = diag(v),
    whose Perron vector is near all ones, so entries far below the largest
    keep their digits. Whatever the steps do, the bracket is certified by
    the Collatz-Wielandt bracket of a positive vector alone.
    """
    n = len(rows)
    v = [Decimal(1)] * n
    lo, hi = _collatz_wielandt(rows, v)
    below, rel = lo, Decimal("1e-25")
    for _ in range(200):
        if hi - lo <= rel * hi:
            break
        close = hi <= 2 * below
        sigma = hi * (1 + rel / 10**5) if close else (below * hi).sqrt()
        m = [[(sigma if i == j else 0) - rows[i][j] * v[j] / v[i] for j in range(n)]
             for i in range(n)]
        y = _decimal_solve(m, [Decimal(1)] * n)
        if y is None or min(y) <= 0:
            if close:
                break
            below = sigma
            continue
        y = [a * b for a, b in zip(y, v)]
        top = max(y)
        v = [x / top for x in y]
        l2, h2 = _collatz_wielandt(rows, v)
        lo, hi = max(lo, l2), min(hi, h2)
        below = max(below, lo)
    return lo, hi


def decimal_pressure_bracket(graph, t, q):
    """[lo, hi] around e^P, P the pressure of -t on the symbols <= q of a
    finite graph, or None without a cycle: the largest Perron root over the
    strongly connected blocks of A_t, a_ij e^-t where j <= q, each bracketed
    by decimal_perron_bracket at 40 digits."""
    mult = graph.edge_multiplicities()
    with localcontext() as ctx:
        ctx.prec = 40
        weight = [Decimal(-t).exp() if j <= q else Decimal(1) for j in range(1, graph.symbols + 1)]
        best = None
        for comp in components(graph):
            idx = sorted(comp)
            rows = [[mult.get((i, j), 0) * weight[j - 1] for j in idx] for i in idx]
            if not any(any(row) for row in rows):
                continue
            lo, hi = decimal_perron_bracket(rows)
            best = (lo, hi) if best is None else (max(best[0], lo), max(best[1], hi))
    return best
