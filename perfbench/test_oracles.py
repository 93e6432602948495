"""The benchmark's oracles agree with brute force at small sizes.

    python3 -m pytest perfbench/test_oracles.py -q

Nothing here imports cmshift: each oracle is compared with a direct
enumeration of words, walks or subsets.
"""

import itertools
import math
import random

import numpy as np

import gen
import oracles


def _words(doc, n):
    """All admissible words of n symbols of a finite graph document."""
    outs = {}
    for i, j in doc["finite"]["edges"]:
        outs.setdefault(i, []).append(j)
    words = [(v,) for v in range(1, doc["finite"]["symbols"] + 1)]
    for _ in range(n - 1):
        words = [w + (v,) for w in words for v in outs.get(w[-1], ())]
    return words


def _random_docs(count, seed=0):
    rng = random.Random(seed)
    return [gen.random_two_out_doc(rng, rng.randint(2, 5)) for _ in range(count)]


def test_spectral_radius_matches_closed_walk_growth():
    golden = gen.golden_doc()
    assert abs(oracles.log_spectral_radius(oracles.adjacency(golden)) - math.log((1 + 5**0.5) / 2)) < 1e-12
    for doc in _random_docs(5):
        closed = sum(1 for w in _words(doc, 11) if (w[-1], w[0]) in {tuple(e) for e in doc["finite"]["edges"]})
        a = oracles.adjacency(doc)
        assert closed == round(np.trace(np.linalg.matrix_power(a, 11)))


def test_finite_pressure_weights_match_walk_sums():
    for doc in _random_docs(4, seed=1):
        t, q, n = 0.7, 2, 8
        edges = {tuple(e) for e in doc["finite"]["edges"]}
        total = 0.0
        for w in _words(doc, n):
            if (w[-1], w[0]) in edges:
                visits = sum(1 for v in w[1:] + (w[0],) if v <= q)
                total += math.exp(-t * visits)
        w_t = oracles.adjacency(doc)
        w_t[:, :q] *= math.exp(-t)
        assert abs(np.trace(np.linalg.matrix_power(w_t, n)) - total) < 1e-9 * max(1.0, total)
        assert abs(oracles.finite_pressure(doc, t, q) - oracles.log_spectral_radius(w_t)) < 1e-12


def test_block_count_and_word_masses_enumerate_words():
    for doc in _random_docs(4, seed=2):
        for n in (1, 3, 6):
            assert oracles.block_count(doc, 1, n) == sum(1 for w in _words(doc, n) if w[0] == 1)
        rng = np.random.default_rng(0)
        a = oracles.adjacency(doc)
        P = a * rng.uniform(0.2, 1.0, a.shape)
        P /= P.sum(axis=1, keepdims=True)
        pi = np.full(a.shape[0], 1.0 / a.shape[0])
        brute = sorted(pi[w[0] - 1] * math.prod(P[x - 1, y - 1] for x, y in zip(w, w[1:]))
                       for w in _words(doc, 5))
        assert np.allclose(sorted(oracles.word_masses(pi, P, 5)), brute, rtol=1e-12, atol=0)
        assert oracles.positive_words(pi, P, 5) == len(brute)


def test_cover_bounds_match_subset_search():
    rng = np.random.default_rng(3)
    for _ in range(20):
        masses = rng.dirichlet(np.ones(7))
        delta = float(rng.uniform(0.05, 0.6))
        best = min(k for k in range(1, 8) for s in itertools.combinations(masses, k) if sum(s) > 1 - delta)
        lo, hi = oracles.cover_bounds(masses, delta)
        assert lo <= best <= hi and hi - lo <= 1


def test_bernoulli_half_cover_matches_enumeration():
    for n in (3, 6, 9):
        for delta in (0.05, 0.3, 0.5, 0.77):
            masses = np.full(2**n, 2.0**-n)
            lo, hi = oracles.cover_bounds(masses, delta, slack=0.0)
            assert lo == hi == oracles.bernoulli_half_cover(n, delta)


def _loop_graph(spec, max_length):
    """Adjacency (with multiplicities) of the loop system cut to loops of
    length <= max_length, every loop materialized."""
    size = 1 + sum((l - 1) * spec.count(l) for l in range(2, max_length + 1))
    a = np.zeros((size, size))
    a[0, 0] = spec.count(1)
    rows = spec.loop_rows(size)
    for length, first in rows:
        path = [0] + list(range(first - 1, first + length - 2)) + [0]
        for u, v in zip(path, path[1:]):
            a[u, v] += 1
    return a


def test_loop_series_root_and_pressure_match_truncations():
    # cutting the system to loops of length <= L can only lower the pressure,
    # and the gap closes geometrically as L grows
    for doc in (gen.RENEWAL, gen.loop_doc([(2, 1)], 3, 1.0, 1.0), gen.loop_doc([(1, 1), (3, 2)], 2, 0.7, 1.1)):
        spec = oracles.LoopSpec(doc)
        short, long = _loop_graph(spec, 12), _loop_graph(spec, 24)
        for t, q in ((0.0, 1), (0.3, 1), (0.8, 3), (0.8, 5)):
            cuts = []
            for a in (short, long):
                w = a.copy()
                w[:, :q] *= math.exp(-t)
                cuts.append(oracles.log_spectral_radius(w))
            exact = spec.pressure(t, q) if t else spec.entropy()
            assert cuts[0] <= cuts[1] + 1e-12 <= exact + 2e-9
            assert exact - cuts[1] <= 0.2 * (exact - cuts[0]) + 1e-9


def test_floored_tail_series_matches_direct_sum():
    spec = oracles.LoopSpec(gen.loop_doc([(2, 1)], 3, 1.37, 1.07))
    for x in (0.2, 0.5, 0.9):
        direct = math.fsum(spec.count(l) * x**l for l in range(1, 3000))
        assert abs(spec.f(x) - direct) < 1e-12 * direct
        slope = math.fsum(l * spec.count(l) * x**l for l in range(1, 3000))
        assert abs(spec.f_prime_x(x) - slope) < 1e-11 * slope


def test_b_inf_matches_a_grid_search():
    for doc in (gen.RENEWAL, gen.POWERS, gen.loop_doc([(2, 1)], 3, 1.3, 1.1)):
        spec = oracles.LoopSpec(doc)
        for lam in (1e-3, 0.05):
            t_max = max(20.0, 3 * math.log(1 / lam))
            grid = min(spec.pressure(t) + t * lam for t in np.linspace(0, t_max, 301))
            value = spec.b_inf(lam, t_max)
            assert value <= grid + 1e-12 and grid - value < 1e-3


def _brute_escape(a, marked, M, n):
    """z_n(M, q) by walking every path of n + 1 edges on a small multigraph
    adjacency, one edge at a time."""
    budget = (n + 2) // M
    total = 0
    stack = [(v, 1, 1, 0) for v in range(a.shape[0]) if marked[v]]
    while stack:
        v, ways, marks, edges = stack.pop()
        if marks > budget:
            continue
        if edges == n + 1:
            total += ways if marked[v] else 0
            continue
        for u in np.nonzero(a[v])[0]:
            stack.append((u, ways * int(a[v, u]), marks + marked[u], edges + 1))
    return total


def test_escape_counts_match_walk_enumeration():
    for doc in _random_docs(3, seed=4):
        a = oracles.adjacency(doc)
        for M, q in ((2, 1), (3, 2)):
            marked = [v + 1 <= q for v in range(a.shape[0])]
            got = oracles.escape_counts(doc, M, q, 5)
            assert got == [_brute_escape(a, marked, M, n) for n in range(6)]
    doc = gen.loop_doc([(1, 2), (3, 1)], 2, 1.0, 1.0)
    spec = oracles.LoopSpec(doc)
    a = _loop_graph(spec, 8)
    for M, q in ((2, 1), (2, 4), (3, 3)):
        marked = [v + 1 <= q for v in range(a.shape[0])]
        got = oracles.escape_counts(doc, M, q, 5)
        assert got == [_brute_escape(a, marked, M, n) for n in range(6)]


def test_escape_counts_match_the_geometric_closed_form():
    for c, g in ((1, 1), (1, 2), (2, 3)):
        doc = gen.loop_doc([], 1, float(c), float(g))
        for M in (2, 3, 5):
            got = oracles.escape_counts(doc, M, 1, 40)
            assert got == [oracles.escape_q1_geometric(c, g, M, n) for n in range(41)]


def test_dimension_verdicts():
    assert oracles.dimension_verdict([(l, 0.0) for l in range(2, 21)], 20) == "convergent"
    rising = [(l, math.exp(0.1 * l)) for l in range(2, 21)]
    assert oracles.dimension_verdict(rising, 20) == "diverging"
    falling = [(l, math.exp(-l)) for l in range(2, 41)]
    assert oracles.dimension_verdict(falling, 40) == "convergent"
