"""Invariant measures: Markov chains, loop chains, mixtures, the cylinder
metric, and limits of measure schedules.

Oracles used here, independent of the implementation under test:
  - Bernoulli(p) masses and entropy -sum p log p by hand,
  - golden mean Parry data from the Perron eigenvector (phi, 1) of
    [[1,1],[1,0]]: pi = (phi^2, 1)/(1+phi^2), P11 = 1/phi, P12 = 1/phi^2,
    entropy log phi,
  - two parallel loops on one symbol are the full 2-shift, entropy log 2;
    on multigraphs the Parry entropy is the Gurevich entropy log(rho),
  - loop-chain masses from the renewal structure: the base is visited once
    per loop, so mu([1]) = 1/E[length]; a loop of length l with choice
    weight w contributes w/E to each of its interior cylinders,
  - window equilibrium root for lengths 25..75 of the renewal system:
    bisection on sum x^l = 1 gives x0 = 0.9088973377920102, entropy
    log(1/x0) = 0.09552313090558992, mean length 34.582926845078774,
  - rho distances summed by hand over the canonical cylinder order.
"""

import math
import random

import numpy as np
import pytest

from cmshift import measures
from cmshift.errors import NonConvergent, NotStronglyConnected, ValidationError
from cmshift.families import (
    full_shift,
    golden_mean,
    greedy_null_loops,
    power_loops,
    renewal_shift,
    subexponential_loops,
)
from cmshift.graphs import FiniteGraph, GeometricTail, LoopSystem
from cmshift.infinity import drift_schedule
from cmshift.thermo import gurevich_entropy

PHI = (1 + math.sqrt(5)) / 2


def test_bernoulli_uniform():
    mu = measures.bernoulli_measure(full_shift(2), (0.5, 0.5))
    assert abs(mu.entropy - math.log(2)) < 1e-12
    assert abs(mu.cylinder_mass((1, 2, 1)) - 0.125) < 1e-12
    assert mu.mass == 1.0
    assert np.allclose(mu.pi @ mu.P, mu.pi, rtol=0, atol=1e-9)


def test_bernoulli_biased():
    mu = measures.bernoulli_measure(full_shift(2), (0.75, 0.25))
    want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(mu.entropy - want) < 1e-12
    assert abs(mu.cylinder_mass((1, 1)) - 0.5625) < 1e-12


def test_parry_golden_mean():
    mu = measures.parry_measure(golden_mean())
    assert abs(mu.entropy - math.log(PHI)) < 1e-9
    want_pi1 = PHI ** 2 / (1 + PHI ** 2)
    assert abs(mu.cylinder_mass((1,)) - want_pi1) < 1e-9
    assert abs(mu.cylinder_mass((2,)) - (1 - want_pi1)) < 1e-9
    # pi_1 * P12 * P21 with P12 = 1/phi^2, P21 = 1
    assert abs(mu.cylinder_mass((1, 2, 1)) - want_pi1 / PHI ** 2) < 1e-9
    assert mu.cylinder_mass((2, 2)) == 0.0
    assert np.allclose(mu.pi @ mu.P, mu.pi, rtol=0, atol=1e-9)


def test_parry_full_shift_uniform():
    mu = measures.parry_measure(full_shift(3))
    assert abs(mu.entropy - math.log(3)) < 1e-9
    for i in range(1, 4):
        for j in range(1, 4):
            assert abs(mu.cylinder_mass((i, j)) - 1 / 9) < 1e-9


def test_parry_entropy_counts_parallel_edges():
    # two parallel loops on one symbol: the 2-shift, entropy log 2
    assert abs(measures.parry_measure(FiniteGraph(1, {(1, 1): 2})).entropy - math.log(2)) < 1e-12
    g = power_loops(2).truncate(15).as_graph()
    assert not g.is_simple
    assert abs(measures.parry_measure(g).entropy - gurevich_entropy(g).value) < 1e-9


def test_parry_requires_strong_connectivity():
    with pytest.raises(NotStronglyConnected):
        measures.parry_measure(FiniteGraph(2, [(1, 1), (1, 2)]))


def test_parry_rejects_reducible_graphs_on_both_perron_routes():
    # two disjoint full 2-shifts: no one-vertex rome, and dense eig can
    # return positive vectors for the double root 2
    two = FiniteGraph(4, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)])
    # rome 1 of 1 <-> 2, plus a vertex 3 that cannot reach it, or that it
    # cannot reach
    sink = FiniteGraph(3, [(1, 2), (2, 1), (1, 3)])
    source = FiniteGraph(3, [(1, 2), (2, 1), (3, 1)])
    for g in (two, sink, source):
        with pytest.raises(NotStronglyConnected):
            measures.parry_measure(g)


def test_markov_rejects_reducible_chains():
    # the supports of the Parry test above; a stochastic P leaves no vertex
    # without an out-edge, so the sink keeps a loop at 3
    two = {e: 0.5 for e in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)]}
    sink = {(1, 2): 0.5, (1, 3): 0.5, (2, 1): 1.0, (3, 3): 1.0}
    source = {(1, 2): 1.0, (2, 1): 1.0, (3, 1): 1.0}
    for transitions in (two, sink, source):
        g = FiniteGraph(max(map(max, transitions)), list(transitions))
        with pytest.raises(NotStronglyConnected):
            measures.markov_measure(g, transitions)


@pytest.mark.parametrize(
    "build",
    [
        lambda: measures.bernoulli_measure(full_shift(2), (math.nan, 0.5)),
        lambda: measures.markov_measure(golden_mean(), {(1, 1): math.nan, (1, 2): 1, (2, 1): 1}),
        lambda: measures.markov_measure(golden_mean(), {(1, 1): 0, (1, 2): 1, (2, 1): math.nan}),
        lambda: measures.MixtureMeasure([(math.nan, measures.parry_measure(golden_mean()))]),
        lambda: measures.MixtureMeasure([(math.inf, measures.parry_measure(golden_mean()))]),
    ],
)
def test_non_finite_probabilities_and_weights_are_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_parry_and_bernoulli_carry_mass_classes():
    g = golden_mean()
    mu = measures.parry_measure(g)
    kind, v = mu.classes
    assert kind == "ends"
    # the class vector is the right Perron vector behind P
    assert np.allclose(mu.P, np.array([[1, 1], [1, 0]]) * v[None, :] / (PHI * v[:, None]))
    assert measures.bernoulli_measure(full_shift(2), (0.3, 0.7)).classes[0] == "types"
    # parallel edges weigh words by their multiplicities: no end classes
    assert measures.parry_measure(FiniteGraph(1, {(1, 1): 2})).classes is None
    assert measures.markov_measure(g, {(1, 1): 0.5, (1, 2): 0.5, (2, 1): 1.0}).classes is None


def test_markov_measure_needs_strongly_connected_support():
    # 1 -> 2 -> 2: every stationary vector sits on {2}, but P has no
    # strongly connected support to make it unique
    g = FiniteGraph(2, [(1, 1), (1, 2), (2, 2)])
    with pytest.raises(NotStronglyConnected):
        measures.markov_measure(g, {(1, 1): 0.5, (1, 2): 0.5, (2, 2): 1.0})


def test_markov_measure_names_the_first_transition_off_the_graph():
    # P(1,1) and P(2,2) leave the graph 1 <-> 2; row-major order reports P(1,1)
    g = FiniteGraph(2, [(1, 2), (2, 1)])
    with pytest.raises(ValidationError, match=r"P\(1,1\) > 0 off the graph"):
        measures.MarkovMeasure(g, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])


def test_markov_measure_off_graph_check_matches_is_edge():
    # the support check compares P with the graph's sorted edge index in one
    # array operation; is_edge over the entries in row-major order is the
    # oracle, edgeless graphs included
    rng = random.Random(2425)
    for _ in range(300):
        n = rng.randint(1, 6)
        edges = {(i, j): rng.choice((1, 1, 2)) for i in range(1, n + 1) for j in range(1, n + 1)
                 if rng.random() < 0.4}
        g = FiniteGraph(n, edges)
        flat, parallel = g.edge_index
        assert flat.tolist() == sorted((i - 1) * n + j - 1 for i, j in edges)
        assert sorted(parallel) == sorted((i - 1, j - 1, m) for (i, j), m in edges.items() if m > 1)
        P = np.array([[float(rng.random() < 0.4) for _ in range(n)] for _ in range(n)])
        off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
               if P[i - 1, j - 1] > 0 and not g.is_edge(i, j)]
        if off:
            with pytest.raises(ValidationError, match=rf"P\({off[0][0]},{off[0][1]}\) > 0 off"):
                measures.MarkovMeasure(g, np.full(n, 1 / n), P)
        else:
            measures.MarkovMeasure(g, np.full(n, 1 / n), P)


def test_markov_measure_entropy_matches_the_dense_sum_bit_for_bit():
    # the entropy sums its terms over the support only into an n x n array
    # of zeros; the dense sum over every entry, plus the fsum of the
    # parallel-edge terms, is the reference, to the last bit
    rng = random.Random(2426)
    for _ in range(200):
        n = rng.randint(1, 30)
        edges = {}
        for i in range(1, n + 1):
            edges[(i, i % n + 1)] = rng.choice((1, 2))
            for j in range(1, n + 1):
                if rng.random() < 0.2:
                    edges[(i, j)] = rng.choice((1, 1, 3))
        g = FiniteGraph(n, edges)
        P = np.zeros((n, n))
        for (i, j) in edges:
            P[i - 1, j - 1] = rng.random()
        P /= P.sum(axis=1)[:, None]
        pi = np.array([rng.random() for _ in range(n)])
        pi /= pi.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
        want = float(-np.sum(pi[:, None] * P * logs))
        parallel = [(i, j, m) for (i, j), m in edges.items() if m > 1]
        if parallel:
            want += math.fsum(pi[i - 1] * P[i - 1, j - 1] * math.log(m) for i, j, m in parallel)
        assert measures.MarkovMeasure(g, pi, P).entropy == want


def test_markov_measure_stationary_vector():
    # golden-mean chain with P(1,1) = p: pi = (1, 1 - p) / (2 - p)
    p = 0.3
    mu = measures.markov_measure(golden_mean(), {(1, 1): p, (1, 2): 1 - p, (2, 1): 1.0})
    assert np.allclose(mu.pi @ mu.P, mu.pi, rtol=0, atol=1e-9)
    assert abs(mu.pi[0] - 1 / (2 - p)) < 1e-14
    assert abs(mu.pi[1] - (1 - p) / (2 - p)) < 1e-14


def test_parry_local_maximality():
    # the Parry chain maximizes entropy among Markov chains on the graph
    g = golden_mean()
    mu = measures.parry_measure(g)
    rng = __import__("random").Random(7)
    for _ in range(20):
        eps = rng.uniform(-0.2, 0.2)
        p11 = 1 / PHI + eps
        if not (0.01 < p11 < 0.99):
            continue
        nu = measures.markov_measure(g, {(1, 1): p11, (1, 2): 1 - p11, (2, 1): 1.0})
        assert nu.entropy <= mu.entropy + 1e-9


def test_periodic_loop_measure():
    mu = measures.periodic_loop_measure(renewal_shift(), 3)
    assert mu.entropy == 0.0
    assert mu.mass == 1.0
    for a in (1, 3, 4):
        assert abs(mu.cylinder_mass((a,)) - 1 / 3) < 1e-12
    assert abs(mu.cylinder_mass((1, 3)) - 1 / 3) < 1e-12
    assert mu.cylinder_mass((1, 2)) == 0.0
    assert abs(mu.cylinder_mass((1, 3, 4)) - 1 / 3) < 1e-12
    assert mu.cylinder_mass((2,)) == 0.0


def test_periodic_loop_measure_length_one():
    mu = measures.periodic_loop_measure(renewal_shift(), 1)
    assert mu.cylinder_mass((1,)) == 1.0
    assert mu.cylinder_mass((1, 1)) == 1.0
    assert mu.cylinder_mass((1, 2)) == 0.0


def test_loop_mme_renewal():
    mu = measures.loop_mme(renewal_shift())
    assert abs(mu.entropy - math.log(2)) < 1e-9
    # E[length] = sum l 2^-l = 2, base mass 1/E
    assert abs(mu.cylinder_mass((1,)) - 0.5) < 1e-9
    assert abs(mu.cylinder_mass((2,)) - 0.125) < 1e-9
    assert abs(mu.cylinder_mass((1, 1)) - 0.25) < 1e-9
    assert abs(mu.cylinder_mass((1, 2)) - 0.125) < 1e-9
    assert abs(mu.cylinder_mass((2, 1)) - 0.125) < 1e-9
    # id 3 starts the 3-loop: w_3 = 1/8, mass w_3 / E
    assert abs(mu.cylinder_mass((3,)) - 0.0625) < 1e-9
    assert abs(mu.cylinder_mass((3, 4)) - 0.0625) < 1e-9
    assert mu.cylinder_mass((2, 2)) == 0.0


def test_loop_mme_rejects_transient():
    with pytest.raises(ValidationError):
        measures.loop_mme(subexponential_loops())


def test_loop_mme_rejects_null_recurrent():
    with pytest.raises(ValidationError, match="null recurrent"):
        measures.loop_mme(greedy_null_loops())


def test_loop_mme_raises_where_the_weight_scan_ends_short():
    # positive recurrent with x* = 0.99989238; the first tail loop has
    # length 207244, so past MME_LENGTHS the series still weighs 6.1e-5
    system = LoopSystem([(1, 1)], GeometricTail(3, 1e-9, 1.0001))
    with pytest.raises(NonConvergent, match="past length 99999"):
        measures.loop_mme(system)


def test_stationarity_of_loop_mme():
    mu = measures.loop_mme(renewal_shift())
    # sum over one-symbol extensions on either side preserves mass; ids up
    # to 450 cover every loop of length <= 30 (weight beyond that < 2^-30)
    for word in [(1,), (2,), (1, 1), (2, 1), (1, 3)]:
        left = sum(mu.cylinder_mass((a,) + word) for a in range(1, 451))
        right = sum(mu.cylinder_mass(word + (b,)) for b in range(1, 451))
        want = mu.cylinder_mass(word)
        assert abs(left - want) < 1e-9
        assert abs(right - want) < 1e-9


def _brute_chain_mass(measure, graph, word):
    """pi(x_0) P(x_0, x_1) ... of a loop chain, read off a truncation graph
    that holds whole loops only: a vertex off the base has one out-edge and
    one in-edge, the length of its loop is the number of edges from it to
    the base forward plus backward, and the base enters one loop of length
    l with probability w_l / a_l."""
    system = measure.system
    # off the base every vertex has one in-edge
    into = {j: i for i, j in graph.edge_multiplicities() if j != 1}

    def share(v):
        if v == 1:
            return 1.0
        steps = 0
        for step in (lambda u: graph.out_neighbors(u)[0], into.__getitem__):
            u = v
            while u != 1:
                u = step(u)
                steps += 1
        return measure.weights.get(steps, 0.0) / system.multiplicity(steps)

    p = share(word[0]) / measure.expected_length
    for a, b in zip(word, word[1:]):
        if not graph.is_edge(a, b):
            return 0.0
        if a == 1:
            p *= measure.weights.get(1, 0.0) if b == 1 else share(b)
    return p


def test_loop_chain_masses_match_a_walk_over_the_truncation():
    tail = GeometricTail(4, 1.7, 1.1)
    for system in (renewal_shift(), power_loops(), LoopSystem([(1, 1), (3, 2)], tail)):
        q, _ = system.whole_loops(40)
        graph = system.truncate(q).as_graph()
        words = [(a, b) for a in range(1, q + 1) for b in range(1, q + 1)]
        stack = [(v,) for v in range(1, q + 1)]
        while stack:
            w = stack.pop()
            words.append(w)
            if len(w) < 5:
                stack.extend(w + (b,) for b in graph.out_neighbors(w[-1]))
        chains = drift_schedule(system, count=3) + [measures.tail_parry_measure(system, 3, 9)]
        for k, mu in enumerate(chains):
            for w in words:
                want = _brute_chain_mass(mu, graph, w)
                assert math.isclose(mu.cylinder_mass(w), want, rel_tol=1e-12), (k, w)


def test_window_equilibrium_renewal():
    mu = measures.tail_parry_measure(renewal_shift(), 25, 75)
    assert abs(mu.entropy - 0.09552313090558992) < 1e-9
    assert abs(mu.cylinder_mass((1,)) - 0.028916002525746377) < 1e-9
    # supported beyond any small truncation except the base
    assert mu.cylinder_mass((2,)) == 0.0
    assert mu.cylinder_mass((3,)) == 0.0


def test_mixture():
    a = measures.bernoulli_measure(full_shift(2), (0.5, 0.5))
    b = measures.bernoulli_measure(full_shift(2), (0.75, 0.25))
    mix = measures.MixtureMeasure([(0.5, a), (0.5, b)])
    assert abs(mix.mass - 1.0) < 1e-12
    assert abs(mix.entropy - 0.5 * (a.entropy + b.entropy)) < 1e-12
    assert abs(mix.cylinder_mass((1,)) - 0.625) < 1e-12


def test_rho_distance_depth_one():
    g = full_shift(2)
    a = measures.bernoulli_measure(g, (0.5, 0.5))
    b = measures.bernoulli_measure(g, (0.75, 0.25))
    assert abs(measures.rho_distance(a, b, g, depth=1) - 0.1875) < 1e-12


def test_rho_distance_depth_two():
    g = full_shift(2)
    a = measures.bernoulli_measure(g, (0.5, 0.5))
    b = measures.bernoulli_measure(g, (0.75, 0.25))
    # depth-1 part 0.1875 plus (5/16)/8 + (1/16)/16 + (1/16)/32 + (3/16)/64
    assert abs(measures.rho_distance(a, b, g, depth=2) - 0.2353515625) < 1e-12
    assert measures.rho_distance(a, a, g, depth=3) == 0.0
    ab = measures.rho_distance(a, b, g, depth=3)
    ba = measures.rho_distance(b, a, g, depth=3)
    assert abs(ab - ba) < 1e-15


def _assert_symbol_masses(mu, q):
    got = mu.symbol_masses(q)
    assert got.shape == (q,)
    assert got.tolist() == [mu.cylinder_mass((a,)) for a in range(1, q + 1)], type(mu).__name__


def test_symbol_masses_of_markov_chains():
    _assert_symbol_masses(measures.parry_measure(golden_mean()), 2)
    bern = measures.bernoulli_measure(full_shift(3), (0.2, 0.3, 0.5))
    _assert_symbol_masses(bern, 3)
    _assert_symbol_masses(bern, 2)
    # symbols past the graph carry no mass
    assert bern.symbol_masses(5).tolist() == [0.2, 0.3, 0.5, 0.0, 0.0]


@pytest.mark.parametrize("q", [1, 2, 6, 9, 40])
def test_symbol_masses_of_loop_chains(q):
    # renewal ids 2 | 3 4 | 5 6 7 | 8 9 10 11: q = 6 and q = 9 stop inside a loop
    _assert_symbol_masses(measures.loop_mme(renewal_shift()), q)
    _assert_symbol_masses(measures.loop_mme(power_loops()), q)
    # ids 2 | 3 4 | 5 6 | 7 8: the enumeration ends at id 8
    finite = LoopSystem([(1, 1), (2, 1), (3, 3)])
    _assert_symbol_masses(measures.loop_mme(finite), q)


def test_symbol_masses_of_loop_chains_with_skipped_lengths():
    mu = measures.LoopMarkovMeasure(power_loops(), {2: 0.5, 5: 0.3, 7: 0.2})
    _assert_symbol_masses(mu, 64)
    # powers ids: 2..5 the four 2-loops, 6..21 the eight 3-loops
    assert mu.symbol_masses(64)[5:21].tolist() == [0.0] * 16
    _assert_symbol_masses(drift_schedule(renewal_shift())[2], 40)


def test_symbol_masses_take_one_loop_mass_per_length_and_are_kept(monkeypatch):
    # runs of several loops of one length, cut by q anywhere inside a run
    systems = [power_loops(), LoopSystem([(1, 2), (2, 3), (4, 5)], GeometricTail(6, 2, 1.5))]
    for system in systems:
        mu = measures.loop_mme(system)
        for q in range(1, 71):
            _assert_symbol_masses(mu, q)
            assert mu.symbol_masses(q) is mu.symbol_masses(q)
            assert not mu.symbol_masses(q).flags.writeable
    # a mixture schedule sums its shared maximal measure once
    calls = []
    per_loop = measures.LoopMarkovMeasure._per_loop
    monkeypatch.setattr(
        measures.LoopMarkovMeasure, "_per_loop",
        lambda self, length: calls.append((id(self), length)) or per_loop(self, length),
    )
    system = power_loops()
    mme = measures.loop_mme(system)
    schedule = [measures.MixtureMeasure([(0.5, mme), (0.5, d)]) for d in drift_schedule(system)]
    measures.cylinder_limit(schedule, system, q_max=64, candidate=mme)
    mme_lengths = [length for key, length in calls if key == id(mme)]
    assert mme_lengths == sorted(set(mme_lengths))
    assert len(calls) == len(set(calls))


def test_loop_chain_log_counts_come_from_the_count_table():
    # a_l = 2**l exactly on the powers system
    weights = {3: 0.25, 8: 0.5, 40: 0.25}
    mu = measures.LoopMarkovMeasure(power_loops(), weights)
    want = math.fsum(w * (math.log(2**l) - math.log(w)) for l, w in weights.items())
    assert mu.entropy == want / mu.expected_length
    with pytest.raises(ValidationError, match="no loops of length 3"):
        measures.LoopMarkovMeasure(LoopSystem([(2, 1), (4, 1)]), {2: 0.5, 3: 0.5})


def test_symbol_masses_of_mixtures_and_orbits():
    system = renewal_shift()
    mme = measures.loop_mme(system)
    orbit = measures.periodic_loop_measure(system, 4)
    _assert_symbol_masses(orbit, 12)
    _assert_symbol_masses(measures.periodic_loop_measure(system, 1), 3)
    _assert_symbol_masses(measures.MixtureMeasure([(0.5, mme), (0.5, orbit)]), 30)
    drift = drift_schedule(system)
    three = measures.MixtureMeasure([(0.1, mme), (0.7, orbit), (0.2, drift[1])])
    _assert_symbol_masses(three, 30)
    g = full_shift(3)
    parts = [measures.bernoulli_measure(g, p) for p in ((0.1, 0.2, 0.7), (0.3, 0.3, 0.4))]
    _assert_symbol_masses(measures.MixtureMeasure([(0.3, parts[0]), (0.7, parts[1])]), 3)
    _assert_symbol_masses(
        measures.MixtureMeasure([(0.3, parts[0]), (0.6, parts[1]), (0.1, parts[0])]), 3
    )


def test_symbol_masses_of_a_labeled_chain():
    from cmshift import density

    cs = density.concatenated_system(full_shift(2), [golden_mean(), full_shift(2)], n=9, M=4)
    nu = density.concatenated_measure(cs)
    _assert_symbol_masses(nu, 2)
    _assert_symbol_masses(nu, 4)  # labels 3 and 4 carry no state


def test_cylinder_limit_half_mme_schedule():
    system = renewal_shift()
    mme = measures.loop_mme(system)
    schedule = []
    for k in range(2, 8):
        drift = measures.periodic_loop_measure(system, 2 ** k)
        schedule.append(measures.MixtureMeasure([(0.5, mme), (0.5, drift)]))
    rep = measures.cylinder_limit(schedule, system, q_max=16, candidate=mme)
    assert abs(rep.mass - 0.5) < 1e-9
    assert rep.candidate_residual < 1e-9
    assert abs(rep.candidate_scale - 0.5) < 1e-9
    assert abs(rep.normalized_entropy - math.log(2)) < 1e-9
    assert abs(rep.limits[1] - 0.25) < 1e-9


def test_cylinder_limit_without_candidate():
    system = renewal_shift()
    mme = measures.loop_mme(system)
    schedule = []
    for k in range(2, 8):
        drift = measures.periodic_loop_measure(system, 2 ** k)
        schedule.append(measures.MixtureMeasure([(0.5, mme), (0.5, drift)]))
    rep = measures.cylinder_limit(schedule, system, q_max=64)
    assert abs(rep.mass - 0.5) < 1e-3
    assert rep.normalized_entropy is None
