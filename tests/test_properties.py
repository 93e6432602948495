"""Randomized structural properties on small instances.

Every test draws from a seeded RNG, so failures replay exactly.  The
contracts checked here hold with equality or as theorems, not up to
tolerance, except where floating point enters (stationarity, entropy).
"""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from cmshift import counting, density, infinity, katok, measures, thermo
from cmshift.errors import CmshiftError, ConnectorNotFound, NonConvergent, NotStronglyConnected
from cmshift.families import full_shift, golden_mean, power_loops, renewal_shift
from cmshift.graphs import FiniteGraph, GeometricTail, LoopSystem

from properties import (
    brute_escape_count,
    brute_first_return_count,
    brute_loop_count,
    brute_markov_masses,
    brute_min_cover,
    decimal_pressure_bracket,
    enumerate_words,
    escape_count_pinned,
    marked_preserving_permutation,
    per_id_cylinder_limit,
    pressure_sweep_graphs,
    scalar_aitken_limit,
    random_strongly_connected_graph,
    random_two_out_graph,
    relabeled,
    tarjan_pruned_system,
    walks,
)


def graphs_under_test(seed, count=12, **kw):
    rng = random.Random(seed)
    return [random_strongly_connected_graph(rng, **kw) for _ in range(count)]


# ---------------------------------------------------------------------------
# counting


def test_loop_counts_match_brute_force():
    for g in graphs_under_test(101, max_symbols=4):
        series = counting.loop_count(g, 1, 7)
        for n in range(1, 8):
            assert series.value(n) == brute_loop_count(g, 1, n)


def test_first_returns_match_brute_force():
    for g in graphs_under_test(102, max_symbols=4):
        series = counting.first_return_count(g, 1, 7)
        for n in range(1, 8):
            assert series.value(n) == brute_first_return_count(g, 1, n)


def test_renewal_identity():
    # loops decompose uniquely at their first return: z_n = sum f_k z_{n-k}
    for g in graphs_under_test(103, max_symbols=5):
        z = [1] + counting.loop_count(g, 1, 8).counts
        f = [0] + counting.first_return_count(g, 1, 8).counts
        for n in range(1, 9):
            assert z[n] == sum(f[k] * z[n - k] for k in range(1, n + 1))


def test_loop_counts_superadditive():
    # concatenating two loops at the vertex is again a loop
    for g in graphs_under_test(104, max_symbols=5):
        z = counting.loop_count(g, 1, 9)
        for m in range(1, 5):
            for n in range(1, 5):
                assert z.value(m + n) >= z.value(m) * z.value(n)


def test_escape_counts_match_brute_force():
    rng = random.Random(105)
    for g in graphs_under_test(106, count=8, max_symbols=4):
        q = rng.randint(1, g.symbols - 1)
        M = rng.randint(1, 4)
        series = counting.escape_count(g, M=M, q=q, n_max=6)
        for n in range(0, 7):
            assert series.value(n) == brute_escape_count(g, M, q, n)


def test_escape_counts_decrease_in_budget_parameter():
    # a larger M shrinks the allowance floor((n+2)/M) of marked positions
    for g in graphs_under_test(107, count=8, max_symbols=4):
        q = 1
        by_M = [counting.escape_count(g, M=M, q=q, n_max=8) for M in (1, 2, 4, 8)]
        for n in range(0, 9):
            vals = [s.value(n) for s in by_M]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_pinned_escape_counts_sum_to_total():
    rng = random.Random(108)
    for g in graphs_under_test(109, count=8, max_symbols=4):
        q = rng.randint(1, g.symbols)
        M = rng.randint(1, 3)
        total = counting.escape_count(g, M=M, q=q, n_max=5)
        for n in range(0, 6):
            split = sum(
                escape_count_pinned(g, M=M, q=q, a=a, b=b, n_max=5).value(n)
                for a in range(1, q + 1)
                for b in range(1, q + 1)
            )
            assert split == total.value(n)


def test_escape_counts_invariant_under_marked_relabeling():
    rng = random.Random(110)
    for g in graphs_under_test(111, count=8, max_symbols=5):
        q = rng.randint(1, g.symbols - 1)
        sigma = marked_preserving_permutation(rng, g.symbols, q)
        h = relabeled(g, sigma)
        a = counting.escape_count(g, M=2, q=q, n_max=7).counts
        b = counting.escape_count(h, M=2, q=q, n_max=7).counts
        assert a == b


def random_simple_loop_systems(seed, count):
    """Random loop systems with at most one self-loop at the base (so that
    their truncations are simple graphs): explicit loops plus a tail."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        loops = [(1, rng.randint(0, 1))]
        loops += [(rng.randint(2, 5), rng.randint(0, 2)) for _ in range(rng.randint(0, 3))]
        tail = GeometricTail(rng.randint(2, 4), 1.0, rng.choice([1.0, 1.2, 1.3]))
        out.append(LoopSystem(loops, tail))
    return out


def test_lengthed_edges_match_brute_force_on_loop_systems():
    # the walk view folds the loops of each length that hold no queried id
    # into one base -> base edge of that length, with multiplicity > 1 on
    # the tail; compare all four counts at the vertices 1..6 with walk
    # enumeration on a truncation holding every loop of length <= n_max + 1
    # and the loops of ids 1..6
    n_max = 6
    rng = random.Random(113)
    for system in random_simple_loop_systems(112, 8):
        a = system.counts(n_max + 1)
        size = 1 + sum(a[l] * (l - 1) for l in range(2, n_max + 2))
        size = max(size, system.enumeration(6).locate(6)[2])
        g = system.truncate(size).as_graph()
        assert g.is_simple
        for v in range(1, 7):
            loops = counting.loop_count(system, v, n_max)
            firsts = counting.first_return_count(system, v, n_max)
            for n in range(1, n_max + 1):
                assert loops.value(n) == brute_loop_count(g, v, n)
                assert firsts.value(n) == brute_first_return_count(g, v, n)
        for q in range(1, 7):
            M = rng.randint(1, 4)
            series = counting.escape_count(system, M=M, q=q, n_max=n_max - 1)
            for n in range(n_max):
                assert series.value(n) == brute_escape_count(g, M, q, n)
            x, y = rng.randint(1, 6), rng.randint(1, 6)
            pinned = escape_count_pinned(system, M=M, q=q, a=x, b=y, n_max=n_max - 1)
            for n in range(n_max):
                assert pinned.value(n) == brute_escape_count(g, M, q, n, a=x, b=y)


# ---------------------------------------------------------------------------
# Perron roots


def test_perron_root_matches_eigvals():
    # extra inputs: concatenated block systems over the full 2-shift, with
    # golden-mean and full blocks in M = 4 slots, of period M*n, n = 6..15.
    # Every cycle there meets the first slot start once per period, so the
    # entropy is also the growth rate of the block-count products.
    ambient = full_shift(2)
    systems = [
        density.concatenated_system(ambient, [golden_mean(), ambient], n=n, M=4)
        for n in range(6, 16)
    ]
    graphs = graphs_under_test(118, max_symbols=5) + [s.graph for s in systems]
    for g in graphs:
        a = np.zeros((g.symbols, g.symbols))
        for (i, j), m in g.edge_multiplicities().items():
            a[i - 1, j - 1] = m
        want = float(np.max(np.abs(np.linalg.eigvals(a))))
        assert abs(math.log(thermo.perron_root(g)) - math.log(want)) < 1e-10
    for s in systems:
        rate = math.fsum(math.log(c) for c in s.block_counts) / (s.M * s.n)
        assert abs(math.log(thermo.perron_root(s.graph)) - rate) < 1e-12


def _plan_test_graph(rng, kind):
    """A random multigraph: "rome", every cycle through symbol 1 (loops at 1
    plus forward chords); "dense", a cycle through every symbol plus random
    edges; "reducible", two random parts joined one way."""
    s = rng.randint(2, 7)
    edges = {}
    if kind == "rome":
        rest = list(range(2, s + 1))
        rng.shuffle(rest)
        cuts = sorted(rng.sample(range(1, s - 1), rng.randint(0, s - 2))) if s > 2 else []
        parts = [rest[i:j] for i, j in zip([0] + cuts, cuts + [len(rest)])]
        parts += [rng.sample(rest, rng.randint(0, len(rest))) for _ in range(rng.randint(0, 2))]
        for part in parts:
            cycle = [1] + sorted(part) + [1]
            for e in zip(cycle, cycle[1:]):
                edges[e] = rng.choice((1, 1, 2))
        for i in range(2, s):
            if rng.random() < 0.5:
                edges.setdefault((i, rng.randint(i + 1, s)), 1)
    elif kind == "dense":
        edges = {(i, j): rng.choice((1, 1, 2)) for i in range(1, s + 1) for j in range(1, s + 1)
                 if rng.random() < 0.5}
        edges.update({(i, i % s + 1): 1 for i in range(1, s + 1)})
    else:
        cut = rng.randint(1, s - 1)
        for lo, hi in ((1, cut), (cut + 1, s)):
            for i in range(lo, hi + 1):
                edges[(i, rng.randint(lo, hi))] = 1
                edges[(i, rng.randint(lo, hi))] = rng.choice((1, 2))
        edges[(rng.randint(1, cut), rng.randint(cut + 1, s))] = 1
    return FiniteGraph(s, edges or {(1, 1): 1})


def _outcome(call):
    """A query's result in a form that compares bit for bit, or its error."""
    try:
        value = call()
    except CmshiftError as exc:
        return type(exc).__name__, exc.message
    if isinstance(value, measures.MarkovMeasure):
        return value.pi.tobytes(), value.P.tobytes(), value.entropy
    return value


def test_perron_plan_answers_a_reused_graph_as_a_fresh_one():
    # every finite Perron query reads the plan its graph keeps; shuffled
    # queries on one graph object must equal the same queries on a fresh copy
    rng = random.Random(2121)
    kinds = {"rome": 0, "dense": 0, "reducible": 0}
    for k in range(120):
        g = _plan_test_graph(rng, ("rome", "dense", "reducible")[k % 3])
        queries = [("pressure", t, q) for t in (0.0, 0.4, 3.0, 25.0) for q in (0, 1, 2, g.symbols)]
        queries += [("perron_root",), ("classify",), ("parry",), ("gurevich_entropy",), ("is_spr",)]
        rng.shuffle(queries)

        def run(graph, query):
            name, *args = query
            if name == "pressure":
                return _outcome(lambda: infinity.pressure_indicator(graph, *args))
            if name == "parry":
                return _outcome(lambda: measures.parry_measure(graph))
            return _outcome(lambda: getattr(thermo, name)(graph))

        for query in queries:
            fresh = FiniteGraph(g.symbols, g.edge_multiplicities())
            assert run(g, query) == run(fresh, query), (g.edge_multiplicities(), query)
        plan = g.perron_plan
        assert plan is thermo._plan(g)
        kind = "reducible" if len(plan) > 1 else "dense" if plan[0].rome is None else "rome"
        kinds[kind] += 1
        if kind == "reducible":
            for query in (("classify",), ("parry",)):
                assert run(g, query)[0] == "NotStronglyConnected"
        else:
            # the Parry chain kept the block's certified Perron vectors
            assert "perron" in vars(plan[0])
        for block in plan:
            arrays = [block.idx, *block.edges]
            if block.rome is not None:
                arrays += block.returns[:2]
            elif block.edges[0].size:
                arrays.append(block.logs)
            for kept in ("right", "perron"):
                arrays += list(vars(block).get(kept, ())[1:])
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
    assert min(kinds.values()) >= 20, kinds


def test_perron_plan_builds_a_series_only_for_an_unshifted_query():
    # a graph asked only for shifted pressures never sums the unweighted
    # first-return series of its rome blocks, nor solves any block at t = 0;
    # the first unshifted query builds and keeps its t = 0 data, a dense
    # block's right vector but not its left one
    rng = random.Random(2122)
    kept = ("returns", "right", "log_root", "perron")
    for _ in range(45):
        g = _plan_test_graph(rng, rng.choice(("rome", "dense", "reducible")))
        infinity.pressure_indicator(g, 0.7, 1)
        infinity.pressure_indicator(g, 3.0, g.symbols)
        assert not any(name in vars(block) for block in g.perron_plan for name in kept)
        thermo.perron_root(g)
        for block in g.perron_plan:
            assert "log_root" in vars(block)
            if block.rome is not None:
                assert "returns" in vars(block)
            elif block.edges[0].size:
                assert "right" in vars(block)
            assert "perron" not in vars(block)


@pytest.mark.parametrize("kind", ["rome", "dense", "reducible"])
def test_perron_plan_solves_each_block_once_at_t_0(monkeypatch, kind):
    # the entropy, Perron root, classification, SPR verdict, unshifted
    # pressures and Parry chain of one graph object share one t = 0 solve
    # per block: one first-return root at a rome, one dense right vector
    # elsewhere, and one left vector more for the Parry chain of an
    # irreducible dense graph
    calls = {"series_root": 0, "_perron_vector": 0}
    for name in calls:
        solve = getattr(thermo, name)

        def counted(*args, name=name, solve=solve):
            calls[name] += 1
            return solve(*args)

        monkeypatch.setattr(thermo, name, counted)
    rng = random.Random(2123)
    for _ in range(20):
        g = _plan_test_graph(rng, kind)
        queries = [
            lambda: measures.parry_measure(g),
            lambda: thermo.perron_root(g),
            lambda: thermo.classify(g),
            lambda: thermo.gurevich_entropy(g),
            lambda: thermo.is_spr(g),
        ]
        queries += [lambda q=q: infinity.pressure_indicator(g, 0.0, q) for q in range(g.symbols + 1)]
        queries += [lambda t=t: infinity.pressure_indicator(g, t, 0) for t in (0.5, 4.0)]
        rng.shuffle(queries)
        for k in calls:
            calls[k] = 0
        for query in queries + queries:
            try:
                query()
            except NotStronglyConnected:
                assert kind == "reducible"
        plan = g.perron_plan
        assert (len(plan) > 1) == (kind == "reducible")
        romes = sum(block.rome is not None for block in plan)
        dense = sum(block.rome is None and bool(block.edges[0].size) for block in plan)
        vectors = dense if kind == "reducible" else 2 * dense
        assert calls == {"series_root": romes, "_perron_vector": vectors}, g.edge_multiplicities()


@pytest.mark.parametrize("query", ["perron_root", "classify", "gurevich_entropy", "is_spr"])
def test_dense_t_0_root_makes_one_eig_call(monkeypatch, query):
    # the t = 0 root of a dense block solves its right vector alone; the
    # first Parry chain adds the left one, and a reused one nothing
    top, eigs = thermo._top_eigenpair, []

    def counted(b):
        eigs.append(b)
        return top(b)

    monkeypatch.setattr(thermo, "_top_eigenpair", counted)
    g = full_shift(2)
    getattr(thermo, query)(g)
    assert thermo._plan(g)[0].rome is None and len(eigs) == 1
    measures.parry_measure(g)
    measures.parry_measure(g)
    assert len(eigs) == 2


@pytest.mark.parametrize(
    "make", [golden_mean, lambda: renewal_shift().truncate(7).as_graph()], ids=["golden", "renewal-7"]
)
def test_parry_chain_on_a_rome_graph_builds_the_adjacency_once(monkeypatch, make):
    # a rome block keeps its matrix: a fresh graph's Parry chain builds the
    # adjacency once, for the plan, and a reused graph's never again
    build, calls = thermo.adjacency_matrix, []

    def counted(graph):
        calls.append(graph)
        return build(graph)

    monkeypatch.setattr(thermo, "adjacency_matrix", counted)
    g = make()
    measures.parry_measure(g)
    assert g.perron_plan[0].rome is not None and len(calls) == 1
    for _ in range(3):
        measures.parry_measure(g)
    assert len(calls) == 1


def _kept_arrays(value):
    """The numpy arrays inside a value, through nested tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _kept_arrays(item)


def test_rome_blocks_keep_no_dense_array():
    # a rome block keeps its edges, never an n x n array, after every kind
    # of query; the dense log weights exist only on blocks without a rome,
    # where eig runs (golden mean and full 2-shift joined one way: a rome
    # block and a dense one)
    ambient = full_shift(2)
    graphs = [
        density.concatenated_system(ambient, supports, n=n, M=M).graph
        for supports in ([golden_mean(), ambient], [ambient])
        for n, M in ((5, 2), (13, 3), (30, 4))
    ]
    for system in (renewal_shift(), power_loops()):
        for q in (8, 16):
            boundary, _ = system.whole_loops(q)
            graphs.append(system.truncate(boundary).as_graph())
    graphs.append(FiniteGraph(4, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (3, 4), (4, 3), (4, 4)]))
    queries = [
        lambda g: infinity.pressure_indicator(g, 0.0, 1),
        lambda g: infinity.pressure_indicator(g, 0.7, 1),
        lambda g: infinity.pressure_indicator(g, 10.0, 2),
        thermo.perron_root,
        thermo.classify,
        thermo.is_spr,
        thermo.gurevich_entropy,
        measures.parry_measure,
    ]
    kinds = {"rome": 0, "dense": 0}
    for g in graphs:
        for query in queries:
            try:
                query(g)
            except NotStronglyConnected:
                assert len(g.perron_plan) > 1
        for block in g.perron_plan:
            kept = list(_kept_arrays(list(vars(block).values())))
            if block.rome is not None:
                kinds["rome"] += 1
                assert "logs" not in vars(block)
                assert all(array.ndim == 1 for array in kept), [a.shape for a in kept]
            elif block.edges[0].size:
                kinds["dense"] += 1
                assert vars(block)["logs"].shape == (len(block.idx),) * 2
    assert kinds["rome"] == len(graphs) and kinds["dense"] == 1, kinds


def test_perron_plan_keeps_no_failed_solve(monkeypatch):
    # a NonConvergent is raised again on the next query, which solves anew
    g = FiniteGraph(3, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3)])
    solve, calls = thermo._perron_vector, []

    def flaky(logs):
        calls.append(logs)
        if len(calls) <= 2:
            raise NonConvergent("bracket too wide")
        return solve(logs)

    monkeypatch.setattr(thermo, "_perron_vector", flaky)
    for query in (thermo.perron_root, measures.parry_measure):
        with pytest.raises(NonConvergent):
            query(g)
    block = g.perron_plan[0]
    assert not any(name in vars(block) for name in ("right", "log_root", "perron"))
    assert abs(thermo.perron_root(g) - 2.0) < 1e-12
    measures.parry_measure(g)
    # the right vector on the block's log weights three times, then the
    # left one on their transpose
    logs = block.logs
    with np.errstate(divide="ignore"):
        assert np.array_equal(logs, np.log(thermo.adjacency_matrix(g)))
    assert [np.array_equal(a, logs) for a in calls] == [True, True, True, False]
    assert np.array_equal(calls[3], logs.T)


# ---------------------------------------------------------------------------
# dense Perron roots: one right vector certifies a pressure

SWEEP_TS = (0.7, 3.0, 10.0, 30.0, 100.0)
# NonConvergent pressures of the seeded sweep over SWEEP_TS (2930 in all):
# 211 when every dense root needed both eig vectors inside the bracket, 145
# with the right vector's own bracket on scaled floats, 118 on log weights
SWEEP_RAISES = 118
# at t = 740, where e^-t is subnormal (586 pressures): 192 raises and 5
# answers outside their brackets on scaled floats, 107 raises and none
# outside on log weights
SWEEP_RAISES_740 = 107


def test_sweep_pressures_lie_in_decimal_collatz_wielandt_brackets():
    # every answered pressure of the seeded sweep lies within 1e-9 relative
    # of a 40-digit Collatz-Wielandt bracket on the Perron root, and a
    # pressure that is not answered raises NonConvergent, no other error
    raised = dict.fromkeys(SWEEP_TS + (740.0,), 0)
    tol = Decimal("1e-9")
    for g in pressure_sweep_graphs():
        for t in raised:
            for q in (1, 2):
                try:
                    p = infinity.pressure_indicator(g, t, q)
                except NonConvergent:
                    raised[t] += 1
                    continue
                bracket = decimal_pressure_bracket(g, t, q)
                if bracket is None:
                    assert p == -math.inf
                    continue
                lo, hi = bracket
                with localcontext() as ctx:
                    ctx.prec = 40
                    assert hi - lo <= Decimal("1e-20") * hi
                    where = (g.edge_multiplicities(), t, q)
                    assert lo * (1 - tol) <= Decimal(p).exp() <= hi * (1 + tol), where
    assert sum(raised[t] for t in SWEEP_TS) <= SWEEP_RAISES
    assert raised[740.0] <= SWEEP_RAISES_740


# the 3-symbol family of ROADMAP item 1: lam^2 - e lam - e = 0, e = e^-t, at q = 2
THREE_SYMBOL = {(1, 3): 1, (2, 1): 1, (2, 2): 1, (3, 1): 1, (3, 2): 1}


@pytest.mark.parametrize(
    "t", [0.7, 3.0, 10.0, 30.0, 100.0, 300.0, 600.0, 700.0, 720.0, 740.0, 744.0]
)
def test_dense_pressures_match_closed_forms(t):
    # neither graph has a one-vertex rome, so both take the dense route;
    # past t = 708 their weights e^-t are subnormal
    eps = math.exp(-t)
    family = FiniteGraph(3, THREE_SYMBOL)
    assert thermo._plan(family)[0].rome is None
    want = -t / 2 + math.log(math.sqrt(eps) / 2 + math.sqrt(1 + eps / 4))
    assert abs(infinity.pressure_indicator(family, t, 2) - want) <= 1e-12 * max(1.0, abs(want))
    # full_shift(2) at q = 1: P = log(1 + e^-t)
    assert abs(infinity.pressure_indicator(full_shift(2), t, 1) - math.log1p(eps)) <= 1e-12


def test_full_shift_pressure_answers_where_eig_loses_a_vector_entry():
    # from t = 672 on, eig returns the Perron vector of the full 2-shift's
    # weighted block as (1, 0); the eigen-equation fills the lost entry
    g = full_shift(2)
    for k in range(145):
        t = 672.0 + k / 2
        assert abs(infinity.pressure_indicator(g, t, 1) - math.log1p(math.exp(-t))) <= 1e-12, t


def _count_passes(monkeypatch):
    """Counters of eig calls and log Collatz-Wielandt passes of the
    one-vector kernel, and whether each pass certified its root."""
    log = {"eig": 0, "passes": []}
    top, width = thermo._top_eigenpair, thermo._log_width

    def counted_top(b):
        log["eig"] += 1
        return top(b)

    def counted_width(ratios, y):
        log["passes"].append(False)
        w = width(ratios, y)
        log["passes"][-1] = w <= thermo.PERRON_BRACKET
        return w

    monkeypatch.setattr(thermo, "_top_eigenpair", counted_top)
    monkeypatch.setattr(thermo, "_log_width", counted_width)
    return log


def test_shifted_dense_pressures_solve_one_eig_per_pass(monkeypatch):
    # a fresh graph asked for one shifted pressure solves nothing at t = 0:
    # each dense block makes one eig call per pass, so a block whose first
    # pass certifies makes exactly one
    log = _count_passes(monkeypatch)
    first = 0
    for g in pressure_sweep_graphs()[:120]:
        plan = thermo._plan(g)
        dense = [b for b in plan if b.rome is None and b.edges[0].size]
        if len(dense) != 1:
            continue
        for t in (0.7, 3.0, 10.0, 30.0):
            for q in (1, 2):
                fresh = FiniteGraph(g.symbols, g.edge_multiplicities())
                log["eig"], log["passes"] = 0, []
                try:
                    infinity.pressure_indicator(fresh, t, q)
                except NonConvergent:
                    pass
                assert log["eig"] == len(log["passes"]) <= thermo.PERRON_PASSES
                if log["passes"][0]:
                    first += 1
                    assert log["eig"] == 1
    assert first >= 100


def test_markov_chains_solve_one_eig_per_pass(monkeypatch):
    # markov_measure takes its stationary vector as the right vector of the
    # one block of P.T: one pass and no eig call at a one-vertex rome of the
    # support, else one eig call per pass of the one-vector kernel; a Parry
    # chain on a fresh dense graph solves its left and right vectors with
    # one call each
    log = _count_passes(monkeypatch)
    rng = random.Random(2424)
    kinds = {"rome": 0, "dense": 0}
    for _ in range(40):
        g = random_strongly_connected_graph(rng, max_symbols=6)
        transitions = {}
        for i in range(1, g.symbols + 1):
            outs = g.out_neighbors(i)
            weights = [rng.uniform(0.1, 1.0) for _ in outs]
            transitions.update({(i, j): w / sum(weights) for j, w in zip(outs, weights)})
        log["eig"], log["passes"] = 0, []
        mu = measures.markov_measure(g, transitions)
        if thermo._blocks(mu.P.T)[0].rome is None:
            kinds["dense"] += 1
            assert log["eig"] == len(log["passes"]) >= 1 and log["passes"][-1]
        else:
            kinds["rome"] += 1
            assert log["eig"] == 0 and log["passes"] == [True]
        assert np.allclose(mu.pi @ mu.P, mu.pi, rtol=0, atol=1e-12)
        if thermo._plan(g)[0].rome is None:
            log["eig"], log["passes"] = 0, []
            measures.parry_measure(g)
            assert log["eig"] == len(log["passes"])
            assert log["eig"] == 2 or not all(log["passes"])
    assert min(kinds.values()) >= 5, kinds


def test_parry_chain_fed_back_to_markov_measure_takes_the_rome_route(monkeypatch):
    # the Parry chain of a 236-state block system, given back as a
    # transition dict: its support has a one-vertex rome, so the stationary
    # vector comes from one pass over the acyclic rest, with no eig call
    system = density.concatenated_system(full_shift(2), [golden_mean(), full_shift(2)], 30, 4)
    g = system.graph
    parry = measures.parry_measure(g)
    rows, cols = np.nonzero(parry.P)
    transitions = {(i + 1, j + 1): parry.P[i, j] for i, j in zip(rows.tolist(), cols.tolist())}

    def no_eig(b):
        raise AssertionError("eig called on a rome support")

    monkeypatch.setattr(thermo, "_top_eigenpair", no_eig)
    mu = measures.markov_measure(g, transitions)
    assert g.symbols == 236
    assert np.abs(mu.pi / parry.pi - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# measures


def test_parry_measure_is_stationary_and_consistent():
    for g in graphs_under_test(112, max_symbols=5):
        mu = measures.parry_measure(g)
        assert np.allclose(mu.pi @ mu.P, mu.pi, rtol=0, atol=1e-9)
        assert abs(sum(mu.cylinder_mass((v,)) for v in range(1, g.symbols + 1)) - 1) < 1e-9
        for w in walks(g, 2):
            parent = mu.cylinder_mass(w)
            children = sum(
                mu.cylinder_mass(w + (v,)) for v in g.out_neighbors(w[-1])
            )
            assert abs(children - parent) < 1e-12
            shifted = sum(
                mu.cylinder_mass((v,) + w) for v, u in g.edge_multiplicities() if u == w[0]
            )
            assert abs(shifted - parent) < 1e-12


def test_parry_measure_maximizes_entropy():
    rng = random.Random(113)
    for g in graphs_under_test(114, count=6, max_symbols=4):
        mu = measures.parry_measure(g)
        for _ in range(20):
            transitions = {}
            for i in range(1, g.symbols + 1):
                outs = g.out_neighbors(i)
                weights = [
                    mu.P[i - 1, j - 1] * (1 + 0.5 * rng.random()) for j in outs
                ]
                s = sum(weights)
                for j, w in zip(outs, weights):
                    transitions[(i, j)] = w / s
            nu = measures.markov_measure(g, transitions)
            assert nu.entropy <= mu.entropy + 1e-9


def _seeded_loop_systems(count):
    """Loop systems with one to three short explicit loops and a geometric
    tail: integer (coeff, growth), where a_l is exact, and floored ones."""
    tails = [(1, 1), (0.6, 1.03), (2, 1), (1.4, 1.08), (1, 2), (0.9, 1.12), (0.5, 1.05)]
    rng = random.Random(119)
    out = []
    for k in range(count):
        coeff, growth = tails[k % len(tails)]
        loops = [(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        out.append(LoopSystem(loops, GeometricTail(rng.randint(2, 5), coeff, growth)))
    return out


@pytest.fixture
def limit_against_oracle(monkeypatch):
    """Route measures.cylinder_limit through a check of its whole report
    (repr, so every digit and type) against the per-id oracle."""
    real = measures.cylinder_limit
    calls = []

    def checked(schedule, graph, **kw):
        got = real(schedule, graph, **kw)
        assert repr(got) == repr(per_id_cylinder_limit(schedule, graph, **kw))
        calls.append(got)
        return got

    monkeypatch.setattr(measures, "cylinder_limit", checked)
    return calls


def test_aitken_limit_matches_the_scalar_oracle_entrywise():
    # geometric escapes with noise: the squares (x2 - x1)**2 take every
    # magnitude, where libm pow and x * x round apart in ~0.1% of them
    rng = random.Random(121)
    cols = []
    for _ in range(3000):
        limit, c, r = rng.random(), rng.uniform(-1, 1), rng.uniform(0.05, 0.95)
        cols.append([limit + c * r**k * (1 + 1e-3 * rng.random()) for k in range(rng.choice((3, 5, 6, 8)))])
    for length in (3, 5, 6, 8):
        block = [col for col in cols if len(col) == length]
        got = measures._aitken_limit(np.array(block).T)
        assert got.tolist() == [scalar_aitken_limit(col) for col in block]


def test_cylinder_limit_matches_the_per_id_oracle_on_half_mme_schedules(limit_against_oracle):
    system = renewal_shift()
    mme = measures.loop_mme(system)
    schedule = [
        measures.MixtureMeasure([(0.5, mme), (0.5, measures.periodic_loop_measure(system, 2**k))])
        for k in range(2, 8)
    ]
    measures.cylinder_limit(schedule, system, q_max=16, candidate=mme)
    measures.cylinder_limit(schedule, system, q_max=64)
    assert len(limit_against_oracle) == 2


def test_cylinder_limit_matches_the_per_id_oracle_on_escaping_schedules(limit_against_oracle):
    systems = [renewal_shift(), power_loops()] + _seeded_loop_systems(40)
    for system in systems:
        mme = measures.loop_mme(system)
        drift = infinity.drift_schedule(system)
        measures.cylinder_limit(drift, system, q_max=64)
        for family in ("mme", "drift", "mixture"):
            infinity.verify_main_inequality(system, family=family)
        three = [measures.MixtureMeasure([(0.3, mme), (0.5, d), (0.2, drift[0])]) for d in drift]
        measures.cylinder_limit(three, system, q_max=40, candidate=mme)
    assert len(limit_against_oracle) == 5 * len(systems)


def test_cylinder_limit_matches_the_per_id_oracle_on_finite_chains(limit_against_oracle):
    for g in (golden_mean(), full_shift(3)):
        infinity.usc_spot_check(g, trials=4)
    assert len(limit_against_oracle) == 8


# ---------------------------------------------------------------------------
# covering numbers


def test_greedy_cover_matches_exhaustive_search():
    rng = random.Random(115)
    checked = 0
    for g in graphs_under_test(116, count=10, max_symbols=3):
        mu = measures.parry_measure(g)
        for n in (2, 3):
            words = enumerate_words(g, n)
            if len(words) > 14:
                continue
            masses = [mu.cylinder_mass(w) for w in words]
            for delta in (0.1, 0.3, 0.5):
                assert katok.covering_number(mu, g, n, delta) == brute_min_cover(
                    masses, delta
                )
                checked += 1
    assert checked >= 12


def _chains_under_test():
    chains = [(g, measures.parry_measure(g)) for g in graphs_under_test(118, count=8, max_symbols=4)]
    full3 = full_shift(3)
    chains.append((full3, measures.bernoulli_measure(full3, (0.2, 0.3, 0.5))))
    chains.append((golden_mean(), measures.parry_measure(golden_mean())))
    return chains


def test_level_masses_match_dfs_bit_for_bit():
    for g, mu in _chains_under_test():
        for n, level in enumerate(katok._markov_levels(mu, g, 10, cap=2**20), start=1):
            assert sorted(level.tolist()) == sorted(brute_markov_masses(mu, g, n))


def test_katok_counts_match_covering_numbers():
    for g, mu in _chains_under_test():
        for delta in (0.1, 0.25, 0.5):
            rep = katok.katok_estimate(mu, g, delta=delta, n_max=10, n_min=2)
            want = [katok.covering_number(mu, g, n, delta) for n in range(2, 11)]
            assert list(rep.counts.counts) == want


def _class_chains():
    rng = random.Random(119)
    chains = _chains_under_test()
    for g in [full_shift(2)] + [random_two_out_graph(rng, 4 + k % 10) for k in range(40)]:
        chains.append((g, measures.parry_measure(g)))
    for probs in ((0.5, 0.5), (0.3, 0.7)):
        chains.append((full_shift(2), measures.bernoulli_measure(full_shift(2), probs)))
    full3 = full_shift(3)
    chains.append((full3, measures.bernoulli_measure(full3, (0.25, 0.25, 0.5))))
    return chains


def test_class_counts_match_level_counts(monkeypatch):
    # every count from the mass classes equals the count of the level
    # arrays (the float masses, decided on correctly rounded sums) for
    # n = 1..14, as far as the level arrays stay under the default cap;
    # the round deltas make exact ties, which the classes leave to the
    # level arrays
    decided = []
    certified = katok._certified

    def spy(*args):
        decided.append(certified(*args))
        return decided[-1]

    monkeypatch.setattr(katok, "_certified", spy)
    deltas = (0.05, 0.1, 0.25, 0.3, 0.5, 0.7)
    for g, mu in _class_chains():
        assert mu.classes is not None
        words = katok._path_counts(katok._support(mu), 14)
        n_max = max(n for n, w in enumerate(words, start=1) if w <= 2**20)
        want = {}
        for n, level in enumerate(katok._markov_levels(mu, g, n_max, cap=2**20), start=1):
            ascending = np.sort(level)
            for delta in deltas:
                want[delta, n] = katok._fewest(ascending, 1.0 - delta)
        for delta in deltas:
            counts = [want[delta, n] for n in range(1, n_max + 1)]
            assert list(katok.katok_estimate(mu, g, delta, n_max).counts.counts) == counts
            assert [katok.covering_number(mu, g, n, delta) for n in range(1, n_max + 1)] == counts
    # the classes decide most counts themselves
    assert sum(c is not None for c in decided) > 0.8 * len(decided)


def test_cover_ties_decided_on_correctly_rounded_sums():
    # the 2-regular 3-symbol graph whose twelve 3-cylinders all have mass
    # about 1/12: at delta = 0.5, six of them sum to about 1/2, and a float
    # sum in sorted order (as in a running-sum greedy) or in combination
    # order (as in a naive exhaustive search) decides six or seven by
    # rounding; chains whose pi and P are off 1/3 and 1/2 by a few ulps
    # make such near ties (seed 103: six of them fool the combination
    # order, three the sorted order)
    g = FiniteGraph(3, [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3)])
    rng = random.Random(103)
    ulp = 2.0**-53
    chains = [
        measures.parry_measure(g),
        measures.MarkovMeasure(g, [1 / 3] * 3, [[0.5, 0, 0.5], [0.5, 0.5, 0], [0, 0.5, 0.5]]),
    ]
    for _ in range(100):
        pi = [1 / 3 + rng.randint(-3, 3) * ulp for _ in range(3)]
        e = [rng.randint(-3, 3) * ulp for _ in range(3)]
        P = [
            [0.5 + e[0], 0, 0.5 - e[0]],
            [0.5 + e[1], 0.5 - e[1], 0],
            [0, 0.5 + e[2], 0.5 - e[2]],
        ]
        chains.append(measures.MarkovMeasure(g, pi, P))
    for mu in chains:
        masses = [mu.cylinder_mass(w) for w in enumerate_words(g, 3)]
        top = sorted(masses, reverse=True)
        exact = next(
            k for k in range(1, 13) if float(sum(map(Fraction, top[:k]))) > 0.5
        )
        assert katok.covering_number(mu, g, 3, 0.5) == exact
        assert brute_min_cover(masses, 0.5) == exact


def test_covering_number_monotone_in_delta():
    for g in graphs_under_test(117, count=6, max_symbols=4):
        mu = measures.parry_measure(g)
        for n in (2, 4):
            ns = [
                katok.covering_number(mu, g, n, d)
                for d in (0.05, 0.1, 0.2, 0.4, 0.6)
            ]
            assert all(a >= b for a, b in zip(ns, ns[1:]))


# ---------------------------------------------------------------------------
# concatenated block systems


def _block_system_draw(rng):
    """An ambient graph on 2..5 symbols with the cycle 1 <-> 2, where edges
    from symbols above 2 back into {1, 2} are rare, so some block ends
    cannot reach the anchor; and one or two supports on its edges, most
    keeping the cycle, whose other vertices are often sinks."""
    k = rng.randint(2, 5)
    edges = {(1, 2), (2, 1)}
    edges |= {
        (i, j)
        for i in range(1, k + 1)
        for j in range(1, k + 1)
        if rng.random() < (0.15 if i > 2 >= j else 0.45)
    }
    supports = []
    for _ in range(rng.randint(1, 2)):
        m = rng.randint(2, k)
        kept = [
            (i, j)
            for i, j in sorted(edges)
            if i <= m and j <= m and rng.random() < (0.9 if i + j == 3 else 0.6)
        ]
        supports.append(FiniteGraph(m, kept))
    return FiniteGraph(k, sorted(edges)), supports, rng.randint(2, 5), rng.randint(1, 3)


def test_concatenated_system_keeps_the_tarjan_component_of_the_first_start():
    # the backward search from the slot-0 start keeps exactly the states of
    # its strongly connected component, numbered alike, and no slot start
    # falls outside it. In 55 of the 262 draws that build, some block ends
    # cannot reach the anchor or some states lead nowhere, and the cut drops
    # states; the other 38 draws have a slot with no joined end
    rng = random.Random(2201)
    built = cut = 0
    for _ in range(300):
        ambient, supports, n, M = _block_system_draw(rng)
        try:
            graph, labels, starts, counts, floor, states = tarjan_pruned_system(
                ambient, supports, n, M
            )
        except ConnectorNotFound:
            with pytest.raises(ConnectorNotFound):
                density.concatenated_system(ambient, supports, n, M)
            continue
        got = density.concatenated_system(ambient, supports, n, M)
        assert got.graph.symbols == graph.symbols
        assert list(got.graph.edge_multiplicities().items()) == list(
            graph.edge_multiplicities().items()
        )
        assert got.labels == labels
        assert all(ambient.is_edge(labels[i - 1], labels[j - 1]) for i, j in graph.edge_multiplicities())
        assert got.slot_starts == starts
        assert got.block_counts == counts
        assert got.entropy_floor == floor
        built += 1
        cut += states > graph.symbols
    assert (built, cut) == (262, 55)
