"""Exact walk counting and growth estimation.

Oracles used here, independent of the implementation under test:
  - closed-walk counts from integer powers of the adjacency matrix,
  - first-return counts from exhaustive word enumeration,
  - escape counts from exhaustive word enumeration on finite graphs,
  - for the renewal system, the composition identity: a word counted by
    z_n(M, 1) is a chain of k loops, k+1 base visits, so
    z_n(M, 1) = sum over k+1 <= floor((n+2)/M) of C(n, k-1).
"""

import math

import pytest

from cmshift import counting, graphs, thermo
from cmshift.errors import ValidationError
from cmshift.families import full_shift, golden_mean, power_loops, renewal_shift

from properties import escape_count_pinned


def matrix_power_closed_walks(g, vertex, n_max):
    """Z_n via exact integer matrix powers (independent route)."""
    size = g.symbols
    mult = g.edge_multiplicities()
    a = [[mult.get((i + 1, j + 1), 0) for j in range(size)] for i in range(size)]
    out = []
    cur = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(n_max):
        cur = [
            [sum(cur[i][k] * a[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        out.append(cur[vertex - 1][vertex - 1])
    return out


def brute_words(g, n_symbols):
    """All admissible words with n_symbols symbols, exhaustively."""
    mult = g.edge_multiplicities()
    words = [(v,) for v in range(1, g.symbols + 1)]
    for _ in range(n_symbols - 1):
        words = [w + (v,) for w in words for v in range(1, g.symbols + 1) if (w[-1], v) in mult]
    return words


def brute_escape(g, M, q, n, a=None, b=None):
    total = 0
    for w in brute_words(g, n + 2):
        if a is None:
            if w[0] > q or w[-1] > q:
                continue
        else:
            if w[0] != a or w[-1] != b:
                continue
        if sum(1 for x in w if x <= q) <= (n + 2) // M:
            total += 1
    return total


def test_loop_count_full_shift():
    series = counting.loop_count(full_shift(2), vertex=1, n_max=10)
    assert series.start == 1
    assert list(series.counts) == [2 ** (n - 1) for n in range(1, 11)]


def test_loop_count_golden_mean_both_vertices():
    g = golden_mean()
    assert list(counting.loop_count(g, 1, 6).counts) == [1, 2, 3, 5, 8, 13]
    assert list(counting.loop_count(g, 2, 5).counts) == [0, 1, 1, 2, 3]
    for v in (1, 2):
        assert list(counting.loop_count(g, v, 9).counts) == matrix_power_closed_walks(g, v, 9)


def test_loop_count_renewal_base_and_interior():
    g = renewal_shift()
    assert list(counting.loop_count(g, 1, 5).counts) == [1, 2, 4, 8, 16]
    # closed walks at the 2-loop interior vertex are base walks shifted by 2
    assert list(counting.loop_count(g, 2, 5).counts) == [0, 1, 1, 2, 4]
    # interior vertex of the 3-loop (id 3): shifted by 3
    assert list(counting.loop_count(g, 3, 6).counts) == [0, 0, 1, 1, 2, 4]


def test_loop_count_matches_explicit_materialization():
    # a finite loop list is its own complete materialization
    g = graphs.LoopSystem(loops=[(1, 1), (2, 1), (3, 2)], tail=None)
    t = g.truncate(6)
    assert t.vertex_count == 6
    for v in (1, 2, 3):
        got = list(counting.loop_count(g, v, 8).counts)
        want = matrix_power_closed_walks(t.as_graph(), v, 8)
        assert got == want


def test_first_return_full_shift():
    # first returns to 1 on the full 2-shift: 1 2 2 ... 2 1, one word per length
    series = counting.first_return_count(full_shift(2), 1, 8)
    assert list(series.counts) == [1] * 8


def test_first_return_golden_mean():
    g = golden_mean()
    assert list(counting.first_return_count(g, 1, 6).counts) == [1, 1, 0, 0, 0, 0]
    assert list(counting.first_return_count(g, 2, 6).counts) == [0, 1, 1, 1, 1, 1]


def test_first_return_renewal():
    g = renewal_shift()
    assert list(counting.first_return_count(g, 1, 7).counts) == [1] * 7
    # interior vertex of the 2-loop: derived by exhaustive reasoning in the docstring
    assert list(counting.first_return_count(g, 2, 6).counts) == [0, 1, 1, 1, 2, 4]


def test_first_return_powers():
    assert list(counting.first_return_count(power_loops(), 1, 6).counts) == [
        2, 4, 8, 16, 32, 64,
    ]


def test_renewal_identity_examples():
    # Z_n = sum_k Z*_k Z_{n-k} with Z_0 = 1
    for g, v in [(golden_mean(), 1), (golden_mean(), 2), (renewal_shift(), 1),
                 (power_loops(), 1), (full_shift(3), 2)]:
        n_max = 9
        z = [1] + list(counting.loop_count(g, v, n_max).counts)
        zs = [0] + list(counting.first_return_count(g, v, n_max).counts)
        for n in range(1, n_max + 1):
            assert z[n] == sum(zs[k] * z[n - k] for k in range(1, n + 1))


def test_escape_count_full_shift_frozen():
    g = full_shift(2)
    s2 = counting.escape_count(g, M=2, q=1, n_max=4)
    s3 = counting.escape_count(g, M=3, q=1, n_max=4)
    assert s2.start == 0
    assert s2.value(4) == 5
    assert s3.value(4) == 1
    for n in range(0, 5):
        assert s2.value(n) == brute_escape(g, 2, 1, n)
        assert s3.value(n) == brute_escape(g, 3, 1, n)


def test_escape_count_golden_mean_all_zero():
    g = golden_mean()
    for M in (2, 3):
        s = counting.escape_count(g, M=M, q=1, n_max=6)
        assert all(c == brute_escape(g, M, 1, n) for n, c in s.items())


def test_escape_count_compact_case():
    # every symbol small and M >= 2: no word can satisfy the budget
    g = full_shift(2)
    s = counting.escape_count(g, M=2, q=2, n_max=6)
    assert all(c == 0 for c in s.counts)


def test_escape_count_pinned_frozen():
    g = full_shift(2)
    s = escape_count_pinned(g, M=3, q=1, a=1, b=2, n_max=4)
    assert s.value(4) == brute_escape(g, 3, 1, 4, a=1, b=2) == 5


def test_escape_count_finite_loop_system_vs_brute():
    g = graphs.LoopSystem(loops=[(1, 1), (2, 1), (3, 1), (4, 1)], tail=None)
    explicit = g.truncate(7).as_graph()
    for M in (2, 3, 4):
        for q in (1, 2, 4):
            s = counting.escape_count(g, M=M, q=q, n_max=7)
            for n, c in s.items():
                assert c == brute_escape(explicit, M, q, n), (M, q, n)


def composition_count(n, M):
    budget = (n + 2) // M
    return sum(math.comb(n, k - 1) for k in range(1, n + 2) if k + 1 <= budget)


def geometric_escape(c, g, M, n):
    """z_n(M, 1) for a_l = c g^l from length 1: a word with k loops has k+1
    base visits and its n+1 edges split into k loops in C(n, k-1) ways."""
    budget = (n + 2) // M
    return g ** (n + 1) * sum(c**k * math.comb(n, k - 1) for k in range(1, budget))


def test_escape_count_renewal_composition_identity():
    g = renewal_shift()
    s8 = counting.escape_count(g, M=8, q=1, n_max=30)
    s16 = counting.escape_count(g, M=16, q=1, n_max=30)
    assert s8.value(30) == composition_count(30, 8) == 466
    assert s16.value(30) == composition_count(30, 16) == 1
    assert all(c == composition_count(n, 8) for n, c in s8.items())


def test_escape_count_powers_single_loop_regime():
    # budget 2 admits exactly the single-loop words: z_n = a_{n+1} = 2^{n+1}
    s = counting.escape_count(power_loops(), M=16, q=1, n_max=30)
    assert s.value(30) == 2 ** 31


@pytest.mark.parametrize("M", [4, 16, 64])
def test_escape_count_renewal_closed_form_at_scale(M):
    # many rows, each one product of a long series by the 400-term loop
    # polynomial
    s = counting.escape_count(renewal_shift(), M=M, q=1, n_max=400)
    assert s.counts == [composition_count(n, M) for n in range(401)]


@pytest.mark.parametrize("g, c, M", [(2, 1, 4), (2, 1, 16), (2, 3, 4), (2, 3, 16)])
def test_escape_count_geometric_closed_form_at_scale(g, c, M):
    # counts of hundreds of bits times multiplicities of hundreds of bits:
    # a slot one bit too narrow carries into the next coefficient
    system = graphs.LoopSystem([], graphs.GeometricTail(1, c, g))
    s = counting.escape_count(system, M=M, q=1, n_max=200)
    assert s.counts == [geometric_escape(c, g, M, n) for n in range(201)]


def test_escape_count_loop_system_matches_its_truncation():
    # the loop system folds its unmaterialized loops into lengthed base
    # edges; its complete truncation is a finite graph of length-1 edges
    # whose unmarked loop interiors are stepped in time
    g = graphs.LoopSystem(loops=[(1, 1), (2, 1), (3, 2), (5, 1), (7, 3), (11, 1)], tail=None)
    explicit = g.truncate(g.enumeration(10**6).rows[-1][2]).as_graph()
    for q in (1, 2, 4):
        for M in (1, 2, 3, 5, 8):
            want = counting.escape_count(explicit, M=M, q=q, n_max=40).counts
            assert counting.escape_count(g, M=M, q=q, n_max=40).counts == want, (q, M)


def test_escape_count_pinned_unmarked_end():
    # b > q is unmarked: walks that used the whole budget still step to b
    # within the last row
    g = full_shift(3)
    for M in (2, 3, 4):
        s = escape_count_pinned(g, M=M, q=1, a=1, b=3, n_max=7)
        assert s.counts == [brute_escape(g, M, 1, n, a=1, b=3) for n in range(8)], M
    loops = graphs.LoopSystem(loops=[(1, 1), (2, 1), (3, 2), (4, 1)], tail=None)
    explicit = loops.truncate(loops.enumeration(100).rows[-1][2]).as_graph()
    for M in (2, 3, 5):
        for a, b in ((1, 6), (4, 9), (9, 1)):
            want = escape_count_pinned(explicit, M=M, q=2, a=a, b=b, n_max=30).counts
            got = escape_count_pinned(loops, M=M, q=2, a=a, b=b, n_max=30).counts
            assert got == want, (M, a, b)


def layer_walk_counts(view, marked, starts, ends, n_edges, budget):
    """Reference: one time-indexed DP over (edges so far, marked positions,
    state), where an edge of length l reads the layer l steps back."""
    size = view.state_count
    cap = budget(n_edges)
    layers = [[[0] * size for _ in range(cap + 1)]]
    for s in starts:
        hit = 1 if s in marked else 0
        if hit <= cap:
            layers[0][hit][s] += 1
    counts = []
    for e in range(1, n_edges + 1):
        layer = [[0] * size for _ in range(cap + 1)]
        for src, dst, mult, length in view.edges:
            if length > e:
                continue
            up = 1 if dst in marked else 0
            for m in range(cap + 1 - up):
                layer[m + up][dst] += mult * layers[e - length][m][src]
        layers.append(layer)
        counts.append(sum(layer[m][s] for m in range(budget(e) + 1) for s in ends))
    return counts


def kernel_walk_counts(view, marked, starts, ends, n_edges, budget):
    """`layer_walk_counts`'s question put to the row kernel."""
    assert view.n_edges == n_edges
    (counts,) = counting._walk_counts(view, marked, starts, ends, [budget])
    return counts


@pytest.mark.parametrize("graph", [
    renewal_shift(), power_loops(3), golden_mean(), full_shift(3),
    graphs.LoopSystem([(1, 1), (3, 2)], graphs.GeometricTail(4, 1.7, 1.1)),
    graphs.LoopSystem([(2, 1), (5, 3)], graphs.GeometricTail(9, 1.0, 1.3)),
    graphs.FiniteGraph(5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 4), (5, 1), (2, 2)]),
    # integer tails take the recurrence: coeff > 1, and explicit loops on
    # the tail lengths; the floored tail keeps the Kronecker product
    graphs.LoopSystem([], graphs.GeometricTail(1, 3, 2)),
    graphs.LoopSystem([(1, 1), (3, 2)], graphs.GeometricTail(4, 1, 2)),
    graphs.LoopSystem([], graphs.GeometricTail(1, 1.5, 1.08)),
])
def test_walk_counts_match_layer_dp(graph):
    n = 24
    for q in (1, 2, 4):
        if isinstance(graph, graphs.FiniteGraph) and q > graph.symbols:
            continue
        view = graphs.walk_view(graph, n, list(range(1, q + 2)))
        # the plan reads one edge for each (src, dst, length)
        assert len({(src, dst, length) for src, dst, _, length in view.edges}) == len(view.edges)
        marked = {i for i, v in enumerate(view.ids) if v <= q}
        for starts, ends in ((sorted(marked), sorted(marked)), ([0], [len(view.ids) - 1])):
            budgets = [lambda e, M=M: (e + 1) // M for M in (1, 2, 3, 5)]
            want = [layer_walk_counts(view, marked, starts, ends, n, budget) for budget in budgets]
            for M, budget, counts in zip((1, 2, 3, 5), budgets, want):
                assert kernel_walk_counts(view, marked, starts, ends, n, budget) == counts, (M, q, starts, ends)
            # one pass of the rows serves every budget, in either order
            assert counting._walk_counts(view, marked, starts, ends, budgets) == want, (q, starts, ends)
            assert counting._walk_counts(view, marked, starts, ends, budgets[::-1]) == want[::-1], (q, starts, ends)
    for v in (1, 2):
        view = graphs.walk_view(graph, n, [v])
        s = view.concrete[v]
        for marked, budget in (((), 0), ({s}, 2)):
            args = (view, marked, [s], [s], n, lambda e: budget)
            assert kernel_walk_counts(*args) == layer_walk_counts(*args), (v, budget)


STOCK_INTEGER_TAILS = [
    renewal_shift(), power_loops(), graphs.LoopSystem([], graphs.GeometricTail(1, 2, 1)),
    graphs.LoopSystem([], graphs.GeometricTail(1, 1, 3)),
]


def _base_group(graph, n, q):
    view = graphs.walk_view(graph, n, list(range(1, q + 1)))
    return sorted((length, mult) for src, dst, mult, length in view.edges if src == dst == 0)


@pytest.mark.parametrize("graph", STOCK_INTEGER_TAILS)
def test_recurrence_matches_the_kronecker_product(graph):
    # the base -> base group of each stock integer tail, with and without its
    # geometric suffix, times series with leading zeros and big entries
    n = 40
    for q in (1, 2, 4):
        terms = _base_group(graph, n, q)
        head, suffix = counting._split(terms, n)
        assert suffix is not None
        for low in (0, 1, 7, 39):
            series = [0] * low + [(3 ** (t % 11) + t) * 2 ** t for t in range(n + 1 - low)]
            want = counting._times(series, (terms, None), n)
            assert counting._times(series, (head, suffix), n) == want, (q, low)


def test_times_matches_the_convolution():
    # heads of one to seven terms, so both the shifted copies (up to four
    # terms) and the big-integer product run, against the plain convolution
    n = 30
    for k in range(1, 8):
        for first in (1, 3):
            head = [(first + 2 * i, 1 + 5 * i) for i in range(k)]
            for low in (0, 4, 29):
                series = [0] * low + [(2 ** (t % 13) + t) * 3 ** t for t in range(n + 1 - low)]
                want = [sum(mult * series[t - length] for length, mult in head if length <= t) for t in range(n + 1)]
                got = counting._times(series, (head, None), n)
                assert (got or [0] * (n + 1)) == want, (k, first, low)


@pytest.mark.parametrize("graph", STOCK_INTEGER_TAILS)
def test_counts_with_the_recurrence_match_the_kronecker_path(graph, monkeypatch):
    def counts(n=40):
        escapes = [counting.escape_count(graph, M, q, n).counts for M, q in ((1, 1), (3, 1), (2, 2), (5, 3))]
        loops = [counting.loop_count(graph, v, n).counts for v in (1, 2)]
        return escapes, loops, counting.first_return_count(graph, 1, n).counts

    got = counts()
    monkeypatch.setattr(counting, "_split", lambda terms, n: (terms, None))
    assert got == counts()


def test_split_takes_only_a_suffix_that_reaches_n():
    assert counting._split([(1, 1), (2, 1), (3, 2), (4, 4)], 4) == ([(1, 1)], (2, 1, 2))
    assert counting._split([(2, 3), (3, 3), (4, 3)], 4) == ([], (2, 3, 1))
    # the run 1..3 stops short of n = 5: the group has no terms past 3
    stops_short = [(1, 1), (2, 2), (3, 4)]
    assert counting._split(stops_short, 5) == (stops_short, None)
    # one-term runs: a ratio that is not an integer, and a gap before n
    for terms in ([(1, 2), (2, 3)], [(1, 1), (3, 2)], [(4, 9)]):
        assert counting._split(terms, terms[-1][0]) == (terms, None)
    # the floored tail 1.5 * 1.08^l: 8 loops of length 23, 9 of length 24
    floored = _base_group(graphs.LoopSystem([], graphs.GeometricTail(1, 1.5, 1.08)), 24, 2)
    assert counting._split(floored, 24) == (floored, None)


def test_loop_count_missing_vertex_raises_validation_error():
    # the finite loop system has ids 1..5 only
    g = graphs.LoopSystem(loops=[(1, 1), (2, 1), (4, 1)], tail=None)
    with pytest.raises(ValidationError):
        counting.loop_count(g, 6, 5)
    with pytest.raises(ValidationError):
        counting.loop_count(full_shift(2), 3, 5)


def test_first_return_count_missing_vertex_raises_validation_error():
    g = graphs.LoopSystem(loops=[(1, 1), (2, 1), (4, 1)], tail=None)
    with pytest.raises(ValidationError):
        counting.first_return_count(g, 6, 5)
    with pytest.raises(ValidationError):
        counting.first_return_count(full_shift(2), 0, 5)


def test_escape_count_pinned_missing_pin_raises_validation_error():
    g = graphs.LoopSystem(loops=[(1, 1), (2, 1), (4, 1)], tail=None)
    with pytest.raises(ValidationError):
        escape_count_pinned(g, M=2, q=1, a=1, b=6, n_max=5)
    with pytest.raises(ValidationError):
        escape_count_pinned(full_shift(2), M=2, q=1, a=0, b=1, n_max=5)


# ---------------------------------------------------------------------------
# one view, plan and pass of the rows for the budgets at one q


def spy(monkeypatch, module, name, calls):
    """Record in `calls` the arguments of every call of module.name."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))


def test_escape_counts_run_every_budget_in_one_pass(monkeypatch):
    Ms = (3, 3, 4, 1, 7)
    g = graphs.LoopSystem([(2, 1)], graphs.GeometricTail(3, 2, 1))
    want = [counting.escape_count(g, M=M, q=2, n_max=20) for M in Ms]
    views, plans, passes = [], [], []
    spy(monkeypatch, counting, "walk_view", views)
    spy(monkeypatch, counting, "_unmarked_blocks", plans)
    spy(monkeypatch, counting, "_walk_counts", passes)
    row = counting.escape_counts(g, Ms, 2, 20)
    assert len(views) == len(plans) == len(passes) == 1
    assert [(s.label, s.start, s.counts, s.meta) for s in row] == [(s.label, s.start, s.counts, s.meta) for s in want]
    assert counting.escape_counts(g, (), 2, 20) == []


def test_every_escape_count_asks_walk_view(monkeypatch):
    # the benchmark's tracer reads a walk_view span under every
    # escape_count span
    views = []
    spy(monkeypatch, counting, "walk_view", views)
    g = renewal_shift()
    for M in (3, 3, 4):
        counting.escape_count(g, M=M, q=2, n_max=12)
    assert len(views) == 3


def test_delta_inf_grid_builds_one_view_per_q(monkeypatch):
    views, plans = [], []
    spy(monkeypatch, counting, "walk_view", views)
    spy(monkeypatch, counting, "_unmarked_blocks", plans)
    grid = thermo.delta_inf(renewal_shift(), Ms=(4, 8), qs=(1, 2, 3), n_max=16)
    assert sorted((n, ids) for _, n, ids in views) == [(17, [1]), (17, [1, 2]), (17, [1, 2, 3])]
    assert len(plans) == 3
    assert list(grid.cells) == [(M, q) for M in (4, 8) for q in (1, 2, 3)]
    for (M, q), cell in grid.cells.items():
        series = counting.escape_count(renewal_shift(), M=M, q=q, n_max=16)
        assert cell.nonzero == sum(1 for c in series.counts if c)
        assert cell.rate == counting.growth_rate(series).rate


@pytest.mark.parametrize("args,field", [
    ((0, 1, 5), "M"), ((2, 0, 5), "q"), ((2, 1, -1), "n_max"),
    ((2.0, 1, 5), "M"), ((2, 1.5, 5), "q"), ((2, True, 5), "q"), ((2, 1, 5.0), "n_max"),
    ((2, 1, None), "n_max"),
])
def test_escape_count_names_the_bad_argument(args, field):
    with pytest.raises(ValidationError) as exc:
        counting.escape_count(renewal_shift(), *args)
    assert exc.value.field == field


@pytest.mark.parametrize("count", [counting.loop_count, counting.first_return_count])
@pytest.mark.parametrize("n_max", [0, -3, 2.5, True])
def test_loop_counts_name_a_bad_n_max(count, n_max):
    with pytest.raises(ValidationError) as exc:
        count(renewal_shift(), 1, n_max)
    assert exc.value.field == "n_max"


def test_growth_rate_affine_exact_line():
    series = counting.CountSeries("test", 1, [2 ** (n - 1) for n in range(1, 25)], {})
    est = counting.growth_rate(series)
    assert abs(est.rate - math.log(2)) < 1e-12
    assert est.residual < 1e-9


def test_growth_rate_all_zero():
    series = counting.CountSeries("test", 0, [0] * 10, {})
    assert counting.growth_rate(series).rate == float("-inf")


def test_growth_rate_skips_zeros():
    # zeros inside the window are skipped, not treated as log 0
    counts = [0 if n % 2 else 3 ** n for n in range(1, 21)]
    series = counting.CountSeries("test", 1, counts, {})
    est = counting.growth_rate(series)
    assert abs(est.rate - math.log(3)) < 1e-9


def test_count_series_serialization_round_trip():
    s = counting.escape_count(full_shift(2), M=2, q=1, n_max=4)
    doc = s.to_json()
    assert doc["start"] == 0
    assert doc["counts"] == [str(c) for c in s.counts]
    rows = s.to_csv_rows()
    assert rows[0] == ["n", "count"]
    assert rows[1] == ["0", str(s.value(0))]
