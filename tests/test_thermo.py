"""Entropy, loop generating functions, recurrence classification,
entropy at infinity.

Oracles used here, independent of the implementation under test:
  - full shift on k symbols: entropy log k (count words directly),
  - golden mean shift: entropy log((1+sqrt(5))/2), the Perron root of
    [[1,1],[1,0]],
  - loop generating functions with a_l = c**l have closed forms:
    f(x) = cx/(1-cx), so f(x*) = 1 at x* = 1/(2c),
  - the subexponential family has f(1/2) ~ 0.0313 < 1 (partial sums plus
    an integral tail bound, computed by hand),
  - escape counts in the single-loop regime are loop counts: z_n = a_{n+1},
    so the fitted escape rate equals the loop growth exactly,
  - a_1 x + a_2 x^2 = 1 has the root 2 / (a_1 + sqrt(a_1^2 + 4 a_2)),
  - on graphs with a one-vertex rome, the dense kernel
    `thermo._perron_vector` on the log adjacency matrix and on its
    transpose checks the first-return route of `thermo.Block.perron`.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmshift import density, infinity, measures, thermo
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

PHI = (1 + math.sqrt(5)) / 2


def test_entropy_full_shift():
    for k in (2, 3, 5):
        rep = thermo.gurevich_entropy(full_shift(k))
        assert abs(rep.value - math.log(k)) < 1e-10


def test_entropy_golden_mean():
    rep = thermo.gurevich_entropy(golden_mean())
    assert abs(rep.value - math.log(PHI)) < 1e-9


def test_entropy_renewal():
    rep = thermo.gurevich_entropy(renewal_shift())
    assert abs(rep.value - math.log(2)) < 1e-9
    assert rep.method == "generating-function"


def test_entropy_powers():
    rep = thermo.gurevich_entropy(power_loops())
    assert abs(rep.value - math.log(4)) < 1e-9


def test_entropy_transient_equals_log_radius_inverse():
    rep = thermo.gurevich_entropy(subexponential_loops())
    assert abs(rep.value - math.log(2)) < 1e-9


def test_entropy_greedy_null():
    rep = thermo.gurevich_entropy(greedy_null_loops())
    assert abs(rep.value - math.log(2)) < 1e-9


def test_entropy_truncation_trace_increases_to_value():
    rep = thermo.gurevich_entropy(renewal_shift())
    qs = [q for q, _ in rep.truncations]
    vals = [v for _, v in rep.truncations]
    assert qs == sorted(qs)
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert all(v <= rep.value + 1e-9 for v in vals)
    assert rep.value - vals[-1] < 0.05


def _truncation_loop_lengths(graph):
    """Lengths of the cycles of a loop-system truncation, found by walking
    from each out-neighbour of the base along the unique successors."""
    lengths = [1] * graph.edge_multiplicities().get((1, 1), 0)
    for u in graph.out_neighbors(1):
        length = 1
        while u != 1 and graph.out_neighbors(u):
            u = graph.out_neighbors(u)[0]
            length += 1
        if u == 1 and length > 1:
            lengths.append(length)
    return lengths


def test_entropy_truncation_trace_with_parallel_base_loops():
    # three self-loops at the base make the Perron vector of a long
    # truncation decay like 3^-k along each loop, beyond what an eig
    # bracket certifies at q = 32 and 64; the trace reads the whole loops
    system = LoopSystem([(6, 1), (1, 2), (1, 1)], GeometricTail(3, 0.6, 1.03))
    rep = thermo.gurevich_entropy(system)
    assert [q for q, _ in rep.truncations] == [4, 8, 16, 32, 64]
    for q, v in rep.truncations:
        lengths = _truncation_loop_lengths(system.truncate(q).as_graph())
        x = math.exp(-v)
        assert abs(math.fsum(x ** l for l in lengths) - 1.0) < 1e-12, q
        if q <= 16:
            assert abs(v - math.log(thermo.perron_root(system.truncate(q).as_graph()))) < 1e-12
    vals = [v for _, v in rep.truncations]
    assert vals[0] == pytest.approx(math.log(3), abs=1e-12)
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert all(v <= rep.value + 1e-9 for v in vals)


def test_entropy_truncation_without_cycles_is_minus_infinity():
    # ids 2, 3 are the 3-loop: truncating at 2 leaves no cycle
    system = LoopSystem([(3, 1)], GeometricTail(4, 1.0, 1.0))
    rep = thermo.gurevich_entropy(system, trace_qs=(2, 3))
    assert rep.truncations[0] == (2, float("-inf"))
    assert rep.truncations[1][1] == pytest.approx(0.0, abs=1e-12)


def test_loop_gf_renewal():
    gf = thermo.LoopGF(renewal_shift())
    assert gf.radius == 1.0
    lo, hi = gf.value_bounds(0.4)
    assert lo <= 2 / 3 <= hi
    assert hi - lo < 1e-9
    root = gf.x_star()
    assert abs(root - 0.5) < 1e-12


def test_loop_gf_powers():
    gf = thermo.LoopGF(power_loops())
    assert gf.radius == 0.5
    assert abs(gf.x_star() - 0.25) < 1e-12


def test_loop_gf_subexponential_below_one_at_radius():
    gf = thermo.LoopGF(subexponential_loops())
    lo, hi = gf.value_bounds(gf.radius)
    assert 0.03 < lo <= hi < 0.032
    assert gf.x_star() is None


def test_loop_gf_greedy_null_root_at_radius():
    gf = thermo.LoopGF(greedy_null_loops())
    assert gf.x_star() == gf.radius == 0.5


@pytest.mark.parametrize("a1,a2", [(10**6, 5), (1000, 1)])
def test_x_star_relative_precision_on_small_roots(a1, a2):
    # a1 x + a2 x^2 = 1 has the root 2 / (a1 + sqrt(a1^2 + 4 a2)), a form
    # without cancellation; a stopping rule absolute in x would leave a
    # relative error of its width over x*. series_root solves in y = log x,
    # and x = e^y carries the rounding of y times |y| = 13.8 at a1 = 10**6
    root = thermo.LoopGF(LoopSystem([(1, a1), (2, a2)])).x_star()
    exact = 2.0 / (a1 + math.sqrt(a1 * a1 + 4 * a2))
    assert abs(root - exact) <= 1e-12 * exact
    ulps = (16 if a1 == 10**6 else 4) * 2.0**-52
    assert _straddles_one([(1, a1), (2, a2)], root, ulps)


def test_bracket_root_closes_to_adjacent_floats():
    # estimates that carry no slope still bisect to adjacent floats
    def side(x):
        s = -1 if x < 0.3 else 1
        return s, float(s)

    lo, hi = thermo.bracket_root(side, 0.0, 1.0)
    assert lo < 0.3 <= hi == math.nextafter(lo, 1.0)


def _recording(kernel, log):
    """kernel with every side evaluation appended to log[-1], a fresh list per
    root, and the returned pair appended after it."""
    def run(side, lo, hi):
        calls = []
        log.append(calls)

        def recorded(x):
            out = side(x)
            calls.append((x, out[0]))
            return out

        got = kernel(recorded, lo, hi)
        calls.append(("returned", (lo, hi), got))
        return got

    return run


# the systems and truncations whose roots are counted below: renewal, powers,
# a coeff > 1 tail and the seed-17 system of the loops benchmark
COUNTED = [
    renewal_shift,
    power_loops,
    lambda: LoopSystem([(1, 1), (3, 2)], GeometricTail(4, 1.7, 1.1)),
    lambda: LoopSystem([(6, 1), (1, 2), (1, 1)], GeometricTail(3, 0.6, 1.03)),
]


def _roots(make):
    """{kind: [side evaluations of each root]} of x*, of the whole-loop
    truncations (series_root) and of three pressures of the system."""
    system, kernel, kinds = make(), thermo.bracket_root, {}
    runs = {
        "x_star": lambda: thermo.LoopGF(system).x_star(),
        "series_root": lambda: [
            thermo.LoopGF(LoopSystem(system.whole_loops(q)[1])).x_star() for q in (4, 8, 16, 32, 64)
        ],
        "pressure": lambda: [infinity.pressure_indicator(system, t, 1) for t in (0.05, 2.0, 8.0)],
    }
    with pytest.MonkeyPatch.context() as mp:
        for kind, run in runs.items():
            kinds[kind] = []
            mp.setattr(thermo, "bracket_root", _recording(kernel, kinds[kind]))
            run()
    return kinds


@pytest.mark.parametrize("make", COUNTED, ids=["renewal", "powers", "coeff-1.7", "seed-17"])
def test_roots_return_inside_their_last_certified_bracket(make):
    for calls in sum(_roots(make).values(), []):
        (_, (lo, hi), (a, b)) = calls[-1]
        lo = max([x for x, s in calls[:-1] if s < 0], default=lo)
        hi = min([x for x, s in calls[:-1] if s > 0], default=hi)
        assert lo <= a <= b <= hi


@pytest.mark.parametrize("make", COUNTED, ids=["renewal", "powers", "coeff-1.7", "seed-17"])
def test_roots_take_few_side_evaluations(make):
    # bisection took 41 to 53 on those that are not exact at the first midpoint
    kinds = _roots(make)
    assert kinds["x_star"] and kinds["series_root"] and kinds["pressure"]
    limits = {"x_star": 12, "series_root": 12, "pressure": 20}
    for kind, roots in kinds.items():
        assert max(len(calls) - 1 for calls in roots) <= limits[kind], kind


# the roots close on the float root of the computed series; on these inputs
# that is within 4 ulps of the exact root
ROOT_ULPS = 4 * 2.0**-52


def _straddles_one(counts, x, ulps=ROOT_ULPS):
    """Whether sum a_l z**l, summed exactly, is below 1 at z = x (1 - ulps)
    and above 1 at z = x (1 + ulps)."""
    def f(z):
        z = Fraction(z)
        return sum(a * z**length for length, a in counts)

    return f(x * (1 - ulps)) < 1 < f(x * (1 + ulps))


@pytest.mark.parametrize("make", [renewal_shift, power_loops])
def test_whole_loop_roots_straddle_one_exactly(make):
    for q in range(4, 65):
        _, loops = make().whole_loops(q)
        assert _straddles_one(loops, thermo.LoopGF(LoopSystem(loops)).x_star()), q


@pytest.mark.parametrize("make", [renewal_shift, power_loops])
def test_default_window_roots_straddle_one_exactly(make):
    # the windows h_inf_lower_bound uses when none are given
    system = make()
    for j in range(4):
        lo, hi = 30 * 2**j, 90 * 2**j
        x = math.exp(thermo.series_root(*system.log_counts(lo, hi)))
        counts = [(length, system.multiplicity(length)) for length in range(lo, hi + 1)]
        assert _straddles_one(counts, x), (lo, hi)


def test_powers_trace_at_four_is_log_three():
    # the whole loops at q = 4 are two self-loops and three 2-loops:
    # 2x + 3x^2 = 1 at x = 1/3, entropy log 3
    trace = dict(thermo.gurevich_entropy(power_loops(), n_max=0).truncations)
    assert abs(trace[4] - math.log(3)) <= 4.5e-16


def test_series_root_rejects_an_empty_series():
    with pytest.raises(NonConvergent):
        thermo.series_root(np.zeros(0), np.zeros(0))


@pytest.mark.parametrize(
    "graph,verdict",
    [
        (full_shift(2), "positive-recurrent"),
        (golden_mean(), "positive-recurrent"),
        (renewal_shift(), "positive-recurrent"),
        (power_loops(), "positive-recurrent"),
        (subexponential_loops(), "transient"),
        (greedy_null_loops(), "null-recurrent"),
    ],
)
def test_classify(graph, verdict):
    assert thermo.classify(graph).verdict == verdict


@pytest.mark.parametrize(
    "loops", [[(1, 1), (2, 1), (3, 1)], [(2, 1), (3, 1)]]
)
def test_classify_reads_a_finite_system_entropy_from_its_log_root(loops):
    # log(1 / e^y) and -y can differ in the last digit; every reading is
    # the pressure at t = 0, -y
    system = LoopSystem(loops)
    c = thermo.classify(system)
    assert c.verdict == "positive-recurrent"
    assert c.entropy == thermo.gurevich_entropy(system).value
    assert c.entropy == thermo.pressure(system)


def test_classify_detail_renewal():
    c = thermo.classify(renewal_shift())
    assert abs(c.x_star - 0.5) < 1e-12
    assert c.radius == 1.0
    assert abs(c.entropy - math.log(2)) < 1e-9


@pytest.mark.parametrize(
    "graph,value",
    [
        (full_shift(2), float("-inf")),
        (golden_mean(), float("-inf")),
        (renewal_shift(), 0.0),
        (power_loops(), math.log(2)),
        (subexponential_loops(), math.log(2)),
        (greedy_null_loops(), math.log(2)),
    ],
)
def test_big_delta_inf(graph, value):
    got = thermo.big_delta_inf(graph)
    if value == float("-inf"):
        assert got == value
    else:
        assert abs(got - value) < 1e-12


def test_delta_inf_grid_renewal():
    grid = thermo.delta_inf(renewal_shift(), Ms=(8, 16), qs=(1, 2, 4), n_max=40)
    # in the two-visit regime the only escaping words are single loops,
    # so those cells fit an exactly flat line
    assert abs(grid.cells[(16, 1)].rate) < 1e-9
    assert grid.headline <= 0.01
    # looser budgets admit loop chains and fit strictly positive rates
    assert grid.cells[(8, 1)].rate > 0.3


def test_delta_inf_grid_powers_matches_tail_growth():
    grid = thermo.delta_inf(power_loops(), Ms=(16,), qs=(1,), n_max=40)
    assert abs(grid.cells[(16, 1)].rate - math.log(2)) < 1e-9
    assert abs(grid.headline - math.log(2)) < 1e-9


def test_delta_inf_grid_compact_is_empty():
    grid = thermo.delta_inf(golden_mean(), Ms=(2, 3), qs=(1,), n_max=12)
    assert grid.headline == float("-inf")
    assert all(cell.empty for cell in grid.cells.values())


@pytest.mark.parametrize("grid,field", [
    ({"Ms": ()}, "Ms"), ({"qs": []}, "qs"), ({"Ms": (), "qs": ()}, "Ms"),
])
def test_delta_inf_rejects_an_empty_axis(grid, field):
    # an empty axis would give a grid with no cells and headline -inf, which
    # reads as "every cell is empty"
    with pytest.raises(ValidationError) as exc:
        thermo.delta_inf(renewal_shift(), n_max=10, **grid)
    assert exc.value.field == field


def test_is_spr():
    v = thermo.is_spr(renewal_shift())
    assert v.spr
    assert abs(v.margin - math.log(2)) < 1e-6
    assert not thermo.is_spr(subexponential_loops()).spr
    assert not thermo.is_spr(greedy_null_loops()).spr
    assert thermo.is_spr(power_loops()).spr
    assert thermo.is_spr(full_shift(2)).spr
    assert thermo.is_spr(full_shift(2)).margin == math.inf


def test_is_spr_rejects_graph_without_cycle():
    # no cycle: entropy and delta_inf are both -inf, so there is no margin
    with pytest.raises(NotStronglyConnected):
        thermo.is_spr(FiniteGraph(3, [(1, 2), (2, 3)]))


def test_perron_golden_mean_vectors():
    lam, left, right = thermo._plan(golden_mean())[0].perron
    assert abs(lam - PHI) < 1e-14
    assert abs(right[0] / right[1] - PHI) < 1e-14
    assert abs(left[0] / left[1] - PHI) < 1e-14


def test_perron_rejects_reducible_matrix():
    # the plan of a Jordan block's graph has two blocks; on the dense kernel
    # behind markov_measure, given its log weights, the Perron vector has a
    # zero entry that the eigen-equation cannot fill
    with pytest.raises(NotStronglyConnected):
        measures.parry_measure(FiniteGraph(2, [(1, 1), (1, 2), (2, 2)]))
    with pytest.raises(NonConvergent):
        thermo._perron_vector(np.array([[0.0, 0.0], [-math.inf, 0.0]]))


def test_edgeless_one_symbol_graph_is_not_irreducible():
    # the one-symbol truncation of LoopSystem([(2, 1), (3, 1)]) keeps no
    # edge: its one block has no cycle, so no Perron data, Parry chain or
    # recurrence class exists, as for is_spr
    g = LoopSystem([(2, 1), (3, 1)]).truncate(1).as_graph()
    assert g.symbols == 1 and not g.edge_multiplicities()
    for query in (measures.parry_measure, thermo.classify, thermo.is_spr):
        with pytest.raises(NotStronglyConnected):
            query(g)
    assert thermo.pressure(g) == -math.inf


# ---------------------------------------------------------------------------
# Perron data through a one-vertex rome; the dense log-weight kernel
# (thermo._perron_vector on log a and on its transpose) is the oracle


def _assert_rome_matches_dense(graph):
    block = thermo._plan(graph)[0]
    assert block.rome is not None
    lam, left, right = block.perron
    with np.errstate(divide="ignore"):
        logs = np.log(thermo.adjacency_matrix(graph))
    want, want_right = thermo._perron_vector(logs)
    want_left, want_right = np.exp(thermo._perron_vector(logs.T)[1]), np.exp(want_right)
    assert abs(lam - math.exp(want)) < 1e-12
    assert np.abs(left / left.sum() - want_left / want_left.sum()).max() < 1e-12
    assert np.abs(right / right.sum() - want_right / want_right.sum()).max() < 1e-12


@pytest.mark.parametrize("supports", ["golden+full", "full", "golden"])
def test_perron_rome_route_matches_dense_on_block_systems(supports):
    # every cycle of a block system passes through the first slot start
    ambient = full_shift(2)
    sets = {
        "golden+full": [golden_mean(), ambient],
        "full": [ambient],
        "golden": [golden_mean()],
    }
    for n in (2, 3, 5, 8, 13, 21, 32):
        for M in (1, 2, 3, 4, 5):
            system = density.concatenated_system(ambient, sets[supports], n=n, M=M)
            _assert_rome_matches_dense(system.graph)


@pytest.mark.parametrize(
    "system",
    [renewal_shift(), power_loops(), LoopSystem([(1, 1), (3, 2)], GeometricTail(4, 1.7, 1.1))],
    ids=["renewal", "powers", "coeff>1"],
)
def test_perron_rome_route_matches_dense_on_whole_loop_truncations(system):
    # every cycle of a whole-loop truncation passes through the base
    for q in (4, 8, 16, 32):
        boundary, _ = system.whole_loops(q)
        _assert_rome_matches_dense(system.truncate(boundary).as_graph())


def test_perron_rome_route_on_golden_mean():
    _assert_rome_matches_dense(golden_mean())


def test_perron_rome_route_rejects_reducible_matrix():
    # vertex 1 is a rome (removing it leaves no edge), but no path from
    # vertex 1 reaches vertex 3: the plan splits the graph into blocks, and
    # the rome's left vector has a zero entry, which the log
    # Collatz-Wielandt check rejects
    g = FiniteGraph(3, [(1, 2), (2, 1), (3, 1)])
    a = thermo.adjacency_matrix(g)
    with pytest.raises(NotStronglyConnected):
        measures.parry_measure(g)
    assert len(thermo._plan(g)) == 2
    block = thermo._block(np.arange(3), a, *np.nonzero(a))
    assert block.rome is not None
    # the right vector has no zero entry and its log ratios are all 0; the
    # left one's, taken on a.T, are not finite
    y, right = block.right
    assert y == 0.0 and right.tolist() == [1.0, 1.0, 1.0]
    assert thermo._log_width(np.log(a @ right / right), 0.0) == 0.0
    with pytest.raises(NonConvergent, match="zero"):
        block.perron


def test_perron_without_a_rome_falls_back_to_eig():
    # every row has two nonzero entries: no one-vertex rome
    g = FiniteGraph(3, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3)])
    assert thermo._plan(g)[0].rome is None
    assert abs(thermo._plan(g)[0].perron[0] - 2.0) < 1e-12
