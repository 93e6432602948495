"""Entropy at infinity estimators, the escape-of-mass inequality verifier,
the mass bound, the dimension series, and stability checks.

Oracles used here, independent of the implementation under test:
  - for the renewal system with the base as finite part, every loop hits
    the base exactly once, so the weighted series is e^-t f(x) and the
    pressure is log(1 + e^-t); the a_l = 2^l system adds log 2,
  - on the full 2-shift with weight e^-t on symbol 1 the transfer matrix
    has rank one with row sum e^-t + 1; on the golden mean shift its root
    solves lam^2 = w lam + w with w = e^-t,
  - on a block system of period p whose cycles all pass one state once per
    period, lam^p is the weight of the length-p walks from that state back,
  - the dual bound min_t [P(-t 1_F) + t lam] has the closed-form minimizer
    e^-t = lam/(1-lam) for P(t) = log(1+e^-t),
  - a system of one loop of length l, which passes the base once, has
    P(-t 1_F) = -t/l, so the dual bound is unbounded below for lam < 1/l,
  - a base self-loop and two 3-loops inside F = {1..6} weigh
    e^-t x + 2 e^-3t x^3, which is y + 2 y^3 in y = e^-t x, so
    P(-t 1_F) = -t - log y* with y* the real root of 2y^3 + y - 1,
  - escape counts in the budget-2 regime are single loops, making the
    dimension series terms explicit powers,
  - the mass bound (c - d_inf)/(h - d_inf) at c = h/2 and d_inf = 0 is 1/2.
"""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cmshift import density, infinity, measures, thermo
from cmshift.errors import ValidationError
from cmshift.families import full_shift, golden_mean, power_loops, renewal_shift
from cmshift.graphs import FiniteGraph, GeometricTail, LoopSystem

LOG2 = math.log(2)


def test_pressure_indicator_renewal_closed_form():
    g = renewal_shift()
    for t in (0.0, 0.5, 1.0, 2.0):
        want = math.log(1 + math.exp(-t))
        assert abs(infinity.pressure_indicator(g, t, q=1) - want) < 1e-9


def test_pressure_indicator_renewal_to_float_resolution():
    # the root closes where the certified bounds cannot tell, not at a fixed
    # width, so the pressure is good to about an ulp of 1
    g = renewal_shift()
    for t in range(8, 16):
        assert abs(infinity.pressure_indicator(g, t, q=1) - math.log1p(math.exp(-t))) <= 2.0**-52


def _real_root_of_2y3_plus_y_minus_1():
    y = 0.59
    for _ in range(8):
        y -= (2 * y**3 + y - 1) / (6 * y**2 + 1)
    return y


def test_pressure_indicator_finite_loop_system_without_cancellation():
    # one self-loop at the base and two 3-loops with interiors 2, 3 and 4, 5,
    # all inside F = {1..6}: the weighted series e^-t x + 2 e^-3t x^3 = 1 is
    # y + 2 y^3 = 1 in y = e^-t x, so P(-t 1_F) = -t - log y*; the loop
    # weights are large once x* > 1 and must not cancel
    g = LoopSystem([(1, 1), (3, 2)])
    log_y = math.log(_real_root_of_2y3_plus_y_minus_1())
    for t in (5.0, 10.0, 15.0, 18.0, 30.0):
        assert infinity.pressure_indicator(g, t, q=6) == pytest.approx(-t - log_y, abs=1e-12)


# finite loop systems, the finite part q and every loop as (length,
# multiplicity, visits to the symbols <= q)
FINITE_SYSTEMS = [
    ([(1, 1), (40, 1)], 40, [(1, 1, 1), (40, 1, 40)]),
    ([(1, 1), (3, 2)], 5, [(1, 1, 1), (3, 2, 3)]),
    ([(1, 2), (2, 3), (7, 1)], 4, [(1, 2, 1), (2, 3, 2), (7, 1, 1)]),
]


def _decimal_pressure(terms, t):
    """-y for the root of sum m exp(l y - t v) = 1, bisected in 50-digit
    decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(t)

        def f(y):
            return sum(m * (length * y - t * v).exp() for length, m, v in terms)

        lo, hi = -t - 100, t * max(v for _, _, v in terms) + 100
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 1 else (lo, mid)
        return -float(lo)


@pytest.mark.parametrize("loops,q,terms", FINITE_SYSTEMS)
def test_pressure_indicator_finite_loop_systems_exactly(loops, q, terms):
    # the truncation at the last id is the whole system as a finite graph;
    # the rome route on it carries a rounding bound that grows with t times
    # the square of the loop length, the loop-series route one that grows
    # with t times the loop length
    system = LoopSystem(loops)
    graph = system.truncate(1 + sum((length - 1) * m for length, m in loops)).as_graph()
    for t in (0.0, 0.5, 3.0, 18.0, 30.0, 300.0):
        value = infinity.pressure_indicator(system, t, q)
        assert abs(value - _decimal_pressure(terms, t)) <= 1e-13 * (1 + t), t
        assert abs(value - infinity.pressure_indicator(graph, t, q)) <= 1e-12 * (1 + t), t


@pytest.mark.parametrize("loops,q,terms", FINITE_SYSTEMS)
def test_pressure_indicator_finite_loop_systems_at_large_t(loops, q, terms):
    # every loop weight e^(-t * visits) underflows past t = 745
    system = LoopSystem(loops)
    ts = (0.0, 0.5, 3.0, 18.0, 30.0, 300.0, 500.0, 800.0)
    values = [infinity.pressure_indicator(system, t, q) for t in ts]
    assert all(math.isfinite(v) for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert abs(values[-1] - _decimal_pressure(terms, 800.0)) <= 1e-13 * 801


def test_b_inf_unbounded_below_where_every_cycle_meets_f():
    # every cycle meets F = {1..40}, so the pressure falls without bound,
    # though the 40-loop weighs only e^-720 at t = 18
    rep = infinity.b_inf_estimate(LoopSystem([(1, 1), (40, 1)]), q=40)
    assert rep.value == -math.inf


def test_pressure_indicator_powers_closed_form():
    g = power_loops()
    for t in (0.0, 1.0):
        want = LOG2 + math.log(1 + math.exp(-t))
        assert abs(infinity.pressure_indicator(g, t, q=1) - want) < 1e-9


def test_pressure_indicator_finite_closed_form():
    g = full_shift(2)
    for t in (0.0, 1.0, 3.0):
        want = math.log(1 + math.exp(-t))
        assert abs(infinity.pressure_indicator(g, t, q=1) - want) < 1e-9


@pytest.mark.parametrize("make", [golden_mean, renewal_shift])
def test_pressure_indicator_rejects_negative_finite_part(make):
    with pytest.raises(ValidationError) as exc:
        infinity.pressure_indicator(make(), 2.0, q=-1)
    assert exc.value.field == "q"


@pytest.mark.parametrize(
    "check",
    [
        lambda: infinity.h_inf_lower_bound(renewal_shift(), count=0),
        lambda: infinity.verify_main_inequality(renewal_shift(), family="mme", count=0),
        lambda: infinity.verify_main_inequality(renewal_shift(), family="drift", count=2),
    ],
)
def test_schedule_counts_below_their_minimum_are_rejected(check):
    with pytest.raises(ValidationError) as exc:
        check()
    assert exc.value.field == "count"


@pytest.mark.parametrize(
    "check",
    [
        lambda: infinity.pressure_indicator(golden_mean(), math.nan),
        lambda: infinity.pressure_indicator(renewal_shift(), math.nan),
        lambda: infinity.b_inf_estimate(renewal_shift(), lam=math.nan),
    ],
)
def test_nan_weights_and_levels_are_rejected(check):
    with pytest.raises(ValidationError):
        check()


def test_pressure_indicator_rejects_infinite_t():
    # an infinite weight is rejected by name, as dimension_series rejects
    # a nan t
    with pytest.raises(ValidationError) as exc:
        infinity.pressure_indicator(LoopSystem([(1, 1), (3, 2)]), math.inf, 1)
    assert exc.value.field == "t"


def test_b_inf_estimate_rejects_infinite_t_max():
    # the golden-section search would ask for the pressure at t = inf
    with pytest.raises(ValidationError) as exc:
        infinity.b_inf_estimate(full_shift(2), t_max=math.inf)
    assert exc.value.field == "t_max"


def test_dimension_series_rejects_nan_t():
    with pytest.raises(ValidationError) as exc:
        infinity.dimension_series(renewal_shift(), math.nan)
    assert exc.value.field == "t"


def test_mass_bound_check_rejects_nan_c():
    with pytest.raises(ValidationError) as exc:
        infinity.mass_bound_check(renewal_shift(), math.nan)
    assert exc.value.field == "c"


def test_pressure_indicator_golden_mean_at_large_t():
    # weight w = e^-t on edges entering symbol 1: lam^2 = w lam + w
    t = 20.0
    w = math.exp(-t)
    want = math.log((w + math.sqrt(w * w + 4 * w)) / 2)
    assert abs(infinity.pressure_indicator(golden_mean(), t, q=1) - want) < 1e-12


@pytest.mark.parametrize("t", [740.0, 800.0])
def test_finite_pressure_past_the_float_range_of_its_weights(t):
    # e^-t is subnormal at t = 740 and 0 at t = 800; the one-vertex rome
    # route adds -t to the log weights, so the truncation of a finite loop
    # system keeps the pressure of the loop system itself
    system = LoopSystem([(1, 1), (3, 2)])
    want = infinity.pressure_indicator(system, t, q=5)
    got = infinity.pressure_indicator(system.truncate(100).as_graph(), t, q=5)
    assert math.isfinite(want)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("t", [740.0, 800.0])
def test_dense_route_pressure_past_the_float_range_of_its_weights(t):
    # the full 2-shift has no one-vertex rome, so its block is scaled as a
    # matrix; with both columns inside F every cycle weighs e^-t per step and
    # the pressure is log 2 - t, although e^-t is subnormal or 0
    assert infinity.pressure_indicator(full_shift(2), t, q=2) == LOG2 - t


def test_dense_pressure_certified_by_its_right_vector_alone():
    # no one-vertex rome; at t = 10, q = 2 the top two eigenvalues are
    # 3.0000151 and 2.9999...: eig's left vector kept the two-vector bracket
    # at 1.4e-8 after four passes, while the right vector alone certifies;
    # exact value from a 60-digit eigenvalue
    g = FiniteGraph(5, {
        (1, 2): 1, (1, 4): 1, (2, 2): 2, (2, 3): 1, (2, 5): 2, (3, 1): 1, (3, 4): 3,
        (3, 5): 3, (4, 1): 1, (4, 4): 3, (5, 1): 1, (5, 2): 1, (5, 4): 1,
    })
    assert thermo._plan(g)[0].rome is None
    assert abs(infinity.pressure_indicator(g, 10.0, 2) - 1.0986173332192634227) <= 1e-12


@pytest.mark.parametrize("t,exact", [(18.0, -17.931962091659646), (300.0, -299.93196209165967)])
def test_rome_pressure_closes_on_the_float_root(t, exact):
    # the 40-cycle and the self-loop at the base: every walk log is exact,
    # but the rounding bound of the first-return series grows with t and the
    # path length, so a root taken anywhere in its zone was 1.8e-12 (t = 18)
    # and 2.4e-11 (t = 300) off; exact values from a 50-digit root
    graph = LoopSystem([(1, 1), (40, 1)]).truncate(40).as_graph()
    assert abs(infinity.pressure_indicator(graph, t, q=40) - exact) <= 1e-13 * (1 + t)


def test_pressure_indicator_block_system_first_returns():
    # every cycle of the block system meets the first slot start once per
    # period p = M*n, so lam^p is the weight of the walks of length p from
    # that state back to itself. numpy.linalg.eigvals misses this root by
    # 3.5e-6: the eigenvalue is ill-conditioned, its Perron vectors span
    # 17 orders of magnitude.
    n, M, t, q = 14, 4, 3.6, 26
    system = density.concatenated_system(full_shift(2), [golden_mean(), full_shift(2)], n=n, M=M)
    g = system.graph
    mat = np.zeros((g.symbols, g.symbols))
    for (i, j), m in g.edge_multiplicities().items():
        mat[i - 1, j - 1] = m * (math.exp(-t) if j <= q else 1.0)
    start = system.slot_starts[0] - 1
    x = np.zeros(g.symbols)
    x[start] = 1.0
    for _ in range(M * n):
        x = x @ mat
    want = math.log(x[start]) / (M * n)
    assert abs(infinity.pressure_indicator(g, t, q=q) - want) < 1e-10


def _log_first_return_weight(graph, start, period, t, q):
    """(1/period) log of the weight of the length-period walks from start
    back to start under e^-t on every edge entering a symbol <= q, summed
    by log-sum-exp so that no weight underflows."""
    edges = graph.edge_multiplicities()
    src = np.array([i - 1 for i, _ in edges])
    dst = np.array([j - 1 for _, j in edges])
    logw = np.array([math.log(m) - (t if j <= q else 0.0) for (_, j), m in edges.items()])
    x = np.full(graph.symbols, -np.inf)
    x[start - 1] = 0.0
    for _ in range(period):
        nxt = np.full(graph.symbols, -np.inf)
        np.logaddexp.at(nxt, dst, x[src] + logw)
        x = nxt
    return x[start - 1] / period


@pytest.mark.parametrize("n", [6, 14, 22, 32])
@pytest.mark.parametrize("t", [20.0, 30.0])
@pytest.mark.parametrize("q", [26, 40, 60, 100])
def test_pressure_indicator_block_system_at_large_weights(n, t, q):
    # the dense eig path raised NonConvergent here (Perron vectors out of
    # float range); the first-return root of the slot-0 start answers
    M = 4
    system = density.concatenated_system(full_shift(2), [golden_mean(), full_shift(2)], n=n, M=M)
    want = _log_first_return_weight(system.graph, system.slot_starts[0], M * n, t, q)
    assert abs(infinity.pressure_indicator(system.graph, t, q=q) - want) < 1e-10


def test_pressure_indicator_block_system_sweep_returns_values():
    # n in 6..32, t up to 30, q up to 100: 294 block-system pressures, each
    # finite and nonincreasing in t
    for n in (6, 10, 14, 18, 22, 26, 32):
        g = density.concatenated_system(full_shift(2), [golden_mean(), full_shift(2)], n=n, M=4).graph
        for q in (1, 3, 5, 26, 40, 60, 100):
            values = [infinity.pressure_indicator(g, t, q=q) for t in (0.5, 2.0, 3.6, 8.0, 20.0, 30.0)]
            assert all(math.isfinite(v) for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))


def _random_loop_systems(seed, count):
    """Seeded loop systems, every other one with a geometric tail."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        loops = [(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        tail = None
        if k % 2 == 0:
            coeff = rng.choice([1, 2, 0.5, 1.7, 0.6])
            tail = GeometricTail(rng.randint(1, 6), coeff, rng.choice([1, 2, 1.1, 1.5, 1.03]))
        out.append(LoopSystem(loops, tail))
    return out


ENTROPY_SYSTEMS = [
    renewal_shift(),
    golden_mean(),
    LoopSystem([(1, 1), (3, 2)], GeometricTail(4, 1.7, 1.1)),
    LoopSystem([(1, 1), (2, 1), (3, 1)]),
] + _random_loop_systems(20, 16)


def test_pressure_at_zero_is_entropy():
    # the entropy of every reader is P(0), bit for bit: at q = 0 for any t,
    # and at t = 0
    for g in ENTROPY_SYSTEMS:
        want = thermo.gurevich_entropy(g).value
        assert thermo.classify(g).entropy == want, g
        if isinstance(g, LoopSystem):
            assert measures.loop_mme(g).entropy == want, g
        for t in (0.0, 0.05, 3.0, 800.0):
            assert infinity.pressure_indicator(g, t, 0) == want, (g, t)
        assert infinity.pressure_indicator(g, 0.0, 1) == want, g


@pytest.mark.parametrize(
    "g", [LoopSystem([(3, 1)]), LoopSystem([(1, 1)]), full_shift(1)],
    ids=["one-3-loop", "one-self-loop", "full-1-shift"],
)
def test_zero_entropy_reads_positive_zero(g):
    # -y of a log root y = 0.0 would be -0.0, which JSON prints as -0.0
    for h in (
        thermo.gurevich_entropy(g).value,
        thermo.classify(g).entropy,
        infinity.pressure_indicator(g, 0.0, 0),
        *[v for _, v in thermo.gurevich_entropy(g).truncations],
    ):
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    if isinstance(g, LoopSystem):
        assert math.copysign(1.0, measures.loop_mme(g).entropy) == 1.0


@pytest.mark.parametrize("t", [0.5, 2.0, 8.0, 30.0])
def test_pressure_with_empty_finite_part_is_entropy(t):
    # q = 0: F is empty, the potential vanishes and P(0) is the entropy
    assert infinity.pressure_indicator(renewal_shift(), t, q=0) == pytest.approx(math.log(2), abs=1e-15)
    assert infinity.pressure_indicator(golden_mean(), t, q=0) == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)


def test_pressure_decreases_in_t():
    g = renewal_shift()
    vals = [infinity.pressure_indicator(g, t, q=1) for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_b_inf_renewal():
    rep = infinity.b_inf_estimate(renewal_shift(), lam=0.001)
    want = math.log(1 + 1 / 999) + 0.001 * math.log(999)
    assert abs(rep.value - want) < 1e-5
    assert rep.value < 0.1
    assert rep.t_opt > 1.0


def test_b_inf_powers():
    rep = infinity.b_inf_estimate(power_loops(), lam=0.001)
    want = LOG2 + math.log(1 + 1 / 999) + 0.001 * math.log(999)
    assert abs(rep.value - want) < 1e-5
    assert abs(rep.value - LOG2) < 0.1


def test_b_inf_unbounded_below_on_compact_loop_systems():
    # P(-t 1_F) = -t/l on a single l-loop, so P + t lam falls without bound
    for length in (2, 3):
        g = LoopSystem([(length, 1)])
        for t_max in (None, 40.0):
            rep = infinity.b_inf_estimate(g, lam=0.001, t_max=t_max)
            assert rep.value == -math.inf
            assert rep.t_opt == math.inf
            assert rep.pressure_at_opt == -math.inf


def test_b_inf_stays_finite_where_the_pressure_is_bounded():
    lam = 0.001
    closed = math.log(1 + 1 / 999) + lam * math.log(999)
    assert abs(infinity.b_inf_estimate(renewal_shift(), lam=lam).value - closed) < 1e-12
    assert abs(infinity.b_inf_estimate(power_loops(), lam=lam).value - (LOG2 + closed)) < 1e-12
    # on the full 2-shift the fixed point at symbol 2 avoids F = {1}: P >= 0
    assert infinity.b_inf_estimate(full_shift(2), lam=lam).value > 0


def test_b_inf_shrinks_with_lam():
    g = renewal_shift()
    a = infinity.b_inf_estimate(g, lam=0.01).value
    b = infinity.b_inf_estimate(g, lam=0.001).value
    assert b < a


def test_h_inf_lower_renewal():
    rep = infinity.h_inf_lower_bound(renewal_shift())
    assert 0.0 < rep.value < 0.05
    hs = rep.entropies
    assert all(a > b for a, b in zip(hs, hs[1:]))
    assert rep.escaping


def test_h_inf_lower_powers():
    rep = infinity.h_inf_lower_bound(power_loops())
    assert LOG2 < rep.value < LOG2 + 0.05
    assert rep.escaping


def test_h_inf_lower_finite():
    rep = infinity.h_inf_lower_bound(full_shift(2))
    assert rep.value == float("-inf")


@pytest.mark.parametrize("family", ["mme", "drift", "mixture"])
@pytest.mark.parametrize("make", [renewal_shift, power_loops])
def test_verify_main_inequality_nonnegative_slack(make, family):
    rep = infinity.verify_main_inequality(make(), family=family)
    assert rep.slack >= -1e-9, (family, rep.slack)


def test_verify_main_mixture_is_sharp():
    for make in (renewal_shift, power_loops):
        rep = infinity.verify_main_inequality(make(), family="mixture")
        assert abs(rep.slack) <= 0.05
        assert abs(rep.mass - 0.5) < 0.02


def test_verify_main_constant_family_tight():
    rep = infinity.verify_main_inequality(renewal_shift(), family="mme")
    assert abs(rep.slack) < 1e-12
    assert abs(rep.mass - 1.0) < 1e-9


def test_verify_main_drift_family_reports_zero_mass():
    rep = infinity.verify_main_inequality(renewal_shift(), family="drift")
    assert rep.mass < 1e-6
    assert rep.slack >= -1e-9


def test_mass_bound_equality_witness():
    rep = infinity.mass_bound_check(renewal_shift(), c=0.5 * LOG2)
    assert abs(rep.bound - 0.5) < 1e-9
    assert abs(rep.measured - 0.5) < 0.02
    assert rep.satisfied


def test_mass_bound_formula():
    # c = h gives bound 1; c = delta_inf gives bound 0
    rep = infinity.mass_bound_check(renewal_shift(), c=LOG2)
    assert abs(rep.bound - 1.0) < 1e-9
    rep = infinity.mass_bound_check(power_loops(), c=LOG2)
    assert abs(rep.bound) < 1e-9


def test_dimension_series_renewal_convergent():
    rep = infinity.dimension_series(renewal_shift(), t=0.5, m=16, q=1, l_max=60)
    assert rep.verdict == "convergent"
    k = max(4, math.ceil(60 / 8))
    finals = [term for _, term in rep.terms[-k:]]
    assert all(term < 1e-6 for term in finals)
    # in the budget-2 window the terms are exactly 2^(-l/2)
    by_l = dict(rep.terms)
    for l in (36, 40, 44):
        assert abs(by_l[l] - 2 ** (-l / 2)) / 2 ** (-l / 2) < 1e-9


def test_dimension_series_powers_diverging():
    rep = infinity.dimension_series(power_loops(), t=0.5, m=16, q=1, l_max=40)
    assert rep.verdict == "diverging"


def test_dimension_series_compact_zero():
    rep = infinity.dimension_series(golden_mean(), t=0.5, m=4, q=1, l_max=20)
    assert rep.verdict == "convergent"
    assert all(term == 0 for _, term in rep.terms)


def test_mme_stability_renewal():
    rep = infinity.mme_stability(renewal_shift(), qs=(8, 16, 32, 64))
    diffs = [d for _, d in rep.rows]
    assert diffs[-1] < diffs[0]
    assert diffs[-1] < 0.01


def test_mme_stability_rows_match_parry_on_the_truncations():
    # the Parry chain of the truncation at each whole-loop boundary is the
    # oracle for the loop chain of maximal entropy of its whole loops
    tail = GeometricTail(4, 1.7, 1.1)
    for system in (renewal_shift(), power_loops(), LoopSystem([(1, 1), (3, 2)], tail)):
        mme = measures.loop_mme(system)
        rep = infinity.mme_stability(system, qs=(8, 16, 32, 64))
        for q, (q_eff, diff) in zip((8, 16, 32, 64), rep.rows):
            assert q_eff <= q
            parry = measures.parry_measure(system.truncate(q_eff).as_graph())
            want = max(
                abs(parry.cylinder_mass((a,)) - mme.cylinder_mass((a,)))
                for a in rep.probe_ids
                if a <= q_eff
            )
            assert abs(diff - want) < 1e-12


def test_mme_stability_where_perron_fails_on_the_truncations():
    # three base self-loops, one 6-loop and a tail from length 18: dense
    # eig leaves too wide a Collatz-Wielandt bracket on the truncation at 60
    system = LoopSystem([(6, 1), (1, 2), (1, 1)], GeometricTail(3, 0.6, 1.03))
    rep = infinity.mme_stability(system, qs=(8, 16, 32, 64))
    assert [q for q, _ in rep.rows] == [6, 6, 23, 60]
    assert all(0.0 <= d < 1e-6 for _, d in rep.rows)
    # the base is a one-vertex rome of every truncation, so their Parry
    # chains no longer need eig and agree with the whole-loop chains
    mme = measures.loop_mme(system)
    for q, diff in rep.rows:
        parry = measures.parry_measure(system.truncate(q).as_graph())
        want = max(abs(parry.cylinder_mass((a,)) - mme.cylinder_mass((a,))) for a in rep.probe_ids)
        assert abs(diff - want) < 1e-12


def test_mme_stability_rejects_probes_beyond_every_boundary():
    # q = 8 snaps to the whole-loop boundary 7 on renewal, below probe 8
    with pytest.raises(ValidationError) as exc:
        infinity.mme_stability(renewal_shift(), qs=(8,), probe_ids=(8,))
    assert exc.value.field == "probe_ids"


def test_usc_spot_check():
    rep = infinity.usc_spot_check(golden_mean(), trials=10, seed=0)
    assert rep.ok
    assert len(rep.gaps) == 10
    assert all(g <= 0.02 for g in rep.gaps)
    assert rep.max_mass_error < 1e-6
