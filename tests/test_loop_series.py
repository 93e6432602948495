"""The per-system count table behind the loop series, and the certified
bounds read from it.

Oracles used here, independent of the implementation under test:
  - per-length multiplicities from the tail rules themselves
    (`GeometricTail.multiplicity`, the FormulaTail callable) plus the
    explicit loops, and the exact floor of coeff * growth**l in rationals,
  - closed forms of the loop series with integer parameters, evaluated in
    exact rationals at the float argument: a_l = 1 gives x/(1-x), a_l = c^l
    gives cx/(1-cx), and loops (1,1), (4,2) plus a_l = 2 from l = 2 give
    x + 2x^4 + 2x^2/(1-x),
  - a FormulaTail whose callable counts its calls, so a second count of any
    length shows,
  - for the bounds memo, the answers of a system that has never been
    queried (loaded afresh from its document) and of sequential calls,
  - for the tail bounds, the order of the bounds themselves along the
    length: the series past a longer length has fewer terms.
"""

import gc
import math
import sys
import threading
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from cmshift import infinity, measures, thermo
from cmshift.families import greedy_null_loops, power_loops, renewal_shift, subexponential_loops
from cmshift.graphs import (
    SERIES_TERMS,
    FormulaTail,
    GeometricTail,
    LoopSystem,
    _log_big,
    load_graph,
)

from properties import graph_spec


def _reference(system, length):
    a = dict(system.explicit_loops).get(length, 0)
    if system.tail is not None:
        a += system.tail.multiplicity(length)
    return a


@pytest.mark.parametrize("growth", [1.2, 1.3, 3.7])
def test_bulk_tail_counts_match_per_length_counts(growth):
    tail = GeometricTail(3, 1.7, growth)
    want = [tail.multiplicity(l) for l in range(1, 601)]
    assert list(tail.multiplicities(1, 600)) == want
    # a run that starts mid-way, past the float range for growth 3.7
    assert list(tail.multiplicities(560, 600)) == want[559:]


def test_bulk_tail_counts_are_exact_floors_past_float_range():
    tail = GeometricTail(1, 1.7, 1.3)
    num, grow = Fraction(1.7), Fraction(1.3)
    for l, a in enumerate(tail.multiplicities(2800, 2820), 2800):
        assert a == math.floor(num * grow ** l)


@pytest.mark.parametrize(
    "system",
    [
        LoopSystem([(1, 1), (3, 2)], GeometricTail(2, 3.0, 2.0)),
        LoopSystem([(2, 1)], GeometricTail(3, 1.5, 1.2)),
        LoopSystem([(1, 1), (3, 2)], GeometricTail(4, 1.7, 1.3)),
        LoopSystem([(2, 1), (5, 3)]),
        subexponential_loops(),
        greedy_null_loops(),
    ],
    ids=["integer-tail", "floored-1.2", "floored-1.3", "finite", "subexponential", "greedy-null"],
)
def test_count_table_prefixes_match_multiplicities(system):
    small = system.count_table(100)
    table = system.count_table(700)
    lim = system.max_loop_length()
    n = 700 if lim is None else lim
    assert table.upto == n and small.upto == min(100, n)
    want = [0] + [_reference(system, l) for l in range(1, n + 1)]
    assert list(table.exact) == want
    assert small.exact == table.exact[: small.upto + 1]
    nonzero = [l for l in range(1, n + 1) if want[l]]
    assert table.lengths.tolist() == nonzero
    assert table.logs.tolist() == [_log_big(want[l]) for l in nonzero]
    for l, big, value in zip(nonzero, table.big.tolist(), table.floats.tolist()):
        assert big == (want[l].bit_length() > 500)
        assert value == (0.0 if big else float(want[l]))
    if lim is not None:
        assert system.counts(lim + 5) == want + [0] * 5


def test_count_table_stops_at_the_series_cap():
    system = power_loops(2)
    assert system.count_table(10 * SERIES_TERMS).upto == SERIES_TERMS
    assert system.multiplicity(SERIES_TERMS + 3) == 2 ** (SERIES_TERMS + 3)
    assert system.count_table(1).upto == SERIES_TERMS


def test_each_length_is_counted_once_across_queries():
    calls = Counter()

    def fn(length):
        calls[length] += 1
        return 1 << length

    def upper_sum(beyond, x):
        y = 2.0 * x
        return math.inf if y >= 1.0 else y ** (beyond + 1) / (1.0 - y)

    system = LoopSystem([(1, 1), (3, 2)], FormulaTail(fn=fn, growth=2.0, upper_sum=upper_sum))
    thermo.classify(system)
    thermo.gurevich_entropy(system)
    for t in (0.1, 0.5, 1.0, 2.0, 4.0):
        infinity.pressure_indicator(system, t, q=3)
    measures.loop_mme(system)
    assert calls
    assert max(calls.values()) == 1


def test_a_used_system_is_freed():
    system = LoopSystem([(2, 1)], GeometricTail(3, 1.5, 1.2))
    thermo.classify(system)
    infinity.pressure_indicator(system, 1.0, q=2)
    measures.loop_mme(system)
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "system, radius, closed, rounded",
    [
        (renewal_shift(), Fraction(1), lambda x: x / (1 - x), False),
        (power_loops(2), Fraction(1, 2), lambda x: 2 * x / (1 - 2 * x), False),
        (power_loops(3), Fraction(1, 3), lambda x: 3 * x / (1 - 3 * x), True),
        (
            LoopSystem([(1, 1), (4, 2)], GeometricTail(2, 2.0, 1.0)),
            Fraction(1),
            lambda x: x + 2 * x**4 + 2 * x**2 / (1 - x),
            False,
        ),
    ],
    ids=["renewal", "powers", "powers-of-3", "explicit-plus-constant"],
)
def test_value_bounds_contain_the_exact_series_near_the_radius(system, radius, closed, rounded):
    gf = thermo.LoopGF(system)
    for k in range(3, 13):
        x = float(radius) * (1 - 10.0**-k)
        lo, hi = gf.value_bounds(x)
        exact = closed(Fraction(x))
        assert Fraction(lo) <= exact <= Fraction(hi), (k, lo, hi, float(exact))
        # growth * x is exact for growth 1 or 2; growth 3 rounds it by an
        # ulp each way, which 1/(1 - growth x) = 10**k magnifies
        assert hi - lo <= (1e-12 + (4 * 2.0**-52 * 10.0**k if rounded else 0.0)) * hi


@pytest.mark.parametrize(
    "system, closed",
    [
        (LoopSystem([(300, 1)], GeometricTail(2, 1, 1.0)), lambda x: x**2 / (1 - x) + x**300),
        (LoopSystem([(1, 1), (300, 1)]), lambda x: x + x**300),
        (LoopSystem([(1, 1), (SERIES_TERMS + 7, 2)]), lambda x: x + 2 * x ** (SERIES_TERMS + 7)),
    ],
    ids=["past-the-prefix-plus-tail", "finite-past-the-prefix", "finite-past-the-cap"],
)
def test_value_bounds_count_explicit_loops_past_the_summed_prefix(system, closed):
    gf = thermo.LoopGF(system)
    for x in (0.5, 0.99, 0.9999):
        lo, hi = gf.value_bounds(x)
        exact = closed(Fraction(x))
        assert Fraction(lo) <= exact <= Fraction(hi), (x, lo, hi, float(exact))
        assert hi - lo <= 1e-12 * hi


def test_loop_mme_counts_explicit_loops_past_its_cutoff():
    # x + x**10 = 1: the chain picks the loop of length 10 with mass x**10
    chain = measures.loop_mme(LoopSystem([(1, 1), (10, 1)]))
    x = math.exp(-chain.entropy)
    assert sorted(chain.weights) == [1, 10]
    assert abs(chain.weights[10] - x**10) < 1e-12
    assert abs(x + x**10 - 1) < 1e-12


@pytest.mark.parametrize(
    "system",
    [
        power_loops(),
        LoopSystem([(1, 1), (5, 2), (300, 1), (1500, 3)], GeometricTail(2, 1, 2)),
        LoopSystem([(2, 1)], GeometricTail(3, 2, 3)),
        LoopSystem([(1, 1), (40, 2), (900, 1)], GeometricTail(1, 1.5, 2)),
        LoopSystem([(2, 1)], GeometricTail(3, 1.5, 1.2)),
        LoopSystem([(1, 1), (7, 1), (1200, 2)], GeometricTail(4, 0.6, 1.03)),
        subexponential_loops(),
        greedy_null_loops(),
    ],
    ids=["2^l", "2^l+explicit", "2*3^l", "floored-coeff", "floored", "floored+explicit",
         "subexponential", "greedy-null"],
)
def test_tail_upper_bounds_do_not_grow_with_the_length(system):
    # the contract measures._weight_cutoff bisects on: at each x <= R the
    # upper bound on the series past `beyond` is nonincreasing in beyond
    gf = thermo.LoopGF(system)
    tail = system.tail
    for share in (0.25, 0.9, 0.999, 1.0):
        x = gf.radius * share
        uppers = [gf._tail_bounds(beyond, x)[1] for beyond in range(2001)]
        assert all(a >= b for a, b in zip(uppers, uppers[1:])), share
        if isinstance(tail, FormulaTail):
            sums = [tail.upper_sum(beyond, x) for beyond in range(2001)]
            assert all(a >= b for a, b in zip(sums, sums[1:])), share


def test_threads_sharing_a_system_see_whole_tables():
    system = LoopSystem([(2, 1)], GeometricTail(3, 1.5, 1.3))
    want = [0] + [_reference(system, l) for l in range(1, 1201)]
    bad = []

    def work(seed):
        for k in range(40):
            n = 1 + (seed * 97 + k * 131) % 1200
            table = system.count_table(n)
            if table.upto < n or list(table.exact[: n + 1]) != want[: n + 1]:
                bad.append(n)
            if table.lengths.size != table.logs.size or system.multiplicity(n) != want[n]:
                bad.append(n)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def _fresh(system):
    return load_graph(graph_spec(system))


def _grid(system):
    """(x, beyond) at 0, interior points and the radius, summed from the
    start, past the longest explicit loop and past the 256-term prefix."""
    radius = thermo.LoopGF(system).radius
    xs = [0.0] + [radius * f for f in (0.1, 0.5, 0.9, 0.999)] + [radius]
    return [(x, beyond) for x in xs for beyond in (0, system.longest_explicit, 300)]


def _bounds_on_a_grid(system):
    gf = thermo.LoopGF(system)
    return [gf.value_bounds(x, beyond) for x, beyond in _grid(system)]


def _answers(system):
    mme = measures.loop_mme(system)
    return (
        _bounds_on_a_grid(system),
        thermo.classify(system),
        thermo.gurevich_entropy(system),
        (mme.entropy, mme.weights, mme.expected_length),
        [infinity.pressure_indicator(system, t, q) for t in (0.3, 2.0) for q in (1, 4)],
        infinity.b_inf_estimate(system, lam=0.01),
    )


@pytest.mark.parametrize(
    "make",
    [
        renewal_shift,
        power_loops,
        lambda: LoopSystem([(1, 1), (3, 2)], GeometricTail(4, 1.4, 1.08)),
        lambda: LoopSystem([(2, 1)], GeometricTail(3, 1.5, 1.2)),
    ],
    ids=["renewal", "powers", "non-integer-tail", "big-counts"],
)
def test_kept_bounds_answer_as_a_fresh_system(make):
    system = make()
    first = _answers(system)
    assert system.series_bounds and system.series_slices
    assert _answers(system) == first
    assert _answers(_fresh(system)) == first
    # each bound again from a system that has summed nothing else
    alone = [thermo.LoopGF(_fresh(system)).value_bounds(x, b) for x, b in _grid(system)]
    assert alone == first[0]


def test_bounds_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(thermo, "BOUNDS_MEMO", 8)
    system = LoopSystem([(2, 1)], GeometricTail(3, 1.5, 1.2))
    gf = thermo.LoopGF(system)
    xs = [gf.radius * k / 40 for k in range(1, 41)]
    got = []
    for x in xs + xs:
        got.append(gf.value_bounds(x, 2))
        assert 1 <= len(system.series_bounds) <= 8
    monkeypatch.undo()
    fresh = thermo.LoopGF(_fresh(system))
    assert got == [fresh.value_bounds(x, 2) for x in xs + xs]


def test_two_threads_sharing_a_system_answer_as_sequential_calls(monkeypatch):
    # a small memo, so that it is replaced while both threads use it
    monkeypatch.setattr(thermo, "BOUNDS_MEMO", 64)
    system = LoopSystem([(1, 1), (3, 2)], GeometricTail(4, 1.4, 1.08))
    jobs = [[("p", 0.2 + 0.7 * k, q) for k in range(6) for q in (1, 3)], [("b", 0.01), ("b", 0.05)]]

    def run(system, job):
        out = []
        for op in job:
            if op[0] == "p":
                out.append(infinity.pressure_indicator(system, op[1], op[2]))
            else:
                out.append(infinity.b_inf_estimate(system, lam=op[1]))
        out.append(_bounds_on_a_grid(system))
        return out

    want = [run(_fresh(system), job) for job in jobs]
    got = [None, None]

    def work(k):
        got[k] = run(system, jobs[k])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == want
