"""Stock graph families used throughout the package and its demos.

Loop-system families fix the loop counts a_l (number of first-return loops
of length l at the base vertex):

* `renewal_shift`: a_l = 1 for every l. Entropy log 2, and escape rate 0
  at infinity (the loop counts do not grow).
* `power_loops`: a_l = 2**l (parallel loops; a multigraph). Entropy log 4
  (sum 2**l x**l = 1 at x = 1/4), and delta_inf = log 2 from the growth of
  the loop counts.
* `subexponential_loops`: a_l = floor(2**l / (4 l**2)). The loop series at
  its radius 1/2 stays below 1, so the system is transient.
* `greedy_null_loops`: a_l chosen greedily so the loop series at radius 1/2
  sums to exactly 1 while the mean loop length diverges: null recurrent.
"""

import math
from fractions import Fraction

from .graphs import FiniteGraph, FormulaTail, GeometricTail, LoopSystem


def full_shift(symbols):
    """The full shift on `symbols` symbols."""
    edges = [(i, j) for i in range(1, symbols + 1) for j in range(1, symbols + 1)]
    return FiniteGraph(symbols, edges)


def golden_mean():
    """The golden mean shift: forbidden word 22."""
    return FiniteGraph(2, [(1, 1), (1, 2), (2, 1)])


def renewal_shift():
    """One first-return loop of every length."""
    return LoopSystem([], GeometricTail(from_length=1, coeff=1.0, growth=1.0))


def power_loops(base=2):
    """base**l first-return loops of every length l."""
    return LoopSystem([], GeometricTail(from_length=1, coeff=1.0, growth=float(base)))


def subexponential_loops():
    """a_l = floor(2**l / (4 l**2)): transient, full entropy at infinity."""

    def fn(length):
        return (1 << length) // (4 * length * length)

    def upper_sum(beyond, x):
        # sum_{l > beyond} 2**l x**l / (4 l**2), certified for x <= 1/2
        y = 2.0 * x
        if y > 1.0:
            return math.inf
        at_radius = 1.0 / (4.0 * beyond)  # integral bound on sum 1/(4 l**2)
        if y == 1.0:
            return at_radius
        geom = y ** (beyond + 1) / ((1.0 - y) * 4.0 * (beyond + 1) ** 2)
        return min(geom, at_radius)

    tail = FormulaTail(fn=fn, growth=2.0, upper_sum=upper_sum)
    return LoopSystem([], tail)


class _GreedyNull:
    """Loop counts a_l = floor(2**l (D_{l-1} - 1/(l+1))) with exact deficits
    D_l = 1 - sum_{k<=l} a_k 2**-k. By induction 1/(l+1) <= D_l, the loop
    series at radius 1/2 sums to exactly 1, and the mean loop length
    diverges like the harmonic series.
    """

    def __init__(self):
        self._a = [None]          # 1-indexed
        self._deficit = [Fraction(1)]  # D_0 = 1

    def _extend(self, upto):
        while len(self._a) <= upto:
            l = len(self._a)
            room = self._deficit[l - 1] - Fraction(1, l + 1)
            a = math.floor((1 << l) * room)
            self._a.append(a)
            self._deficit.append(self._deficit[l - 1] - Fraction(a, 1 << l))

    def count(self, length):
        self._extend(length)
        return self._a[length]

    def deficit(self, length):
        self._extend(length)
        return self._deficit[length]


def greedy_null_loops():
    """Null recurrent loop system with entropy log 2."""
    g = _GreedyNull()

    def upper_sum(beyond, x):
        # sum_{l > beyond} a_l x**l for x <= 1/2: at the radius it telescopes
        # to D_beyond exactly; below it the geometric majorant can be tighter.
        at_radius = float(g.deficit(beyond))
        y = 2.0 * x
        if y > 1.0:
            return math.inf
        if y == 1.0:
            return at_radius
        geom = at_radius * y ** (beyond + 1) / (1.0 - y)
        return min(geom, at_radius)

    tail = FormulaTail(
        fn=g.count,
        growth=2.0,
        upper_sum=upper_sum,
        series_at_radius=1.0,
        mean_diverges=True,
    )
    return LoopSystem([], tail)
