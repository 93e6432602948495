"""Seeded input generation shared by the workloads.

Sizes are drawn by stratified sampling: k draws from a range take one
uniform point from each of k equal sub-ranges, in shuffled order. Inputs
still come from the whole range, but the total work of a round moves little
from seed to seed, which keeps run-to-run spread small.
"""

import math


def stratified(rng, k, lo, hi, integer=False, log=False):
    """k values from [lo, hi], one per equal stratum, shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = []
    for i in range(k):
        x = a + (i + rng.random()) * (b - a) / k
        x = math.exp(x) if log else x
        if integer:
            x = min(int(hi), max(int(lo), int(math.floor(x))))
        vals.append(x)
    rng.shuffle(vals)
    return vals


def interleaved(k, lo, hi, phase):
    """k integers spread evenly over [lo, hi], shifted by phase in [0, 1) of
    a step; sizes of several inputs with different phases interleave, so
    together they cover the range without gaps."""
    step = (hi - lo) / k
    return [min(hi, int(lo + (j + phase) * step)) for j in range(k)]


def finite_doc(symbols, edges):
    return {"kind": "finite", "finite": {"symbols": symbols, "edges": sorted(map(list, edges))}}


def full_shift_doc(symbols):
    return finite_doc(symbols, [(i, j) for i in range(1, symbols + 1) for j in range(1, symbols + 1)])


def golden_doc():
    return finite_doc(2, [(1, 1), (1, 2), (2, 1)])


def random_two_out_doc(rng, symbols):
    """A random strongly connected graph with two out-edges at every vertex:
    a random Hamiltonian cycle plus one random chord per vertex (a self-loop
    allowed), so sparse graphs of one size mix at similar rates."""
    order = list(range(1, symbols + 1))
    rng.shuffle(order)
    edges = set()
    for k, v in enumerate(order):
        nxt = order[(k + 1) % symbols]
        edges.add((v, nxt))
        edges.add((v, rng.choice([u for u in order if u != nxt])))
    return finite_doc(symbols, edges)


def loop_doc(loops, from_length, coeff, growth):
    return {
        "kind": "loop_system",
        "loop_system": {
            "loops": [{"length": l, "multiplicity": m} for l, m in loops],
            "tail": {"from_length": from_length, "coeff": coeff, "growth": growth},
        },
    }


RENEWAL = loop_doc([], 1, 1.0, 1.0)
POWERS = loop_doc([], 1, 1.0, 2.0)


def seeded_loop_doc(rng, coeff, growth):
    """One to three explicit loops of length <= 6 (seeded) plus the tail
    floor(coeff * growth**l) from a seeded length in 2..5.

    The tail parameters are fixed by the caller: the cost of the loop-series
    bounds jumps where the number of summed terms doubles, so letting the
    seed move coeff and growth would move a round's cost with it.
    """
    loops = [(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
    return loop_doc(loops, rng.randint(2, 5), float(coeff), float(growth))


def whole_loop_boundary(doc, q):
    """Largest id <= q at which the canonical numbering closes a whole loop,
    so the truncation keeps every loop it touches complete."""
    from oracles import LoopSpec

    best = 1
    for length, first in LoopSpec(doc).loop_rows(q):
        last = first + length - 2
        if last <= q:
            best = max(best, last)
    return best
