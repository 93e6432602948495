"""Covering numbers of cylinder sets and the entropy rate they carry.

Oracles:
  - under the fair Bernoulli measure every n-word has mass 2^-n, so the
    minimal number of n-cylinders with total mass strictly above 1-delta
    is floor((1-delta) 2^n) + 1, which equals ceil((1-delta) 2^n)
    whenever (1-delta) 2^n is not an integer (true for delta = 0.1 and
    0.4 at every n),
  - at an exact tie (delta = 0.25, n = 2: three quarters reach exactly
    0.75) strictness forces one extra cylinder,
  - small golden-mean counts are computed by hand from the stationary
    chain pi = (phi^2, 1)/(1 + phi^2), P(1,.) = (1/phi, 1/phi^2),
  - the fitted rates must recover the entropies log 2 and log phi and be
    insensitive to delta,
  - more than `cap` cylinders raise before any level array is allocated.
"""

import math
import tracemalloc

import pytest

from cmshift import katok, measures
from cmshift.errors import CapacityError, ValidationError
from cmshift.families import full_shift, golden_mean

LOG2 = math.log(2)
PHI = (1 + math.sqrt(5)) / 2


def _bern():
    return measures.bernoulli_measure(full_shift(2), (0.5, 0.5))


def test_covering_number_bernoulli_closed_form():
    mu = _bern()
    g = full_shift(2)
    for n, delta in ((6, 0.1), (10, 0.1), (10, 0.4)):
        want = math.ceil((1 - delta) * 2**n)
        assert katok.covering_number(mu, g, n, delta) == want


def test_covering_number_strict_at_tie():
    # 3 of the 4 two-cylinders reach exactly 0.75: strictly more is needed
    assert katok.covering_number(_bern(), full_shift(2), 2, 0.25) == 4


def test_covering_number_golden_hand_counts():
    g = golden_mean()
    mu = measures.parry_measure(g)
    assert katok.covering_number(mu, g, 1, 0.1) == 2
    assert katok.covering_number(mu, g, 2, 0.1) == 3


def test_covering_number_monotone_in_delta():
    mu = _bern()
    g = full_shift(2)
    small = katok.covering_number(mu, g, 8, 0.4)
    large = katok.covering_number(mu, g, 8, 0.1)
    assert small < large


def test_covering_numbers_need_a_markov_measure():
    g = full_shift(2)
    mix = measures.MixtureMeasure(
        [(0.5, _bern()), (0.5, measures.bernoulli_measure(g, (0.2, 0.8)))]
    )
    with pytest.raises(ValidationError):
        katok.covering_number(mix, g, 3, 0.1)
    with pytest.raises(ValidationError):
        katok.katok_estimate(mix, g, delta=0.1, n_max=4)


def test_covering_number_cap():
    # raised before allocating: level 21 would hold 2^21 masses (16 MB),
    # level 20 half that
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            katok.covering_number(_bern(), full_shift(2), 21, 0.1, cap=2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_katok_estimate_cap():
    with pytest.raises(CapacityError):
        katok.katok_estimate(_bern(), full_shift(2), delta=0.1, n_max=21, cap=2**20)


def test_katok_estimate_bernoulli():
    rep = katok.katok_estimate(_bern(), full_shift(2), delta=0.1, n_max=20)
    assert abs(rep.rate - LOG2) < 0.03
    assert rep.counts.value(10) == math.ceil(0.9 * 2**10)


def test_katok_estimate_golden():
    g = golden_mean()
    mu = measures.parry_measure(g)
    rep = katok.katok_estimate(mu, g, delta=0.1, n_max=22)
    assert abs(rep.rate - math.log(PHI)) < 0.05


def test_katok_estimate_delta_independent():
    g = golden_mean()
    mu = measures.parry_measure(g)
    r1 = katok.katok_estimate(mu, g, delta=0.1, n_max=20).rate
    r2 = katok.katok_estimate(mu, g, delta=0.4, n_max=20).rate
    assert abs(r1 - r2) < 0.02


def test_katok_estimate_has_count_series():
    rep = katok.katok_estimate(_bern(), full_shift(2), delta=0.4, n_max=8)
    assert rep.counts.start == 1
    assert len(list(rep.counts.items())) == 8
    assert rep.delta == 0.4
