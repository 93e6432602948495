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
  - more than `cap` cylinders raise before any level array is allocated,
    on a chain without mass classes; the Parry and Bernoulli chains count
    from their classes past the cap, and raise only where a class mass or
    size leaves the float range.
"""

import math
import tracemalloc
from fractions import Fraction

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


def _skewed():
    # a chain without mass classes: every covering number reads the level arrays
    return measures.markov_measure(
        full_shift(2), {(1, 1): 0.3, (1, 2): 0.7, (2, 1): 0.6, (2, 2): 0.4}
    )


def test_covering_number_cap():
    # raised before allocating: level 21 would hold 2^21 masses (16 MB),
    # level 20 half that
    mu = _skewed()
    assert mu.classes is None
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            katok.covering_number(mu, full_shift(2), 21, 0.1, cap=2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_katok_estimate_cap():
    with pytest.raises(CapacityError):
        katok.katok_estimate(_skewed(), full_shift(2), delta=0.1, n_max=21, cap=2**20)


def _half_cover(n, delta):
    return math.floor(Fraction(1 - delta) * 2**n) + 1


def test_covering_number_past_the_cap_from_classes():
    # 2^21 cylinders, over the cap of the level arrays: the type classes
    # give the closed form, also at the exact tie delta = 0.25
    for delta in (0.1, 0.25, 0.4):
        got = katok.covering_number(_bern(), full_shift(2), 21, delta, cap=2**20)
        assert got == _half_cover(21, delta)


def test_bernoulli_half_closed_form_to_length_1000():
    g = full_shift(2)
    for delta in (0.1, 0.25, 0.4):
        rep = katok.katok_estimate(_bern(), g, delta=delta, n_max=1000)
        assert list(rep.counts.counts) == [_half_cover(n, delta) for n in range(1, 1001)]


def test_class_masses_out_of_float_range_raise():
    # 2^-1023 is below the smallest normal float
    g = full_shift(2)
    for mu in (_bern(), measures.parry_measure(g)):
        assert katok.covering_number(mu, g, 1022, 0.1) == _half_cover(1022, 0.1)
        with pytest.raises(CapacityError):
            katok.covering_number(mu, g, 1023, 0.1)
        with pytest.raises(CapacityError):
            katok.katok_estimate(mu, g, delta=0.1, n_max=1030, n_min=1020)


def test_golden_covering_rate_at_length_1000():
    g = golden_mean()
    n = katok.covering_number(measures.parry_measure(g), g, 1000, 0.1)
    assert abs(math.log(n) / 1000 - math.log(PHI)) < 1e-4


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
