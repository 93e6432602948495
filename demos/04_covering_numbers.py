"""Entropy from covering numbers.

N(n, delta) is the smallest number of length-n cylinders whose union has
measure strictly greater than 1 - delta.  Its exponential growth rate in
n recovers the entropy of the measure — for any delta in (0, 1), which
the demo exhibits by fitting at two very different levels.

On Bernoulli(1/2, 1/2) every length-n cylinder has mass 2^-n, so the
covering number is exactly floor((1 - delta) 2^n) + 1 and the demo
doubles as an exactness check of the greedy search.  The counts come
from mass classes (one symbol-count class for Bernoulli(1/2), four
first-and-last-symbol classes for the golden-mean Parry chain), so
n = 200, with 2^200 cylinders, takes milliseconds.
"""

import math
from fractions import Fraction

from cmshift import families, katok, measures

PHI = (1 + math.sqrt(5)) / 2

full2 = families.full_shift(2)
bern = measures.bernoulli_measure(full2, (0.5, 0.5))

print("Bernoulli(1/2,1/2): exact covering numbers")
print("-" * 64)
for n in (4, 8, 12, 100, 200):
    for delta in (0.1, 0.4):
        got = katok.covering_number(bern, full2, n, delta)
        exact = math.floor(Fraction(1 - delta) * 2**n) + 1
        print(f"  n={n:<3d} delta={delta}: N = closed form: {got == exact}  "
              f"(log2 N = {math.log2(got):.6f})")

print()
print("fitted rates")
print("-" * 64)
golden = families.golden_mean()
parry = measures.parry_measure(golden)
for n_max in (20, 200):
    r1 = katok.katok_estimate(bern, full2, delta=0.1, n_max=n_max)
    r4 = katok.katok_estimate(bern, full2, delta=0.4, n_max=n_max)
    rg = katok.katok_estimate(parry, golden, delta=0.1, n_max=n_max)
    print(f"  n_max={n_max}")
    print(f"    Bernoulli delta=0.1: {r1.rate:.8f}  (log 2 = {math.log(2):.8f})")
    print(f"    Bernoulli delta=0.4: {r4.rate:.8f}  "
          f"(delta-independence gap {abs(r1.rate - r4.rate):.2e})")
    print(f"    golden-mean Parry:   {rg.rate:.8f}  (log phi = {math.log(PHI):.8f})")
