"""Ergodic measures are dense in entropy.

Take a non-ergodic target: half the golden-mean maximal measure, half the
fair-coin Bernoulli measure on the ambient full 2-shift.  The construction
builds a single ergodic Markov measure that is

  * close to the target in the cylinder metric rho (weighted sum of
    cylinder-mass differences), and
  * nearly as entropic as the target's average.

It works by concatenation: M = 4 slots cycle through golden-mean and
full-shift blocks, each slot holding every admissible length-n word from
the anchor symbol (no sampling), and the built measure is the maximal
entropy chain of that block system.  The block length n controls both
errors.  The demo shows the rho-distance falling as n grows while the
entropy gap stays small.
"""

from cmshift import density

print(f"{'n':>4s} {'states':>7s} {'rho(depth 6)':>13s} {'entropy gap':>12s}")
for n in (8, 16, 32, 64):
    rep = density.two_component_demo(n=n, M=4, depth=6)
    print(f"{rep.n:4d} {rep.states:7d} {rep.rho:13.5f} {rep.gap:12.5f}")

print()
rep = density.two_component_demo(n=64, M=4, depth=6)
print(f"target entropy  {rep.entropy_target:.5f}")
print(f"built entropy   {rep.entropy_built:.5f}")
print(f"blocks per slot {list(rep.block_counts)}")
