"""Workload ``loops``: recurrence, entropy, pressure, the dual bound and the
escape-of-mass verifiers on infinite loop systems.

The same systems are queried many times, the opposite of ``cli-batch``'s
one-shot calls. Inputs are the stock renewal and 2^l systems, seeded
systems with explicit short loops and a geometric tail (integer and
non-integer coeff/growth), and one fixed system with non-integer growth 1.2
whose loop series needs exact big-integer counts.
"""

import math

import gen
import oracles
from harness import Op, Workload

# growth above ~1.19 pushes growth**l past the float range before the
# series' 4096-term cap, where counts switch to exact big integers
BIG_COUNTS = gen.loop_doc([(2, 1)], 3, 1.5, 1.2)
# a floored tail for the dual bound, fixed so that the bound's cost (about
# ninety pressure evaluations) does not move with the seed
FIXED = gen.loop_doc([(2, 1)], 3, 1.3, 1.1)


class Loops(Workload):
    def __init__(self, rng, cm, run_dir):
        super().__init__(rng, cm, run_dir)
        r = rng
        self.docs = {"renewal": gen.RENEWAL, "powers": gen.POWERS, "bigcounts": BIG_COUNTS}
        # integer tails (coeff, growth) = (1, 1), (2, 1), (1, 2) and
        # non-integer ones with growth 1.03..1.13
        tails = [(1, 1), (0.6, 1.03), (2, 1), (1.4, 1.08), (1, 2), (2.2, 1.13)]
        for k, (coeff, growth) in enumerate(tails):
            self.docs[f"sys{k}"] = gen.seeded_loop_doc(r, coeff, growth)
        # systems for the escape-of-mass verifiers: tail coeff <= 1, so the
        # loop-class entropies log(a_L)/L approach log(growth) from below
        self.docs["ver0"] = gen.seeded_loop_doc(r, 0.5, 1.05)
        self.docs["ver1"] = gen.seeded_loop_doc(r, 0.9, 1.12)
        self.systems = ["renewal", "powers"] + [f"sys{k}" for k in range(6)] + ["ver0", "ver1"]
        self.verifiable = ["renewal", "powers", "ver0", "ver1"]
        # five pressures per system, t spread over [0.05, 8] with a phase per
        # system so the systems interleave; q drawn per point
        self.grid = []
        for i, name in enumerate(self.systems):
            phase = i / len(self.systems)
            for j in range(5):
                self.grid.append((name, 0.05 + (j + phase) * (8.0 - 0.05) / 5, r.randint(1, 6)))
        self.docs["fixed"] = FIXED
        self.lams = gen.stratified(r, 3, 1e-3, 0.1, log=True)
        self.binf_systems = ["renewal", "renewal", "fixed"]
        self.levels = gen.stratified(r, 4, 0.1, 0.9)
        self.families = ["mme", "drift", "mixture"]

    def spec(self, name):
        return self.memo(("spec", name), lambda: oracles.LoopSpec(self.docs[name]))

    def entropy(self, name):
        return self.memo(("h", name), lambda: self.spec(name).entropy())

    # -- checks ------------------------------------------------------------

    def _check_classify(self, name, rep):
        self.expect(rep.verdict == "positive-recurrent", f"{name}: verdict {rep.verdict}")
        self.close(rep.entropy, self.entropy(name), f"{name}: classify entropy", 1e-9)

    def _check_entropy(self, name, rep):
        h = self.entropy(name)
        self.close(rep.value, h, f"{name}: Gurevich entropy", 1e-9)
        self.expect(all(v <= h + 1e-9 for _, v in rep.truncations),
                    f"{name}: a truncation has more entropy than the system")

    def _check_pressure(self, name, value, t, q):
        want = self.memo(("p", name, t, q), lambda: self.spec(name).pressure(t, q))
        self.close(value, want, f"{name}: pressure t={t:.4f} q={q}", 1e-8)

    def _check_binf(self, name, rep, lam):
        spec = self.spec(name)
        t_max = max(20.0, 3.0 * math.log(1.0 / lam))
        want = self.memo(("b", name, lam), lambda: spec.b_inf(lam, t_max))
        self.close(rep.value, want, f"{name}: b-inf lam={lam}", 1e-8)
        if name == "renewal":
            closed = -math.log(1 - lam) + lam * math.log((1 - lam) / lam)
            self.close(rep.value, closed, f"renewal: b-inf closed form lam={lam}", 1e-8)
        self.expect(math.log(spec.growth) - 1e-9 <= rep.value <= self.entropy(name) + 1e-9,
                    f"{name}: b-inf {rep.value} outside [log growth, h_top]")

    def _check_mme(self, name, mme):
        spec = self.spec(name)
        self.close(mme.entropy, self.entropy(name), f"{name}: loop MME entropy", 1e-9)
        mean = self.memo(("mean", name), lambda: spec.f_prime_x(spec.root()))
        self.close(mme.expected_length, mean, f"{name}: MME mean loop length", 1e-8)
        self.close(math.fsum(mme.weights.values()), 1.0, f"{name}: MME weights", 1e-12)

    def _check_verify(self, name, family, rep):
        self.expect(rep.slack >= -1e-9, f"{name}: verify-main {family} slack {rep.slack}")
        if family == "mme":
            self.close(rep.lhs, self.entropy(name), f"{name}: mme family lhs", 1e-9)

    def _check_mass(self, name, rep, c):
        h, d = self.entropy(name), math.log(self.spec(name).growth)
        self.expect(rep.satisfied, f"{name}: mass bound not satisfied at c={c}")
        self.close(rep.entropy_top, h, f"{name}: mass-bound h_top", 1e-9)
        self.close(rep.bound, min(max((c - d) / (h - d), 0.0), 1.0), f"{name}: mass floor", 1e-9)

    def _check_hinf(self, name, rep):
        d, h = math.log(self.spec(name).growth), self.entropy(name)
        self.expect(rep.escaping, f"{name}: h-inf windows do not escape")
        self.expect(d - 0.01 <= rep.value <= h + 1e-9, f"{name}: h-inf {rep.value} outside [{d}, {h}]")

    # -- operations --------------------------------------------------------

    def make_ops(self, graphs):
        cm = self.cm
        ops = []
        for name in self.systems + ["bigcounts"]:
            g = graphs[name]
            ops.append(Op("classify", lambda g=g: cm.thermo.classify(g),
                          lambda rep, name=name: self._check_classify(name, rep)))
        for name in self.systems:
            g = graphs[name]
            ops.append(Op("gurevich_entropy", lambda g=g: cm.thermo.gurevich_entropy(g),
                          lambda rep, name=name: self._check_entropy(name, rep)))
            ops.append(Op("loop_mme", lambda g=g: cm.measures.loop_mme(g),
                          lambda m, name=name: self._check_mme(name, m)))
        for name, t, q in self.grid:
            g = graphs[name]
            ops.append(Op("pressure", lambda g=g, t=t, q=q: cm.infinity.pressure_indicator(g, t, q),
                          lambda v, name=name, t=t, q=q: self._check_pressure(name, v, t, q)))
        for name, lam in zip(self.binf_systems, self.lams):
            g = graphs[name]
            ops.append(Op("b_inf", lambda g=g, lam=lam: cm.infinity.b_inf_estimate(g, lam=lam),
                          lambda rep, name=name, lam=lam: self._check_binf(name, rep, lam)))
        for name, level in zip(self.verifiable, self.levels):
            g = graphs[name]
            for family in self.families:
                ops.append(Op("verify_main",
                              lambda g=g, family=family: cm.infinity.verify_main_inequality(g, family=family),
                              lambda rep, name=name, family=family: self._check_verify(name, family, rep)))
            c = self.spec(name).mass_level(level)
            ops.append(Op("mass_bound", lambda g=g, c=c: cm.infinity.mass_bound_check(g, c),
                          lambda rep, name=name, c=c: self._check_mass(name, rep, c)))
            ops.append(Op("h_inf", lambda g=g: cm.infinity.h_inf_lower_bound(g),
                          lambda rep, name=name: self._check_hinf(name, rep)))
        return ops
