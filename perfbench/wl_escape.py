"""Workload ``escape``: exact escape counts z_n(M, q), escape-rate grids and
the weighted escape (dimension) series, on loop systems and finite graphs.

Nearly all the time goes to the marked-visit count over ``walk_view``
states, which grows steeply with n and falls with the visit budget M.
"""

import math

import gen
import oracles
from harness import Op, Workload


class Escape(Workload):
    def __init__(self, rng, cm, run_dir):
        super().__init__(rng, cm, run_dir)
        r = rng
        self.docs = {"renewal": gen.RENEWAL, "powers": gen.POWERS,
                     "golden": gen.golden_doc(), "full2": gen.full_shift_doc(2)}
        # pure geometric tails c g^l from length 1 (the q = 1 closed form
        # applies)
        self.docs["geo0"] = gen.loop_doc([], 1, 2.0, 1.0)
        self.docs["geo1"] = gen.loop_doc([], 1, 1.0, 3.0)
        self.docs["sys0"] = gen.seeded_loop_doc(r, 1, 2)
        self.docs["sys1"] = gen.seeded_loop_doc(r, 1.5, 1.08)
        for k in range(2):
            self.docs[f"scc{k}"] = gen.random_two_out_doc(r, 8 + 4 * k)
        self.names = list(self.docs)
        # Twelve counts per system. The cost of a count grows like n^4 / M,
        # so sizes sit on a grid over n in [8, 72] and M in [2, 16], paired in
        # sorted order (longer words get larger budgets) and shifted by a
        # fixed fraction of a step per system: together the systems cover the
        # ranges without gaps, and the latency quantiles stay put from seed
        # to seed; the threshold q cycles through 1..6. The seed draws the
        # seeded systems and graphs and the order of the operations.
        self.counts = []
        for i, name in enumerate(self.names):
            phase = i / len(self.names)
            ns = gen.interleaved(12, 8, 73, phase)
            Ms = gen.interleaved(12, 2, 17, phase)
            qs = [1 + (j + i) % 6 for j in range(12)]
            self.counts += [(name, n, M, q) for n, M, q in zip(ns, Ms, qs)]
        r.shuffle(self.counts)
        self.grids = []
        ns = sorted(gen.stratified(r, 6, 16, 40, integer=True))
        lows = sorted(gen.stratified(r, 6, 4, 9.99, integer=True))
        for k, (n, low) in enumerate(zip(ns, lows)):
            Ms = (low, low + r.randint(2, 6))
            qs = tuple(sorted(r.sample(range(1, 5), 2)))
            self.grids.append((self.names[(k * 3) % len(self.names)], Ms, qs, n))
        self.dims = [("renewal", 0.5, 16, 1, 60), ("powers", 0.5, 16, 1, 60)]
        for k, l_max in enumerate(gen.stratified(r, 4, 20, 60, integer=True)):
            name = self.names[(2 + k * 2) % len(self.names)]
            self.dims.append((name, round(r.uniform(0.2, 1.5), 3), r.randint(4, 16), r.randint(1, 3), l_max))

    def oracle_counts(self, name, M, q, n_max):
        return self.memo(("z", name, M, q, n_max),
                         lambda: oracles.escape_counts(self.docs[name], M, q, n_max))

    # -- checks ------------------------------------------------------------

    def _check_counts(self, name, series, M, q, n_max):
        want = self.oracle_counts(name, M, q, n_max)
        self.expect(series.start == 0 and series.counts == want,
                    f"{name}: z_n(M={M}, q={q}) for n <= {n_max} differs from the oracle")
        body = self.docs[name].get("loop_system")
        if q == 1 and body and not body["loops"] and body["tail"]["from_length"] == 1:
            c, g = int(body["tail"]["coeff"]), int(body["tail"]["growth"])
            self.expect(series.counts[-1] == oracles.escape_q1_geometric(c, g, M, n_max),
                        f"{name}: z_{n_max}(M={M}, 1) differs from the closed form")

    def _check_grid(self, name, grid, Ms, qs, n_max):
        rates = []
        for M in Ms:
            for q in qs:
                counts = self.oracle_counts(name, M, q, n_max)
                cell = grid.cells[(M, q)]
                nonzero = sum(1 for c in counts if c)
                rate = oracles.affine_rate(counts)
                self.expect(cell.nonzero == nonzero and cell.empty == (nonzero == 0),
                            f"{name}: delta-inf cell ({M},{q}) support")
                self.close(cell.rate, rate, f"{name}: delta-inf cell ({M},{q}) rate", 1e-9)
                if nonzero:
                    rates.append(rate)
        self.close(grid.headline, min(rates) if rates else float("-inf"), f"{name}: delta-inf headline", 1e-9)

    def _check_dim(self, name, rep, t, m, q, l_max):
        counts = self.oracle_counts(name, m, q, l_max - 2)
        terms = oracles.dimension_terms(counts, t, l_max)
        verdict = oracles.dimension_verdict(terms, l_max)
        self.expect(rep.verdict == verdict, f"{name}: dim-series verdict {rep.verdict}, oracle {verdict}")
        self.close(rep.partial_sum, math.fsum(v for _, v in terms), f"{name}: dim-series sum", 1e-9)
        stock = {"renewal": "convergent", "powers": "diverging"}
        if name in stock and t == 0.5:
            self.expect(rep.verdict == stock[name], f"{name}: dim-series verdict at t=1/2")

    # -- operations --------------------------------------------------------

    def make_ops(self, graphs):
        cm = self.cm
        ops = []
        for name, n, M, q in self.counts:
            g = graphs[name]
            ops.append(Op("escape_count", lambda g=g, M=M, q=q, n=n: cm.counting.escape_count(g, M, q, n),
                          lambda s, name=name, M=M, q=q, n=n: self._check_counts(name, s, M, q, n)))
        for name, Ms, qs, n in self.grids:
            g = graphs[name]
            ops.append(Op("delta_inf", lambda g=g, Ms=Ms, qs=qs, n=n: cm.thermo.delta_inf(g, Ms=Ms, qs=qs, n_max=n),
                          lambda grid, name=name, Ms=Ms, qs=qs, n=n: self._check_grid(name, grid, Ms, qs, n)))
        for name, t, m, q, l_max in self.dims:
            g = graphs[name]
            ops.append(Op("dimension_series",
                          lambda g=g, t=t, m=m, q=q, l_max=l_max: cm.infinity.dimension_series(g, t, m=m, q=q, l_max=l_max),
                          lambda rep, name=name, t=t, m=m, q=q, l_max=l_max: self._check_dim(name, rep, t, m, q, l_max)))
        return ops
