"""Workload ``finite``: Perron roots, Parry chains, finite-graph pressures,
the density construction and Katok covering numbers on finite graphs.

Inputs mix slowly mixing graphs (concatenated block systems and whole-loop
truncations of loop systems) with random sparse strongly connected graphs.
"""

import math

import numpy as np

import gen
import oracles
from harness import Op, Workload

GOLD_ENTROPY = math.log((1 + math.sqrt(5)) / 2)


def _graph_doc(graph):
    """Document form of a simple cmshift FiniteGraph built by the program."""
    return gen.finite_doc(graph.symbols, graph.edge_multiplicities())


class Finite(Workload):
    def __init__(self, rng, cm, run_dir):
        super().__init__(rng, cm, run_dir)
        r = rng
        self.docs = {"full2": gen.full_shift_doc(2), "golden": gen.golden_doc(),
                     "full3": gen.full_shift_doc(3)}
        # Integer sizes are drawn with one stratum per integer, so every size
        # in the range appears once and only the pairings move with the
        # seed; that keeps the work of a round nearly seed-independent.
        # Concatenated block systems over the full 2-shift (golden-mean and
        # full blocks, M = 4 slots), one per block length n in 6..15.
        self.concat = [(n, 4) for n in gen.stratified(r, 10, 6, 15.99, integer=True)]
        self.demos = list(zip(gen.stratified(r, 4, 6, 9.99, integer=True),
                              gen.stratified(r, 4, 3, 6.99, integer=True)))
        # whole-loop truncations at q = 16, 32, 48 of stock-like loop systems
        # with simple presentations: slowly mixing, one long cycle per loop
        self.truncs = []
        systems = [gen.RENEWAL, gen.loop_doc([(2, 1)], 3, 2.0, 1.0), gen.loop_doc([(1, 1), (3, 1)], 2, 1.0, 1.0)]
        for k, q in enumerate((16, 32, 48)):
            self.docs[f"loops{k}"] = systems[k]
            self.truncs.append((f"loops{k}", gen.whole_loop_boundary(systems[k], q)))
        # random sparse strongly connected graphs, two out-edges a vertex,
        # four of each size 4..15, with one pressure each; every other one
        # also gets the covering number of its Parry chain at n = 6..14,
        # growing with the size. Their costs move with the drawn graph, so
        # many small ones keep the latency quantiles from moving with the seed
        self.randoms = []
        for k in range(48):
            self.docs[f"scc{k}"] = gen.random_two_out_doc(r, 4 + k // 4)
            self.randoms.append(f"scc{k}")
        self.t_values = gen.stratified(r, 54, 0.05, 2.0)
        self.scc_n = [6 + (k * 9) // 48 for k in range(48)]
        self.half_n = gen.stratified(r, 10, 8, 17.99, integer=True)
        self.gold_n = gen.stratified(r, 12, 9, 20.99, integer=True)
        self.full3_n = gen.stratified(r, 6, 6, 11.99, integer=True)
        self.deltas = gen.stratified(r, 52, 0.05, 0.5)
        self.full3_p = [r.uniform(0.15, 0.5) for _ in range(3)]

    # -- checks ------------------------------------------------------------

    def _check_chain(self, label, chain, doc):
        adj = oracles.adjacency(doc)
        rows, stat, off = oracles.markov_chain_defects(chain.pi, chain.P, adj)
        self.expect(rows < 1e-9 and stat < 1e-8 and off == 0.0,
                    f"{label}: chain defects rows={rows} stationary={stat} off-graph={off}")
        want = self.memo(("logrho", label), lambda: oracles.log_spectral_radius(adj))
        self.close(chain.entropy, want, f"{label}: Parry entropy vs log rho(A)", 1e-9)
        self.close(oracles.chain_entropy(chain.pi, chain.P), want, f"{label}: chain entropy", 1e-9)

    def _check_perron(self, label, value, doc):
        adj = oracles.adjacency(doc)
        want = self.memo(("logrho", label), lambda: oracles.log_spectral_radius(adj))
        self.close(math.log(value), want, f"{label}: perron root", 1e-9)

    def _check_pressure(self, label, value, doc, t, q):
        want = self.memo(("press", label, t, q), lambda: oracles.finite_pressure(doc, t, q))
        self.close(value, want, f"{label}: pressure t={t} q={q}", 1e-8)

    def _check_cover(self, label, value, pi, P, n, delta):
        lo, hi = self.memo(("cover", label, n, delta),
                           lambda: oracles.cover_bounds(oracles.word_masses(pi, P, n), delta))
        self.expect(lo <= value <= hi, f"{label}: N({n},{delta}) = {value}, brute force [{lo},{hi}]")

    def _check_half(self, value, n, delta):
        want = oracles.bernoulli_half_cover(n, delta)
        self.expect(value == want, f"bernoulli(1/2): N({n},{delta}) = {value}, want {want}")

    def _check_system(self, label, system, n, M):
        supports = [self.docs["golden"], self.docs["full2"]]
        want = [oracles.block_count(supports[s % 2], 1, n) for s in range(M)]
        self.expect(list(system.block_counts) == want,
                    f"{label}: block counts {system.block_counts} vs {want}")

    def _check_demo(self, label, rep, n, M):
        counts = [oracles.block_count(d, 1, n) for d in (self.docs["golden"], self.docs["full2"])]
        counts = [counts[s % 2] for s in range(M)]
        self.expect(list(rep.block_counts) == counts, f"{label}: block counts")
        built = math.fsum(math.log(c) for c in counts) / (M * n)
        self.close(rep.entropy_built, built, f"{label}: entropy of the block system", 1e-9)
        self.close(rep.entropy_target, 0.5 * GOLD_ENTROPY + 0.5 * math.log(2), f"{label}: target", 1e-9)
        self.close(rep.gap, abs(built - rep.entropy_target), f"{label}: gap", 1e-8)
        self.expect(0.0 <= rep.rho <= 1.0, f"{label}: rho {rep.rho} outside [0, 1]")

    def _check_truncation(self, label, trunc, doc, q):
        spec = oracles.LoopSpec(doc)
        edges = set()
        if spec.count(1):
            edges.add((1, 1))
        for length, first in spec.loop_rows(q):
            last = first + length - 2
            if last > q:
                continue
            edges.add((1, first))
            edges.update((v, v + 1) for v in range(first, last))
            edges.add((last, 1))
        got = trunc.as_graph()
        self.expect(trunc.vertex_count == q and set(got.edge_multiplicities()) == edges,
                    f"{label}: truncation at {q} has the wrong edges")

    # -- operations --------------------------------------------------------

    def make_ops(self, graphs):
        cm = self.cm
        ops = []
        ts = iter(self.t_values)
        deltas = iter(self.deltas)

        def finite_ops(label, graph, doc, pressures):
            chain_doc = doc
            ops.append(Op("parry", lambda: cm.measures.parry_measure(graph),
                          lambda c: self._check_chain(label, c, chain_doc)))
            ops.append(Op("perron", lambda: cm.thermo.perron_root(graph),
                          lambda v: self._check_perron(label, v, chain_doc)))
            for _ in range(pressures):
                t = next(ts)
                q = 1 + int(t * 7) % max(1, graph.symbols // 2)
                ops.append(Op("pressure", lambda t=t, q=q: cm.infinity.pressure_indicator(graph, t, q),
                              lambda v, t=t, q=q: self._check_pressure(label, v, chain_doc, t, q)))

        full2, golden = graphs["full2"], graphs["golden"]
        for k, (n, M) in enumerate(self.concat):
            label = f"concat{k}(n={n})"
            built = cm.density.concatenated_system(full2, [golden, full2], n=n, M=M)
            ops.append(Op("concatenated_system",
                          lambda n=n, M=M: cm.density.concatenated_system(full2, [golden, full2], n=n, M=M),
                          lambda s, label=label, n=n, M=M: self._check_system(label, s, n, M)))
            # no pressure here: the block system has period M*n, where the
            # pressure's power iteration reaches its cap before converging
            finite_ops(label, built.graph, _graph_doc(built.graph), 0)
        for k, (n, depth) in enumerate(self.demos):
            label = f"demo{k}(n={n})"
            ops.append(Op("density_demo",
                          lambda n=n, depth=depth: cm.density.two_component_demo(n=n, M=4, depth=depth),
                          lambda rep, label=label, n=n: self._check_demo(label, rep, n, 4)))
        for name, q in self.truncs:
            system, doc = graphs[name], self.docs[name]
            label = f"{name}@{q}"
            ops.append(Op("truncate", lambda system=system, q=q: system.truncate(q),
                          lambda tr, label=label, doc=doc, q=q: self._check_truncation(label, tr, doc, q)))
            graph = system.truncate(q).as_graph()
            finite_ops(label, graph, _graph_doc(graph), 2)
        for k, (name, n) in enumerate(zip(self.randoms, self.scc_n)):
            graph, doc = graphs[name], self.docs[name]
            finite_ops(name, graph, doc, 1)
            if k % 2:
                continue
            chain = cm.measures.parry_measure(graph)
            delta = next(deltas)
            ops.append(Op("covering", lambda graph=graph, chain=chain, n=n, delta=delta:
                          cm.katok.covering_number(chain, graph, n, delta),
                          lambda v, name=name, chain=chain, n=n, delta=delta:
                          self._check_cover(name, v, chain.pi, chain.P, n, delta)))
        half = cm.measures.bernoulli_measure(full2, (0.5, 0.5))
        for n in self.half_n:
            delta = next(deltas)
            ops.append(Op("covering", lambda n=n, delta=delta: cm.katok.covering_number(half, full2, n, delta),
                          lambda v, n=n, delta=delta: self._check_half(v, n, delta)))
        gold_chain = cm.measures.parry_measure(golden)
        self._check_chain("golden", gold_chain, self.docs["golden"])
        for n in self.gold_n:
            delta = next(deltas)
            ops.append(Op("covering", lambda n=n, delta=delta:
                          cm.katok.covering_number(gold_chain, golden, n, delta),
                          lambda v, n=n, delta=delta:
                          self._check_cover("golden", v, gold_chain.pi, gold_chain.P, n, delta)))
        full3 = graphs["full3"]
        p = np.array(self.full3_p) / sum(self.full3_p)
        bern = cm.measures.bernoulli_measure(full3, p)
        P = np.tile(p, (3, 1))
        for n in self.full3_n:
            delta = next(deltas)
            ops.append(Op("covering", lambda n=n, delta=delta: cm.katok.covering_number(bern, full3, n, delta),
                          lambda v, n=n, delta=delta: self._check_cover("bernoulli3", v, p, P, n, delta)))
        return ops
