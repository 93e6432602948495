"""Workload ``cli-batch``: many light one-shot ``cmshift`` commands run in
process through ``cli.main``, each on a freshly written graph file and with
``--out`` to a fresh directory, beside a few ``run`` manifests at
``--jobs 2``.

A light call is mostly parser building, graph loading, JSON emit and atomic
file writes. Every report is validated against the frozen output schema and
its numbers are checked against the oracles; one manifest per run is also
replayed at ``--jobs 1`` and its files must be byte-identical.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import gen
import oracles
from harness import Op, Workload, remove_tree

SCHEMA = Path(__file__).resolve().parent.parent / "src" / "cmshift" / "schemas" / "output_schema_v1.json"
CALLS = (("entropy", 14), ("classify", 12), ("spr", 14), ("katok", 12), ("verify-main", 8),
         ("mass-bound", 8), ("dim-series", 12), ("delta-inf", 10), ("h-inf", 10))
MANIFESTS, ENTRIES = 2, 6
FAMILIES = ("constant-mme", "pure-drift", "half-mme-half-drift")


def _num(x):
    """Report numbers: non-finite floats are written as strings."""
    return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}.get(x, x) if isinstance(x, str) else x


class CliBatch(Workload):
    def __init__(self, rng, cm, run_dir):
        super().__init__(rng, cm, run_dir)
        r = rng
        self.schema = json.loads(SCHEMA.read_text())
        pool = {"golden": gen.golden_doc(), "full2": gen.full_shift_doc(2),
                "renewal": gen.RENEWAL, "powers": gen.POWERS}
        for k in range(4):
            pool[f"scc{k}"] = gen.random_two_out_doc(r, 4 + 2 * k)
        # fixed loop systems: the seed moves only the random graphs, the
        # continuous parameters and the order of the calls
        for k, (coeff, growth) in enumerate([(0.5, 1.05), (0.7, 1.09), (0.9, 1.12)]):
            pool[f"ver{k}"] = gen.loop_doc([(2, 1), (3 + k, 1)], 3, coeff, growth)
        pool["int0"] = gen.loop_doc([(1, 1), (4, 2)], 2, 2.0, 1.0)
        pool["int1"] = gen.loop_doc([(2, 1)], 3, 1.0, 2.0)
        self.docs = pool
        finite = [n for n in pool if pool[n]["kind"] == "finite"]
        loops = [n for n in pool if pool[n]["kind"] == "loop_system"]
        verifiable = ["renewal", "powers", "ver0", "ver1", "ver2"]
        self.pick = {"finite": finite, "loops": loops, "any": finite + loops,
                     "verifiable": verifiable, "escaping": verifiable + ["int0", "int1"]}
        self.calls = []
        for command, count in CALLS:
            for k in range(count):
                self.calls.append(self._draw(r, command, k, count))
        r.shuffle(self.calls)
        self.manifests = []
        for m in range(MANIFESTS):
            entries = []
            for e in range(ENTRIES):
                command, count = CALLS[(m * ENTRIES + e) % len(CALLS)]
                entries.append(self._draw(r, command, r.randrange(count), count))
            self.manifests.append(entries)
        self.round_dir = None

    def _draw(self, r, command, k, count):
        """(command, graph name, {flag: value}) for the k-th of `count` calls.

        Graphs cycle through the pool and sizes sit on a grid over their
        range, so every seed runs the same mix of call sizes; the seed draws
        the random graphs and seeded systems, the continuous parameters and
        the order of the calls.
        """

        def grid(lo, hi):
            return lo + (k * (hi - lo + 1)) // count

        def graph(kind):
            names = self.pick[kind]
            return names[k % len(names)]

        if command == "entropy":
            if k % 3:
                return command, graph("finite"), {"n-max": grid(12, 30), "vertex": 1}
            return command, graph("loops"), {"n-max": grid(12, 30)}
        if command in ("classify", "spr"):
            return command, graph("any"), {}
        if command == "katok":
            return command, graph("finite"), {"n-max": grid(4, 10), "delta": round(r.uniform(0.05, 0.5), 4)}
        if command == "verify-main":
            return command, graph("verifiable"), {"family": FAMILIES[k % len(FAMILIES)]}
        if command == "mass-bound":
            return command, graph("verifiable"), {"level": round(r.uniform(0.1, 0.9), 4)}
        if command == "dim-series":
            return command, graph("any"), {"t": round(r.uniform(0.2, 1.5), 3), "n-max": grid(20, 40),
                                           "M": grid(4, 16), "q": 1 + k % 3}
        if command == "delta-inf":
            return command, graph("any"), {"n-max": grid(10, 24), "M": grid(4, 12), "q": "1,2"}
        return command, graph("escaping"), {"steps": 2 + k % 2}

    def spec(self, name):
        return self.memo(("spec", name), lambda: oracles.LoopSpec(self.docs[name]))

    def entropy(self, name):
        doc = self.docs[name]
        if doc["kind"] == "finite":
            return self.memo(("h", name), lambda: oracles.log_spectral_radius(oracles.adjacency(doc)))
        return self.memo(("h", name), lambda: self.spec(name).entropy())

    def delta(self, name):
        if self.docs[name]["kind"] == "finite":
            return -math.inf
        return math.log(self.spec(name).growth)

    def args_of(self, command, name, flags, graph_path):
        """argv for one call; mass-bound's level becomes the entropy c."""
        argv = [command, "--graph", str(graph_path)]
        for key, value in flags.items():
            if key == "level":
                key, value = "t", repr(self.spec(name).mass_level(value))
            argv += [f"--{key}", str(value)]
        return argv

    # -- rounds ------------------------------------------------------------

    def begin_round(self, index):
        """Fresh graph files and output directories for every call."""
        self.round_dir = self.run_dir / f"round{index}"
        gdir = self.round_dir / "graphs"
        gdir.mkdir(parents=True)
        self.argvs = []
        for k, (command, name, flags) in enumerate(self.calls):
            path = gdir / f"call{k}.json"
            path.write_text(json.dumps(self.docs[name]))
            out = self.round_dir / f"call{k}"
            self.argvs.append(self.args_of(command, name, flags, path) + ["--out", str(out)])
        self.manifest_argvs = []
        for m, entries in enumerate(self.manifests):
            mdir = self.round_dir / f"manifest{m}"
            mdir.mkdir()
            commands = []
            for e, (command, name, flags) in enumerate(entries):
                gpath = mdir / f"g{e}.json"
                gpath.write_text(json.dumps(self.docs[name]))
                argv = self.args_of(command, name, flags, gpath.name)
                args = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}
                commands.append({"command": command, "args": args})
            (mdir / "manifest.json").write_text(json.dumps({"commands": commands}))
            self.manifest_argvs.append(["run", str(mdir / "manifest.json"), "--jobs", "2",
                                        "--out", str(mdir / "out")])

    def end_round(self, index):
        if index == 0:
            self._check_jobs_identity()
        remove_tree(self.round_dir)

    def make_ops(self, graphs):
        ops = []
        for k, (command, name, flags) in enumerate(self.calls):
            ops.append(Op(command, lambda k=k: self._main(self.argvs[k]),
                          lambda res, k=k, command=command, name=name, flags=flags:
                          self._check_call(res, k, command, name, flags)))
        for m in range(MANIFESTS):
            ops.append(Op("run", lambda m=m: self._main(self.manifest_argvs[m]),
                          lambda res, m=m: self._check_manifest(res, m), threaded=True))
        return ops

    def _main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cm.cli.main(argv)
        return code, buf.getvalue()

    # -- checks ------------------------------------------------------------

    def _check_call(self, res, k, command, name, flags):
        code, text = res
        label = f"call{k} {command} {name}"
        self.expect(code == 0, f"{label}: exit code {code}")
        out = self.round_dir / f"call{k}"
        report_text = (out / "report.json").read_text()
        self.expect(report_text == text, f"{label}: stdout and report.json differ")
        self._check_report(label, json.loads(report_text), out, command, name, flags)

    def _check_manifest(self, res, m):
        code, text = res
        label = f"manifest{m}"
        self.expect(code == 0, f"{label}: exit code {code}")
        doc = json.loads(text)
        self._check_schema(label, doc, "run")
        entries = doc["result"]["entries"]
        self.expect(doc["result"]["count"] == ENTRIES and all(e["ok"] for e in entries),
                    f"{label}: entries not all ok")
        root = self.round_dir / f"manifest{m}" / "out"
        for e, (command, name, flags) in zip(entries, self.manifests[m]):
            sub = root / e["dir"]
            self._check_report(f"{label}/{e['dir']}", json.loads((sub / "report.json").read_text()),
                               sub, command, name, flags)

    def _check_jobs_identity(self):
        mdir = self.round_dir / "manifest0"
        code = self._main(["run", str(mdir / "manifest.json"), "--jobs", "1", "--out", str(mdir / "out1")])[0]
        a = {p.relative_to(mdir / "out"): p.read_bytes() for p in (mdir / "out").rglob("*") if p.is_file()}
        b = {p.relative_to(mdir / "out1"): p.read_bytes() for p in (mdir / "out1").rglob("*") if p.is_file()}
        self.expect(code == 0 and a == b, "manifest0: outputs differ between --jobs 1 and --jobs 2")

    def _check_schema(self, label, doc, command):
        self.expect(set(doc) == {"schema", "command", "params", "result", "error"}
                    and doc["schema"] == self.schema["$id"] and doc["command"] == command
                    and doc["error"] is None and isinstance(doc["params"], dict),
                    f"{label}: envelope does not match the schema")
        declared = {f.split(" ")[0].rstrip(":") for f in self.schema["results"][command]["fields"]}
        optional = {f.split(" ")[0] for f in self.schema["results"][command]["fields"] if "(only" in f}
        got = set(doc["result"] or {})
        self.expect(declared - optional <= got <= declared, f"{label}: result fields {sorted(got)}")

    def _check_tables(self, label, out, command):
        tables = self.schema["results"][command]["tables"]
        for path in out.iterdir():
            if path.name == "report.json":
                continue
            self.expect(path.name in tables, f"{label}: undeclared table {path.name}")
            if path.name in tables:
                header = path.read_text().splitlines()[0].split(",")
                want = tables[path.name]
                fixed = want if path.name != "grid.csv" else want[:1]
                self.expect(header[: len(fixed)] == fixed, f"{label}: {path.name} header {header}")

    def _check_report(self, label, doc, out, command, name, flags):
        self._check_schema(label, doc, command)
        self._check_tables(label, out, command)
        res = doc["result"]
        if res is None:
            return
        h = self.entropy(name)
        d = self.delta(name)
        if command in ("entropy", "classify"):
            got = res["value"] if command == "entropy" else res["entropy"]
            self.close(got, h, f"{label}: entropy", 1e-9)
            if command == "classify":
                self.expect(res["verdict"] == "positive-recurrent", f"{label}: verdict {res['verdict']}")
            if "vertex" in flags:
                self._check_loop_counts(label, out, name, flags["n-max"])
        elif command == "spr":
            self.close(res["entropy"], h, f"{label}: entropy", 1e-9)
            self.close(_num(res["delta_inf"]), d, f"{label}: delta_inf", 1e-12)
            self.expect(res["spr"] == (h - d > res["threshold"]), f"{label}: spr verdict")
        elif command == "katok":
            self._check_katok(label, res, name, flags)
        elif command == "verify-main":
            self.expect(res["ok"] and all(f["slack"] >= -1e-9 for f in res["families"]),
                        f"{label}: slack below -1e-9")
        elif command == "mass-bound":
            self.expect(res["satisfied"] is True, f"{label}: mass bound not satisfied")
            self.close(res["entropy_top"], h, f"{label}: h_top", 1e-9)
        elif command == "dim-series":
            n_max = flags["n-max"]
            counts = self.memo(("z", name, flags["M"], flags["q"], n_max - 2), lambda: oracles.escape_counts(
                self.docs[name], flags["M"], flags["q"], n_max - 2))
            terms = oracles.dimension_terms(counts, flags["t"], n_max)
            self.expect(res["verdict"] == oracles.dimension_verdict(terms, n_max), f"{label}: verdict")
            self.close(res["partial_sum"], math.fsum(v for _, v in terms), f"{label}: partial sum", 1e-9)
        elif command == "delta-inf":
            rates = []
            for cell in res["cells"]:
                counts = self.memo(("z", name, cell["M"], cell["q"], flags["n-max"]), lambda cell=cell:
                                   oracles.escape_counts(self.docs[name], cell["M"], cell["q"], flags["n-max"]))
                rate = oracles.affine_rate(counts)
                self.close(_num(cell["rate"]), rate, f"{label}: cell rate", 1e-9)
                if any(counts):
                    rates.append(rate)
            self.close(_num(res["headline"]), min(rates) if rates else -math.inf, f"{label}: headline", 1e-9)
        elif command == "h-inf":
            self.expect(res["escaping"] and d - 0.01 <= res["value"] <= h + 1e-9, f"{label}: h-inf value")

    def _check_loop_counts(self, label, out, name, n_max):
        adj = oracles.adjacency(self.docs[name]).astype(object)
        want = self.memo(("closed", name, n_max), lambda: _closed_walks(adj, n_max))
        rows = (out / "counts.csv").read_text().splitlines()[1:]
        got = [int(row.split(",")[1]) for row in rows]
        self.expect(got == want, f"{label}: loop counts differ from A^n[1,1]")

    def _check_katok(self, label, res, name, flags):
        n_max, delta = flags["n-max"], flags["delta"]
        pi, P = self.memo(("parry", name), lambda: _parry(oracles.adjacency(self.docs[name])))
        counts = [int(c) for c in res["counts"]["counts"]]
        for n, value in zip(range(1, n_max + 1), counts):
            lo, hi = self.memo(("cover", name, n, delta),
                               lambda n=n: oracles.cover_bounds(oracles.word_masses(pi, P, n), delta))
            self.expect(lo <= value <= hi, f"{label}: N({n},{delta}) = {value}, brute force [{lo},{hi}]")
        self.close(res["rate"], oracles.affine_rate(counts, start=1), f"{label}: covering rate", 1e-9)


def _closed_walks(adj, n_max):
    out = []
    power = np.identity(adj.shape[0], dtype=object)
    for _ in range(n_max):
        power = power.dot(adj)
        out.append(int(power[0, 0]))
    return out


def _parry(adj):
    """The maximal-entropy chain from the Perron eigenvectors of A."""
    vals, right = np.linalg.eig(adj)
    k = int(np.argmax(vals.real))
    lam = vals[k].real
    v = np.abs(right[:, k].real)
    vals_l, left = np.linalg.eig(adj.T)
    u = np.abs(left[:, int(np.argmax(vals_l.real))].real)
    P = adj * v[None, :] / (lam * v[:, None])
    pi = u * v / np.dot(u, v)
    return pi, P
