"""Workload plumbing: operations, checks and documents."""

import json
import math
import shutil


class Op:
    """One timed call into cmshift and the check of its output.

    ``threaded`` marks a call that runs cmshift's own worker threads; no
    calibration sample is taken inside it (see ``run.run_round``), where it
    would compete with them for the interpreter lock.
    """

    __slots__ = ("name", "call", "check", "threaded")

    def __init__(self, name, call, check, threaded=False):
        self.name, self.call, self.check, self.threaded = name, call, check, threaded


class Workload:
    """Inputs and operations of one workload.

    ``docs`` maps a name to a graph document; ``parse`` turns them into
    cmshift graphs through the program, ``make_ops`` builds the operations of
    one round from those graphs. Checks record mismatches instead of raising,
    so one bad output does not hide the next.
    """

    def __init__(self, rng, cm, run_dir):
        self.rng = rng
        self.cm = cm
        self.run_dir = run_dir
        self.docs = {}
        self.mismatches = []
        self._memo = {}

    def write_docs(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, doc in self.docs.items():
            path = directory / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths.append(path)
        return paths

    def parse(self):
        return {name: self.cm.graphs.load_graph(doc) for name, doc in self.docs.items()}

    def make_ops(self, graphs):
        raise NotImplementedError

    def begin_round(self, index):
        pass

    def end_round(self, index):
        pass

    # -- checking helpers --------------------------------------------------

    def memo(self, key, fn):
        """Oracle values are computed once per run and reused every round."""
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def expect(self, ok, label):
        if not ok:
            self.mismatches.append(label)

    def close(self, got, want, label, tol=1e-9):
        """|got - want| <= tol * max(1, |want|); infinities must match."""
        ok = isinstance(got, (int, float)) and (
            got == want
            if not (math.isfinite(want) and math.isfinite(got))
            else abs(got - want) <= tol * max(1.0, abs(want))
        )
        if not ok:
            self.mismatches.append(f"{label}: got {got!r}, want {want!r}")


def build(name, rng, cm, run_dir):
    if name == "finite":
        from wl_finite import Finite as cls
    elif name == "loops":
        from wl_loops import Loops as cls
    elif name == "escape":
        from wl_escape import Escape as cls
    else:
        from wl_cli import CliBatch as cls
    return cls(rng, cm, run_dir)


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)
