"""Spans around the calls into each cmshift layer, for the traced run.

``Tracer.install`` replaces each traced function by a wrapper wherever the
function is looked up: on its class for methods, and in every cmshift
module that binds the same function object for plain functions (``thermo``
imports ``escape_count`` by name, ``counting`` imports ``walk_view``).
``uninstall`` puts the originals back.

A span is (id, name, layer, start, end, parent, thread). Spans of one thread
nest through a per-thread stack; a span opened on a worker thread with an
empty stack takes the innermost open span of the main thread as its parent,
so the entries of ``cmshift run --jobs N`` hang under the runner. Spans stay
in memory and are written out when the run ends.

A layer's self time is the sum over its spans of the span's duration minus
the part of that interval its child spans cover.
"""

import json
import threading
import time

# (module, owner attribute or None, function name, span name, layer)
TARGETS = [
    ("graphs", None, "load_graph", "graphs.load", "graphs"),
    ("graphs", "FiniteGraph", "truncate", "graphs.truncate", "graphs"),
    ("graphs", "LoopSystem", "truncate", "graphs.truncate", "graphs"),
    ("graphs", "Enumeration", "__init__", "graphs.enumeration", "graphs"),
    ("graphs", None, "walk_view", "graphs.walk_view", "graphs"),
    ("counting", None, "escape_count", "counting.escape_count", "counting"),
    ("counting", None, "loop_count", "counting.loop_count", "counting"),
    ("counting", None, "first_return_count", "counting.first_return_count", "counting"),
    ("counting", None, "growth_rate", "counting.growth_rate", "counting"),
    ("thermo", None, "perron_root", "thermo.perron_root", "thermo"),
    ("thermo", "LoopGF", "value_bounds", "thermo.value_bounds", "thermo"),
    ("thermo", "LoopGF", "x_star", "thermo.x_star", "thermo"),
    ("thermo", None, "gurevich_entropy", "thermo.gurevich_entropy", "thermo"),
    ("thermo", None, "classify", "thermo.classify", "thermo"),
    ("thermo", None, "is_spr", "thermo.is_spr", "thermo"),
    ("thermo", None, "delta_inf", "thermo.delta_inf", "thermo"),
    ("infinity", None, "pressure_indicator", "infinity.pressure", "infinity"),
    ("infinity", None, "b_inf_estimate", "infinity.b_inf", "infinity"),
    ("infinity", None, "verify_main_inequality", "infinity.verify_main", "infinity"),
    ("infinity", None, "mass_bound_check", "infinity.mass_bound", "infinity"),
    ("infinity", None, "h_inf_lower_bound", "infinity.h_inf", "infinity"),
    ("infinity", None, "dimension_series", "infinity.dimension_series", "infinity"),
    ("measures", None, "parry_measure", "measures.parry", "measures"),
    ("measures", None, "markov_measure", "measures.markov", "measures"),
    ("measures", None, "loop_mme", "measures.loop_mme", "measures"),
    ("measures", None, "tail_parry_measure", "measures.tail_parry", "measures"),
    ("measures", None, "cylinder_limit", "measures.cylinder_limit", "measures"),
    ("measures", None, "rho_distance", "measures.rho_distance", "measures"),
    ("katok", None, "covering_number", "katok.covering_number", "katok"),
    ("katok", None, "katok_estimate", "katok.katok_estimate", "katok"),
    ("density", None, "concatenated_system", "density.concatenated_system", "density"),
    ("density", None, "concatenated_measure", "density.concatenated_measure", "density"),
    ("density", None, "two_component_demo", "density.two_component_demo", "density"),
    ("cli", None, "main", "cli.main", "cli"),
    ("cli", None, "_build_parser", "cli.parser", "cli"),
    ("cli", None, "_cmd_run", "cli.run", "cli"),
    ("cli", None, "_run_entry", "cli.run_entry", "cli"),
    ("cli", None, "_emit", "cli.emit", "cli"),
    ("cli", None, "_write_atomic", "cli.write", "cli"),
]

# cylinder_mass is called too often for a span each; it is only counted
COUNTED = [
    ("measures", "MarkovMeasure", "cylinder_mass"),
    ("measures", "LoopMarkovMeasure", "cylinder_mass"),
    ("measures", "MixtureMeasure", "cylinder_mass"),
    ("measures", "_PeriodicOrbitMeasure", "cylinder_mass"),
    ("density", "LabeledMarkovMeasure", "cylinder_mass"),
]

MODULES = ("graphs", "counting", "thermo", "infinity", "measures", "katok", "density", "cli")


def _view_info(args, kwargs, view):
    return {"states": view.state_count, "edges": len(view.edges)}


def _escape_info(args, kwargs, series):
    return {"M": series.meta["M"], "n_max": series.start + len(series.counts) - 1}


def _parry_info(args, kwargs, chain):
    return {"states": chain.graph.symbols}


def _cover_info(args, kwargs, value):
    measure, graph, n = args[:3]
    return {"value": value, "measure": measure, "n": n}


def _system_info(args, kwargs, system):
    return {"states": system.graph.symbols}


def _write_info(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"bytes": len(data.encode("utf-8"))}


# facts about a call that the per-layer counts are computed from; taken
# from the arguments and result after the span has closed
INFO = {
    "graphs.walk_view": _view_info,
    "counting.escape_count": _escape_info,
    "measures.parry": _parry_info,
    "katok.covering_number": _cover_info,
    "density.concatenated_system": _system_info,
    "cli.write": _write_info,
}


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "thread", "info")

    def to_json(self):
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
        }


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = {}
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self
        info = INFO.get(name)

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1].id
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1].id if main and tid != tracer._main else None
            span = Span()
            with tracer._lock:
                span.id = len(tracer.spans)
                tracer.spans.append(span)
            span.name, span.layer, span.parent, span.thread = name, layer, parent, tid
            span.info = None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, key):
        counts, lock = self.counts, self._lock

        def counted(*args, **kwargs):
            with lock:
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return {m: getattr(self.package, m) for m in MODULES}

    def install(self):
        mods = self._modules()
        for mod, owner, attr, name, layer in TARGETS:
            if owner is not None:
                cls = getattr(mods[mod], owner)
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, layer))
                continue
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(original, name, layer)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for mod, owner, attr in COUNTED:
            cls = getattr(mods[mod], owner)
            self._patch(cls, attr, self._counter(cls.__dict__[attr], "cylinder_mass"))

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches = []

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """{span id: self time}, children covering part of a span's interval
        (on any thread) counted once."""
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            kids = sorted(
                (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
            )
            cur_lo = cur_hi = None
            for lo, hi in kids:
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.id] = (s.end - s.start) - covered
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [s.to_json() for s in self.spans], "counts": self.counts},
                fh,
            )
