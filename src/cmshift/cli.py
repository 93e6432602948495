"""Command-line surface and batch experiment runner.

One subcommand per top-level quantity or verification.  Every command
prints a JSON report (schema ``cmshift/output/v1``, shipped in
``schemas/output_schema_v1.json``) and, with ``--out DIR``, writes the
report plus tidy CSV tables into the directory.  Exit codes: 0 success,
2 validation/schema error, 3 inconclusive verdict under ``--strict``.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

from . import counting, density, infinity, katok, measures, thermo
from .errors import CmshiftError, SchemaError, ValidationError
from .graphs import FiniteGraph, load_graph_file

SCHEMA_ID = "cmshift/output/v1"

_FAMILIES = {
    "constant-mme": "mme",
    "pure-drift": "drift",
    "half-mme-half-drift": "mixture",
}


def _jsonable(x):
    """Recursively coerce to strict-JSON values (non-finite floats become
    the strings "inf"/"-inf"/"nan")."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        if math.isfinite(x):
            return x
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


def _int_list(text):
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated list of integers: {text!r}") from exc
    if not values:
        raise ValidationError("the integer list is empty")
    return values


def _finite_float(text):
    """The type of every float flag. A value that is not a finite number
    raises ValidationError, which argparse lets through to the caller."""
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {text!r}")
    return value


def _graph(args):
    if not getattr(args, "graph", None):
        raise ValidationError("--graph PATH is required", field="graph")
    return load_graph_file(args.graph)


# ---------------------------------------------------------------------------
# command runners: each returns (result dict, {csv filename: rows})


def _cmd_entropy(args):
    g = _graph(args)
    rep = thermo.gurevich_entropy(g, n_max=args.n_max)
    result = {
        "value": rep.value,
        "method": rep.method,
        "count_rate": rep.count_rate,
        "truncations": [[q, v] for q, v in rep.truncations],
    }
    tables = {}
    if rep.truncations and rep.method != "perron":
        tables["trace.csv"] = [["q", "estimate"]] + [
            [q, repr(v)] for q, v in rep.truncations
        ]
    if args.vertex is not None:
        series = counting.loop_count(g, args.vertex, args.n_max)
        est = counting.growth_rate(series)
        result["count_rate"] = est.rate
        result["count_vertex"] = args.vertex
        tables["counts.csv"] = series.to_csv_rows()
    return result, tables


def _cmd_delta_inf(args):
    g = _graph(args)
    Ms, qs = _int_list(args.M), _int_list(args.q)
    grid = thermo.delta_inf(g, Ms=tuple(Ms), qs=tuple(qs), n_max=args.n_max)
    result = grid.to_json()
    rows = [["M\\q"] + [str(q) for q in qs]]
    for m in Ms:
        row = [str(m)]
        for q in qs:
            cell = grid.cells.get((m, q))
            row.append("" if cell is None or cell.empty else repr(cell.rate))
        rows.append(row)
    return result, {"grid.csv": rows}


def _cmd_classify(args):
    return dataclasses.asdict(thermo.classify(_graph(args))), {}


def _cmd_spr(args):
    return dataclasses.asdict(thermo.is_spr(_graph(args))), {}


def _cmd_b_inf(args):
    rep = infinity.b_inf_estimate(_graph(args), lam=args.delta, q=args.q)
    return dataclasses.asdict(rep), {}


def _cmd_h_inf(args):
    rep = infinity.h_inf_lower_bound(_graph(args), count=args.steps)
    rows = [["lo", "hi", "entropy", "base_mass"]]
    for (lo, hi), h, b in zip(rep.windows, rep.entropies, rep.base_masses):
        rows.append([lo, hi, repr(h), repr(b)])
    return dataclasses.asdict(rep), {"windows.csv": rows}


def _cmd_katok(args):
    g = _graph(args)
    if not isinstance(g, FiniteGraph):
        raise ValidationError(
            "covering numbers need a finite graph; truncate the system first",
            field="graph",
        )
    mu = measures.parry_measure(g)
    rep = katok.katok_estimate(mu, g, delta=args.delta, n_max=args.n_max)
    result = {
        "rate": rep.rate,
        "delta": rep.delta,
        "window": list(rep.window),
        "counts": rep.counts.to_json(),
    }
    return result, {"counts.csv": rep.counts.to_csv_rows()}


def _cmd_verify_main(args):
    g = _graph(args)
    if args.family == "all":
        names = list(_FAMILIES)
    elif args.family in _FAMILIES:
        names = [args.family]
    else:
        raise ValidationError(
            f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)} or all",
            field="family",
        )
    families = []
    ok = True
    for name in names:
        rep = infinity.verify_main_inequality(g, family=_FAMILIES[name], count=args.steps)
        ok = ok and rep.slack >= -1e-9
        families.append(
            {
                "family": name,
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "slack": rep.slack,
                "mass": rep.mass,
                "limit_entropy": rep.limit_entropy,
                "delta_inf": rep.delta_inf,
                "entropies": list(rep.entropies),
            }
        )
    rows = [["family", "lhs", "rhs", "slack", "mass"]] + [
        [f["family"], repr(f["lhs"]), repr(f["rhs"]), repr(f["slack"]), repr(f["mass"])]
        for f in families
    ]
    return {"families": families, "ok": ok}, {"families.csv": rows}


def _cmd_mass_bound(args):
    g = _graph(args)
    c = args.t
    if c is None:
        c = 0.5 * thermo.pressure(g)
    rep = infinity.mass_bound_check(g, c=c)
    return dataclasses.asdict(rep), {}


def _cmd_dim_series(args):
    g = _graph(args)
    rep = infinity.dimension_series(g, t=args.t, m=args.M, q=args.q, l_max=args.n_max)
    rows = [["l", "term"]] + [[l, repr(term)] for l, term in rep.terms]
    return dataclasses.asdict(rep), {"terms.csv": rows}


def _cmd_density_demo(args):
    rep = density.two_component_demo(n=args.n_max, M=args.M, depth=args.depth)
    return dataclasses.asdict(rep), {}


_COMMANDS = {
    "entropy": _cmd_entropy,
    "delta-inf": _cmd_delta_inf,
    "classify": _cmd_classify,
    "spr": _cmd_spr,
    "b-inf": _cmd_b_inf,
    "h-inf": _cmd_h_inf,
    "katok": _cmd_katok,
    "verify-main": _cmd_verify_main,
    "mass-bound": _cmd_mass_bound,
    "dim-series": _cmd_dim_series,
    "density-demo": _cmd_density_demo,
}


def _strict_verdict(command, result):
    """The verdict --strict turns into exit code 3 when inconclusive."""
    if command in ("classify", "dim-series"):
        return result.get("verdict")
    return None


# ---------------------------------------------------------------------------
# output plumbing


def _write_atomic(path, data):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report, tables, out_dir, stdout=True):
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    if stdout:
        print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, "report.json"), text + "\n")
        for name, rows in tables.items():
            buf = []
            for row in rows:
                buf.append(",".join(str(x) for x in row))
            _write_atomic(os.path.join(out_dir, name), "\n".join(buf) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


class _EntryParser(argparse.ArgumentParser):
    """Parser for manifest entries: errors raise instead of printing and
    exiting, so a bad entry ends the run with an error report."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _build_parser(parser_class=argparse.ArgumentParser):
    """The argument tree of a parser class, built on first use and shared by
    every later call (a manifest parses all its entries with one): parsing
    writes only into a fresh Namespace."""
    parser = parser_class(
        prog="cmshift",
        description="Entropy, escape of mass, and verification for countable Markov shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("--graph", help="path to a graph spec JSON document")
        p.add_argument("--out", help="directory for report.json and CSV tables")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when the verdict is inconclusive")

    p = sub.add_parser("entropy", help="Gurevich entropy")
    common(p)
    p.add_argument("--n-max", type=int, default=40, help="longest walk (default %(default)s)")
    p.add_argument("--vertex", type=int, help="also fit the loop-count growth at this vertex")

    p = sub.add_parser("delta-inf", help="escape-rate grid and headline")
    common(p)
    p.add_argument("--M", default="8,16",
                   help="comma-separated visit budgets (default %(default)s)")
    p.add_argument("--q", default="1,2,4",
                   help="comma-separated finite parts (default %(default)s)")
    p.add_argument("--n-max", type=int, default=40, help="longest walk (default %(default)s)")

    p = sub.add_parser("classify", help="recurrence classification")
    common(p)

    p = sub.add_parser("spr", help="strong positive recurrence verdict")
    common(p)

    p = sub.add_parser("b-inf", help="dual bound on entropy at infinity")
    common(p)
    p.add_argument("--delta", type=_finite_float, default=1e-3,
                   help="mass level lam (default %(default)s)")
    p.add_argument("--q", type=int, default=1, help="finite part (default %(default)s)")

    p = sub.add_parser("h-inf", help="escaping-measure entropy estimate")
    common(p)
    p.add_argument("--steps", type=int, default=4, help="number of windows, at most "
                   f"{infinity.MAX_WINDOWS} (default %(default)s)")

    p = sub.add_parser("katok", help="covering-number entropy of the maximal measure")
    common(p)
    p.add_argument("--delta", type=_finite_float, default=0.1,
                   help="covering level (default %(default)s)")
    p.add_argument("--n-max", type=int, default=16, help="longest word (default %(default)s)")

    p = sub.add_parser("verify-main", help="escape-of-mass inequality harness")
    common(p)
    p.add_argument("--family", default="all", help="constant-mme | pure-drift | "
                   "half-mme-half-drift | all (default %(default)s)")
    p.add_argument("--steps", type=int, default=6, help="schedule length, at most "
                   f"{infinity.MAX_DRIFT_STEPS} (default %(default)s)")

    p = sub.add_parser("mass-bound", help="limit-mass floor at entropy level c")
    common(p)
    p.add_argument("--t", type=_finite_float, help="entropy level c (default h_top/2)")

    p = sub.add_parser("dim-series", help="weighted escape series verdict")
    common(p)
    p.add_argument("--t", type=_finite_float, default=0.5,
                   help="dimension parameter (default %(default)s)")
    p.add_argument("--M", type=int, default=16, help="visit budget m (default %(default)s)")
    p.add_argument("--q", type=int, default=1, help="finite part (default %(default)s)")
    p.add_argument("--n-max", type=int, default=60, help="longest term (default %(default)s)")

    p = sub.add_parser("density-demo", help="two-component ergodic approximation")
    common(p, graph=False)
    p.add_argument("--n-max", type=int, default=64, help="block length n (default %(default)s)")
    p.add_argument("--M", type=int, default=4, help="number of slots (default %(default)s)")
    p.add_argument("--depth", type=int, default=6, help="rho cylinder depth (default %(default)s)")

    p = sub.add_parser("run", help="run a manifest of commands")
    common(p, graph=False)
    p.add_argument("manifest", help="path to a run-manifest JSON file")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for older scripts; entries run in order (default %(default)s)")

    return parser


# ---------------------------------------------------------------------------
# the manifest runner


def _object(doc, key, field):
    """doc[key] when it is a JSON object, {} when it is missing or null;
    SchemaError naming `field` otherwise."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(f"field {field!r} must be an object", field=field)
    return value


def _run_entry(index, entry, base_dir, out_root, defaults):
    if not isinstance(entry, dict):
        raise SchemaError(
            f"manifest entry {index} must be an object", field=f"commands[{index}]"
        )
    command = entry.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValidationError(
            f"manifest entry {index}: unknown command {command!r}",
            field=f"commands[{index}].command",
        )
    merged = dict(defaults)
    merged.update(_object(entry, "args", f"commands[{index}].args"))
    argv = [command]
    for key, value in merged.items():
        flag = "--" + str(key)
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        if key == "graph":
            value = os.path.join(base_dir, str(value))
        # one token: argparse takes a separate "-1e-05" for an option
        argv.append(f"{flag}={value}")
    try:
        args = _build_parser(_EntryParser).parse_args(argv)
    except ValidationError as exc:
        raise ValidationError(
            f"manifest entry {index}: {exc.message}", field=f"commands[{index}].args"
        ) from exc
    try:
        result, tables = _COMMANDS[command](args)
    except CmshiftError as exc:
        inner = "" if exc.field is None else f" [{exc.field}]"
        raise type(exc)(
            f"manifest entry {index} ({command}){inner}: {exc.message}",
            field=f"commands[{index}]",
        ) from exc
    report = {
        "schema": SCHEMA_ID,
        "command": command,
        "params": _params_of(args),
        "result": result,
        "error": None,
    }
    entry_name = f"{index:02d}-{command}"
    _emit(report, tables, os.path.join(out_root, entry_name), stdout=False)
    return {"index": index, "command": command, "dir": entry_name, "ok": True}


def _cmd_run(args):
    jobs = args.jobs
    if jobs < 1:
        raise ValidationError("--jobs must be >= 1", field="jobs")
    with open(args.manifest, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", field="") from exc
    if not isinstance(manifest, dict):
        raise SchemaError("manifest must be an object", field="")
    commands = manifest.get("commands")
    if not isinstance(commands, list) or not commands:
        raise ValidationError("manifest needs a non-empty commands list", field="commands")
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    out_root = args.out or manifest.get("out") or "cmshift-run"
    if not isinstance(out_root, str):
        raise SchemaError("field 'out' must be a string", field="out")
    defaults = _object(manifest, "overrides", "overrides")
    entries = [
        _run_entry(i, entry, base_dir, out_root, defaults) for i, entry in enumerate(commands)
    ]
    return {"count": len(entries), "entries": entries}, {}


def _params_of(args):
    skip = {"command", "out", "strict", "jobs"}
    return {
        k: _jsonable(v)
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = None
    # a float flag that is not finite raises while parsing: the command
    # is then read from argv
    report = {
        "schema": SCHEMA_ID,
        "command": argv[0] if argv else None,
        "params": {},
        "result": None,
        "error": None,
    }
    try:
        args = _build_parser().parse_args(argv)
        command = report["command"] = args.command
        report["params"] = _params_of(args)
        if command == "run":
            result, tables = _cmd_run(args)
        else:
            result, tables = _COMMANDS[command](args)
    except CmshiftError as exc:
        report["error"] = exc.to_json()
        _emit(report, {}, getattr(args, "out", None))
        return 2
    except FileNotFoundError as exc:
        # `run` opens its manifest itself; every other file read is a graph
        missing = "manifest" if exc.filename == getattr(args, "manifest", None) else "graph"
        report["error"] = {"code": "not-found", "message": str(exc), "field": missing}
        _emit(report, {}, getattr(args, "out", None))
        return 2
    report["result"] = result
    _emit(report, tables, getattr(args, "out", None))
    if args.strict and _strict_verdict(command, result) == "inconclusive":
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
