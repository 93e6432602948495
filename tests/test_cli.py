"""Command-line surface: envelopes, exit codes, CSV tables, determinism.

Oracles used here, independent of the implementation under test:
  - golden mean shift entropy log((1+sqrt(5))/2) (Perron root of [[1,1],[1,0]]),
  - full 2-shift loop counts are exactly 2^n, so the fitted count rate is
    log 2 up to the affine-fit residual,
  - the dual bound at mass level лям=0.001 on the renewal system has the
    closed-form minimum log(1 + 1/999) + 0.001*log(999) (calculus on
    log(1+e^-t) + t*lam),
  - the mass floor with c = h/2 and no escape at infinity is exactly 1/2,
  - golden mean covering numbers at depth <= 3 are hand-countable.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import threading

import pytest

from cmshift import cli, families, thermo
from cmshift.graphs import LoopSystem

from properties import graph_spec

PHI = (1 + math.sqrt(5)) / 2


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(json.dumps(graph_spec(graph), indent=2, sort_keys=True))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# happy paths


def test_entropy_golden_with_count_rate(tmp_path, capsys):
    g = write_graph(tmp_path, "golden.json", families.golden_mean())
    out_dir = tmp_path / "out"
    code, doc = run_cli(
        capsys,
        ["entropy", "--graph", g, "--n-max", "24", "--vertex", "1",
         "--out", str(out_dir)],
    )
    assert code == 0
    assert doc["schema"] == "cmshift/output/v1"
    assert doc["command"] == "entropy"
    assert doc["error"] is None
    res = doc["result"]
    assert abs(res["value"] - math.log(PHI)) < 1e-9
    assert abs(res["count_rate"] - math.log(PHI)) < 1e-3
    report = json.loads((out_dir / "report.json").read_text())
    assert report == doc
    rows = (out_dir / "counts.csv").read_text().strip().splitlines()
    assert rows[0] == "n,count"
    assert len(rows) == 25


def test_entropy_full_shift_count_rate(tmp_path, capsys):
    g = write_graph(tmp_path, "full2.json", families.full_shift(2))
    code, doc = run_cli(
        capsys, ["entropy", "--graph", g, "--n-max", "24", "--vertex", "1"]
    )
    assert code == 0
    assert abs(doc["result"]["count_rate"] - math.log(2)) < 1e-3


def test_entropy_loop_system_writes_its_trace(tmp_path, capsys):
    # a loop system's entropy comes with a truncation trace, one row a q
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    out_dir = tmp_path / "out"
    code, doc = run_cli(capsys, ["entropy", "--graph", g, "--out", str(out_dir)])
    assert code == 0
    truncations = doc["result"]["truncations"]
    assert len(truncations) == 5
    rows = (out_dir / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "q,estimate"
    assert [[int(q), float(v)] for q, v in (r.split(",") for r in rows[1:])] == truncations


def test_classify_renewal(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(capsys, ["classify", "--graph", g])
    assert code == 0
    assert doc["result"]["verdict"] == "positive-recurrent"
    assert abs(doc["result"]["entropy"] - math.log(2)) < 1e-9


def test_spr_renewal(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(capsys, ["spr", "--graph", g])
    assert code == 0
    assert doc["result"]["spr"] is True
    assert doc["result"]["margin"] > 0.5


def test_delta_inf_grid_and_csv(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    out_dir = tmp_path / "out"
    code, doc = run_cli(
        capsys,
        ["delta-inf", "--graph", g, "--M", "8,16", "--q", "1,2,4",
         "--n-max", "30", "--out", str(out_dir)],
    )
    assert code == 0
    res = doc["result"]
    assert len(res["cells"]) == 6
    assert res["headline"] <= 0.05
    rows = (out_dir / "grid.csv").read_text().strip().splitlines()
    assert rows[0] == "M\\q,1,2,4"
    assert len(rows) == 3
    assert all(len(r.split(",")) == 4 for r in rows)


def test_b_inf_renewal_closed_form(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(capsys, ["b-inf", "--graph", g, "--delta", "0.001"])
    assert code == 0
    exact = math.log(1 + 1 / 999) + 0.001 * math.log(999)
    assert abs(doc["result"]["value"] - exact) < 1e-5
    assert doc["result"]["lam"] == 0.001


def test_b_inf_empty_finite_part_is_the_entropy(tmp_path, capsys):
    # q = 0: no symbol is weighted, so min_t P(0) + t*lam = log 2 at t = 0
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(capsys, ["b-inf", "--graph", g, "--q", "0"])
    assert code == 0
    assert doc["result"]["pressure_at_opt"] == pytest.approx(math.log(2), abs=1e-15)
    assert doc["result"]["value"] == pytest.approx(math.log(2), abs=1e-12)


@pytest.mark.parametrize("q,delta", [("6", "1e-9"), ("4", "1e-3")])
def test_b_inf_finite_loop_system_is_minus_inf(tmp_path, capsys, q, delta):
    # every loop meets F = {1..q}, so P(-t 1_F) falls without bound
    g = write_graph(tmp_path, "loops.json", LoopSystem([(1, 1), (3, 2)]))
    code, doc = run_cli(capsys, ["b-inf", "--graph", g, "--q", q, "--delta", delta])
    assert code == 0
    assert doc["result"]["value"] == "-inf"


def test_h_inf_finite_graph_is_minus_inf(tmp_path, capsys):
    g = write_graph(tmp_path, "full2.json", families.full_shift(2))
    code, doc = run_cli(capsys, ["h-inf", "--graph", g])
    assert code == 0
    assert doc["result"]["value"] == "-inf"


def test_h_inf_loop_system_writes_its_windows(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    out_dir = tmp_path / "out"
    code, doc = run_cli(capsys, ["h-inf", "--graph", g, "--out", str(out_dir)])
    assert code == 0
    res = doc["result"]
    rows = (out_dir / "windows.csv").read_text().strip().splitlines()
    assert rows[0] == "lo,hi,entropy,base_mass"
    assert len(res["windows"]) == 4
    assert [r.split(",") for r in rows[1:]] == [
        [str(lo), str(hi), repr(h), repr(b)]
        for (lo, hi), h, b in zip(res["windows"], res["entropies"], res["base_masses"])
    ]


def test_katok_golden(tmp_path, capsys):
    g = write_graph(tmp_path, "golden.json", families.golden_mean())
    out_dir = tmp_path / "out"
    code, doc = run_cli(
        capsys,
        ["katok", "--graph", g, "--delta", "0.25", "--n-max", "14",
         "--out", str(out_dir)],
    )
    assert code == 0
    res = doc["result"]
    assert abs(res["rate"] - math.log(PHI)) < 0.02
    assert res["counts"]["counts"][:3] == ["2", "3", "4"]
    rows = (out_dir / "counts.csv").read_text().strip().splitlines()
    assert len(rows) == 15


def test_verify_main_drift_family(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    out_dir = tmp_path / "out"
    code, doc = run_cli(
        capsys,
        ["verify-main", "--graph", g, "--family", "pure-drift",
         "--out", str(out_dir)],
    )
    assert code == 0
    res = doc["result"]
    assert res["ok"] is True
    assert len(res["families"]) == 1
    fam = res["families"][0]
    assert fam["family"] == "pure-drift"
    assert fam["slack"] >= -1e-9
    assert fam["mass"] < 1e-6
    rows = (out_dir / "families.csv").read_text().strip().splitlines()
    assert rows[0] == "family,lhs,rhs,slack,mass"
    assert len(rows) == 2


def test_mass_bound_half_entropy(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    c = 0.5 * math.log(2)
    code, doc = run_cli(capsys, ["mass-bound", "--graph", g, "--t", repr(c)])
    assert code == 0
    res = doc["result"]
    assert abs(res["bound"] - 0.5) < 1e-6
    assert abs(res["measured"] - 0.5) < 0.02
    assert res["satisfied"] is True
    # without --t the level is c = h/2
    code, default = run_cli(capsys, ["mass-bound", "--graph", g])
    assert code == 0
    assert default["result"]["c"] == 0.5 * thermo.pressure(families.renewal_shift())
    assert default["result"]["bound"] == res["bound"]


def test_dim_series_convergent_with_terms_csv(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    out_dir = tmp_path / "out"
    code, doc = run_cli(
        capsys,
        ["dim-series", "--graph", g, "--t", "0.5", "--n-max", "60",
         "--out", str(out_dir)],
    )
    assert code == 0
    assert doc["result"]["verdict"] == "convergent"
    rows = (out_dir / "terms.csv").read_text().strip().splitlines()
    assert rows[0] == "l,term"
    assert len(rows) > 10


def test_density_demo_small(capsys):
    code, doc = run_cli(
        capsys, ["density-demo", "--n-max", "16", "--M", "4", "--depth", "4"]
    )
    assert code == 0
    res = doc["result"]
    assert res["rho"] < 0.1
    assert res["gap"] < 0.1
    assert res["states"] > 0


def test_module_entry_point(tmp_path):
    g = write_graph(tmp_path, "golden.json", families.golden_mean())
    proc = subprocess.run(
        [sys.executable, "-m", "cmshift", "classify", "--graph", g],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["verdict"] == "positive-recurrent"


# ---------------------------------------------------------------------------
# exit codes


def test_missing_graph_file_exits_2(capsys):
    code, doc = run_cli(capsys, ["classify", "--graph", "/no/such/file.json"])
    assert code == 2
    assert doc["error"]["code"] == "not-found"
    assert doc["result"] is None


def test_malformed_graph_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, doc = run_cli(capsys, ["classify", "--graph", str(path)])
    assert code == 2
    assert doc["error"]["code"] == "schema"


def test_graph_flag_required(capsys):
    code, doc = run_cli(capsys, ["classify"])
    assert code == 2
    assert doc["error"]["field"] == "graph"


def test_katok_rejects_loop_system(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(capsys, ["katok", "--graph", g])
    assert code == 2
    assert doc["error"]["code"] == "validation"
    assert doc["error"]["field"] == "graph"


def test_unknown_family_exits_2(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(capsys, ["verify-main", "--graph", g, "--family", "bogus"])
    assert code == 2
    assert doc["error"]["field"] == "family"


def test_bad_int_list_exits_2(tmp_path, capsys):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(capsys, ["delta-inf", "--graph", g, "--M", "a,b"])
    assert code == 2
    assert doc["error"]["code"] == "validation"


@pytest.mark.parametrize(
    "argv,field",
    [
        (["h-inf", "--steps", "0", "--graph"], "count"),
        (["verify-main", "--steps", "0", "--graph"], "count"),
        (["b-inf", "--q", "-1", "--graph"], "q"),
        (["density-demo", "--n-max", "8", "--depth", "0"], "depth"),
        (["run", "--jobs", "0", "manifest.json"], "jobs"),
    ],
)
def test_values_below_their_minimum_exit_2(tmp_path, capsys, argv, field):
    if argv[-1] == "--graph":
        argv = argv + [write_graph(tmp_path, "renewal.json", families.renewal_shift())]
    code, doc = run_cli(capsys, argv)
    assert code == 2
    assert doc["error"]["code"] == "validation"
    assert doc["error"]["field"] == field
    assert doc["result"] is None


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("dim-series", "--t", "nan"),
        ("dim-series", "--t", "inf"),
        ("dim-series", "--t", "-inf"),
        ("mass-bound", "--t", "nan"),
        ("b-inf", "--delta", "nan"),
        ("katok", "--delta", "nan"),
    ],
)
def test_non_finite_float_flags_exit_2(tmp_path, capsys, command, flag, value):
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(capsys, [command, f"{flag}={value}", "--graph", g])
    assert code == 2
    assert doc["command"] == command
    assert doc["error"]["code"] == "validation"
    assert "finite number" in doc["error"]["message"]
    assert doc["result"] is None


def test_manifest_entries_reject_non_finite_float_flags(tmp_path, capsys):
    write_graph(tmp_path, "renewal.json", families.renewal_shift())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "commands": [{"command": "dim-series", "args": {"graph": "renewal.json", "t": "nan"}}],
    }))
    code, doc = run_cli(capsys, ["run", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert doc["error"]["code"] == "validation"
    assert doc["error"]["field"] == "commands[0].args"
    assert "finite number" in doc["error"]["message"]


def test_manifest_value_in_exponent_form_is_one_flag(tmp_path, capsys):
    # argparse would read a separate "-1e-05" token as an option
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "commands": [{"command": "dim-series", "args": {"graph": "renewal.json", "t": -1e-5, "n-max": 20}}],
    }))
    out = tmp_path / "out"
    code, _ = run_cli(capsys, ["run", str(manifest), "--out", str(out)])
    assert code == 0
    entry = json.loads((out / "00-dim-series" / "report.json").read_text())
    code, doc = run_cli(capsys, ["dim-series", "--graph", g, "--t=-1e-05", "--n-max", "20"])
    assert code == 0
    assert entry == doc
    assert entry["params"]["t"] == -1e-05


def test_tail_past_the_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    tail = {"from_length": 1, "coeff": 10**400, "growth": 1.5}
    path.write_text(json.dumps({"kind": "loop_system", "loop_system": {"loops": [], "tail": tail}}))
    code, doc = run_cli(capsys, ["classify", "--graph", str(path)])
    assert code == 2
    assert doc["error"]["field"] == "loop_system.tail.coeff"


def test_strict_inconclusive_exits_3(tmp_path, capsys):
    # at l_max=40 the final terms sit just above the smallness cutoff,
    # so the verdict stays inconclusive even though the slope is negative
    g = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    code, doc = run_cli(
        capsys,
        ["dim-series", "--graph", g, "--t", "0.5", "--n-max", "40", "--strict"],
    )
    assert code == 3
    assert doc["result"]["verdict"] == "inconclusive"
    code, _ = run_cli(
        capsys, ["dim-series", "--graph", g, "--t", "0.5", "--n-max", "40"]
    )
    assert code == 0


# ---------------------------------------------------------------------------
# manifest runner


def _tree_bytes(root):
    tree = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            tree[os.path.relpath(full, root)] = open(full, "rb").read()
    return tree


def test_run_manifest_deterministic(tmp_path, capsys):
    write_graph(tmp_path, "golden.json", families.golden_mean())
    write_graph(tmp_path, "renewal.json", families.renewal_shift())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "commands": [
            {"command": "entropy",
             "args": {"graph": "golden.json", "n-max": 20, "vertex": 1}},
            {"command": "classify", "args": {"graph": "renewal.json"}},
            {"command": "dim-series",
             "args": {"graph": "renewal.json", "t": 0.5, "n-max": 30}},
        ],
    }))
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    code, doc = run_cli(
        capsys, ["run", str(manifest), "--jobs", "1", "--out", str(out_a)]
    )
    assert code == 0
    assert doc["result"]["count"] == 3
    assert [e["dir"] for e in doc["result"]["entries"]] == [
        "00-entropy", "01-classify", "02-dim-series",
    ]
    code, _ = run_cli(
        capsys, ["run", str(manifest), "--jobs", "3", "--out", str(out_b)]
    )
    assert code == 0
    assert _tree_bytes(out_a) == _tree_bytes(out_b)
    entry = json.loads((out_a / "01-classify" / "report.json").read_text())
    assert entry["schema"] == "cmshift/output/v1"
    assert entry["result"]["verdict"] == "positive-recurrent"


def test_run_manifest_unknown_command_exits_2(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"commands": [{"command": "bogus"}]}))
    code, doc = run_cli(
        capsys, ["run", str(manifest), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert doc["error"]["code"] == "validation"
    assert "bogus" in doc["error"]["message"]


@pytest.mark.parametrize(
    "text,field",
    [
        (None, "manifest"),
        ("{not json", ""),
        ("[1]", ""),
        ('{"commands": ["classify"]}', "commands[0]"),
        ('{"commands": [{"command": "classify", "args": ["graph"]}]}', "commands[0].args"),
        ('{"overrides": ["graph"], "commands": [{"command": "classify"}]}', "overrides"),
        ('{"out": 5, "commands": [{"command": "classify"}]}', "out"),
        ('{"commands": [{"command": ["classify"]}]}', "commands[0].command"),
    ],
)
def test_run_malformed_manifest_exits_2_naming_the_field(tmp_path, capsys, text, field):
    manifest = tmp_path / "manifest.json"
    if text is not None:
        manifest.write_text(text)
    code, doc = run_cli(capsys, ["run", str(manifest)])
    assert code == 2
    assert doc["result"] is None
    assert doc["error"]["field"] == field
    want = {"manifest": "not-found", "commands[0].command": "validation"}.get(field, "schema")
    assert doc["error"]["code"] == want


def test_run_manifest_seed_and_overrides(tmp_path, capsys):
    # leftover "seed" and "jobs" keys are unread
    write_graph(tmp_path, "golden.json", families.golden_mean())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "seed": 9,
        "jobs": 2,
        "overrides": {"n-max": 12},
        "commands": [
            {"command": "entropy", "args": {"graph": "golden.json", "strict": True}},
            {"command": "entropy", "args": {"graph": "golden.json", "n-max": 20, "strict": False}},
        ],
    }))
    out = tmp_path / "out"
    code, doc = run_cli(capsys, ["run", str(manifest), "--out", str(out)])
    assert code == 0
    first = json.loads((out / "00-entropy" / "report.json").read_text())
    second = json.loads((out / "01-entropy" / "report.json").read_text())
    # "strict": true passes --strict and false passes nothing; the params
    # record neither
    graph = str(tmp_path / "golden.json")
    assert first["params"] == {"graph": graph, "n_max": 12}  # manifest override
    assert second["params"] == {"graph": graph, "n_max": 20}  # entry args win


def test_run_manifest_failing_entry_exits_2(tmp_path, capsys):
    # an entry whose command fails ends the run with that entry's error, the
    # same at one job and at two
    write_graph(tmp_path, "golden.json", families.golden_mean())
    write_graph(tmp_path, "renewal.json", families.renewal_shift())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "commands": [
            {"command": "classify", "args": {"graph": "golden.json"}},
            {"command": "katok", "args": {"graph": "renewal.json"}},
        ],
    }))
    errors = []
    for jobs in ("1", "2"):
        code, doc = run_cli(
            capsys,
            ["run", str(manifest), "--jobs", jobs, "--out", str(tmp_path / f"out{jobs}")],
        )
        assert code == 2
        assert doc["result"] is None
        errors.append(doc["error"])
    assert errors[0] == errors[1]
    assert errors[0]["code"] == "validation"
    assert errors[0]["field"] == "commands[1]"
    assert errors[0]["message"].startswith("manifest entry 1 (katok) [graph]: ")


def test_run_manifest_entry_error_names_its_entry(tmp_path, capsys):
    # a value that parses but fails inside the command names the entry too
    write_graph(tmp_path, "renewal.json", families.renewal_shift())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "commands": [
            {"command": "classify", "args": {"graph": "renewal.json"}},
            {"command": "b-inf", "args": {"graph": "renewal.json", "delta": -1}},
        ],
    }))
    code, doc = run_cli(capsys, ["run", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert doc["error"] == {
        "code": "validation",
        "message": "manifest entry 1 (b-inf): lam must be > 0",
        "field": "commands[1]",
    }


# ---------------------------------------------------------------------------
# frozen output contract


def _frozen_schema():
    import cmshift

    path = os.path.join(
        os.path.dirname(cmshift.__file__), "schemas", "output_schema_v1.json"
    )
    return json.loads(open(path).read())


def test_results_match_frozen_field_names(tmp_path, capsys):
    schema = _frozen_schema()
    golden = write_graph(tmp_path, "golden.json", families.golden_mean())
    renewal = write_graph(tmp_path, "renewal.json", families.renewal_shift())
    runs = {
        "entropy": ["entropy", "--graph", golden, "--n-max", "12", "--vertex", "1"],
        "delta-inf": ["delta-inf", "--graph", renewal, "--n-max", "20"],
        "classify": ["classify", "--graph", renewal],
        "spr": ["spr", "--graph", renewal],
        "b-inf": ["b-inf", "--graph", renewal],
        "katok": ["katok", "--graph", golden, "--n-max", "8"],
        "mass-bound": ["mass-bound", "--graph", renewal, "--t", "0.3"],
        "dim-series": ["dim-series", "--graph", renewal, "--t", "0.5", "--n-max", "20"],
    }
    for command, argv in runs.items():
        code, doc = run_cli(capsys, argv)
        assert code == 0, command
        declared = {f.split(" ")[0] for f in schema["results"][command]["fields"]}
        assert set(doc["result"]) <= declared, command


def test_graph_documents_validate_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import cmshift

    schema = json.loads(
        open(
            os.path.join(
                os.path.dirname(cmshift.__file__), "schemas", "graph_schema_v1.json"
            )
        ).read()
    )
    for g in (families.full_shift(2), families.golden_mean(),
              families.renewal_shift(), families.power_loops(2)):
        jsonschema.validate(graph_spec(g), schema)


def test_run_manifest_bad_entry_flag_exits_2(tmp_path, capsys):
    write_graph(tmp_path, "golden.json", families.golden_mean())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "commands": [
            {"command": "classify",
             "args": {"graph": "golden.json", "no-such-flag": 1}},
            {"command": "spr",
             "args": {"graph": "golden.json", "no-such-flag": 2}},
        ],
    }))
    stderr = sys.stderr
    for jobs in ("1", "2"):
        code, doc = run_cli(
            capsys,
            ["run", str(manifest), "--out", str(tmp_path / "out"), "--jobs", jobs],
        )
        assert code == 2
        assert doc["error"]["code"] == "validation"
        assert doc["error"]["field"] == "commands[0].args"
        assert "--no-such-flag" in doc["error"]["message"]
        # entries parse without swapping the process stderr
        assert sys.stderr is stderr


# ---------------------------------------------------------------------------
# the shared parsers


def test_parsers_are_built_once_per_class():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    entry = cli._build_parser(cli._EntryParser)
    assert entry is not parser
    assert cli._build_parser(cli._EntryParser) is entry
    with pytest.raises(cli.ValidationError):
        entry.parse_args(["classify", "--no-such-flag"])


def test_shared_parser_leaks_nothing_between_calls(tmp_path, capsys):
    g = write_graph(tmp_path, "golden.json", families.golden_mean())
    code, first = run_cli(capsys, ["entropy", "--graph", g, "--vertex", "1"])
    assert code == 0
    assert first["params"]["vertex"] == 1
    assert first["result"]["count_vertex"] == 1
    code, second = run_cli(capsys, ["entropy", "--graph", g])
    assert code == 0
    assert "vertex" not in second["params"]
    assert "count_vertex" not in second["result"]


def test_shared_entry_parser_is_safe_under_threads():
    parser = cli._build_parser(cli._EntryParser)
    argvs = [
        ["entropy", "--graph", "a.json", "--n-max", "12", "--vertex", "2"],
        ["entropy", "--graph", "b.json"],
        ["b-inf", "--graph", "c.json", "--q", "3", "--delta", "0.01"],
        ["dim-series", "--graph", "d.json", "--t", "0.25", "--strict"],
        ["classify", "--graph", "e.json", "--no-such-flag", "1"],
    ]

    def parse(argv):
        try:
            return vars(parser.parse_args(argv))
        except cli.ValidationError as exc:
            return exc.message

    want = [parse(argv) for argv in argvs]
    bad = []

    def work(seed):
        for k in range(300):
            i = (seed + k) % len(argvs)
            if parse(argvs[i]) != want[i]:
                bad.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_help_names_every_default():
    # "%(default)s" is formatted only when help is rendered
    sub = next(a for a in cli._build_parser()._actions if a.choices and "run" in a.choices)
    for name, parser in sub.choices.items():
        text = " ".join(parser.format_help().split())
        for action in parser._actions:
            if action.default not in (None, False, argparse.SUPPRESS):
                assert f"(default {action.default})" in text, (name, action.dest)


@pytest.mark.parametrize(
    "command,want",
    [
        ("katok", {"delta": 0.1, "n_max": 16}),
        ("b-inf", {"delta": 0.001, "q": 1}),
        ("dim-series", {"M": 16, "q": 1, "t": 0.5, "n_max": 60}),
    ],
)
def test_params_record_the_defaults_a_run_used(tmp_path, capsys, command, want):
    g = write_graph(tmp_path, "golden.json", families.golden_mean())
    code, doc = run_cli(capsys, [command, "--graph", g])
    assert code == 0
    assert doc["params"] == {"graph": g, **want}
