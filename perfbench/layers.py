"""Per-layer metrics from the spans of one traced round.

``_s`` metrics are self times (span minus the part its child spans cover),
``_calls`` count spans, and the computed counts come from the sizes the
spans recorded. Shares divide a layer's self time by the traced round's
wall time.
"""

import oracles
from tracer import MODULES

SELF_TIMES = {
    "graphs.load_s": "graphs.load",
    "graphs.truncate_s": "graphs.truncate",
    "graphs.enumeration_s": "graphs.enumeration",
    "graphs.walk_view_s": "graphs.walk_view",
    "counting.escape_count_s": "counting.escape_count",
    "counting.loop_count_s": "counting.loop_count",
    "counting.growth_rate_s": "counting.growth_rate",
    "thermo.perron_root_s": "thermo.perron_root",
    "thermo.value_bounds_s": "thermo.value_bounds",
    "thermo.x_star_s": "thermo.x_star",
    "thermo.delta_inf_s": "thermo.delta_inf",
    "infinity.pressure_s": "infinity.pressure",
    "infinity.b_inf_s": "infinity.b_inf",
    "infinity.verify_main_s": "infinity.verify_main",
    "infinity.mass_bound_s": "infinity.mass_bound",
    "infinity.h_inf_s": "infinity.h_inf",
    "infinity.dimension_series_s": "infinity.dimension_series",
    "measures.parry_s": "measures.parry",
    "measures.loop_mme_s": "measures.loop_mme",
    "measures.tail_parry_s": "measures.tail_parry",
    "measures.cylinder_limit_s": "measures.cylinder_limit",
    "measures.rho_distance_s": "measures.rho_distance",
    "katok.covering_number_s": "katok.covering_number",
    "density.concatenated_system_s": "density.concatenated_system",
}

CALLS = {
    "counting.escape_count_calls": "counting.escape_count",
    "thermo.perron_root_calls": "thermo.perron_root",
    "thermo.value_bounds_calls": "thermo.value_bounds",
    "infinity.pressure_calls": "infinity.pressure",
    "measures.parry_calls": "measures.parry",
    "katok.covering_calls": "katok.covering_number",
}


def per_layer(tracer, traced_wall, traced_cal, untraced_cal):
    """Metrics of the traced round. ``traced_wall`` is its raw wall time,
    the base of the shares; ``traced_cal`` and ``untraced_cal`` are the
    calibrated round times (``calib.py``) of the traced round and the median
    untraced one, whose difference is the tracing overhead."""
    spans = tracer.spans
    self_time = tracer.self_times()
    by_name, calls, layer_self = {}, {}, {}
    for s in spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + self_time[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + self_time[s.id]

    def named(name):
        return [s for s in spans if s.name == name]

    m = {}
    for metric, name in SELF_TIMES.items():
        m[metric] = (by_name.get(name, 0.0), "s")
    for metric, name in CALLS.items():
        m[metric] = (calls.get(name, 0), "count")

    views = {s.parent: s.info for s in named("graphs.walk_view")}
    m["graphs.walk_view_states"] = (sum(v["states"] for v in views.values()), "count")
    updates = 0
    for s in named("counting.escape_count"):
        n_max, M = s.info["n_max"], s.info["M"]
        updates += (n_max + 1) * ((n_max + 2) // M + 1) * views[s.id]["edges"]
    m["counting.escape_dp_updates"] = (updates, "count")
    m["measures.parry_states"] = (sum(s.info["states"] for s in named("measures.parry")), "count")
    m["measures.cylinder_mass_calls"] = (tracer.counts.get("cylinder_mass", 0), "count")

    covers = named("katok.covering_number")
    cylinders = sum(oracles.positive_words(s.info["measure"].pi, s.info["measure"].P, s.info["n"])
                    for s in covers)
    m["katok.cylinders"] = (cylinders, "count")
    m["katok.cover_share"] = (sum(s.info["value"] for s in covers) / cylinders if cylinders else 0.0, "ratio")
    m["density.states"] = (sum(s.info["states"] for s in named("density.concatenated_system")), "count")

    main_spans = named("cli.main")
    run_spans = named("cli.run")
    run_wall = sum(s.end - s.start for s in run_spans)
    entries = sum(s.end - s.start for s in named("cli.run_entry"))
    m["cli.main_s"] = (sum(s.end - s.start for s in main_spans), "s")
    m["cli.overhead_s"] = (layer_self.get("cli", 0.0), "s")
    m["cli.bytes_written"] = (sum(s.info["bytes"] for s in named("cli.write")), "bytes")
    m["cli.run_s"] = (run_wall, "s")
    m["cli.run_parallelism"] = (entries / run_wall if run_wall else 0.0, "ratio")

    for layer in MODULES:
        m[f"share.{layer}"] = (layer_self.get(layer, 0.0) / traced_wall, "ratio")
    m["trace.traced_wall_s"] = (traced_cal, "s")
    m["trace.untraced_wall_s"] = (untraced_cal, "s")
    m["trace.overhead_s"] = (traced_cal - untraced_cal, "s")
    return m
