"""What the traced run wraps, and how spans become per-layer metrics.

Span names are ``<module>.<function>``.  Counters are filled by hooks that
read a call's arguments or result; none of them changes what the program
computes.
"""
from __future__ import annotations

import os
import statistics

from trafficlab import (cli, demand, features, incidents, kernels, metrics,
                        microsim, models, sensors, validate)

from spans import Tracer

QUALITY = ("event_detection_rate", "false_alarm_rate", "auc", "mttd_s",
           "road_accuracy")
CLI_STAGES = ("simulate", "validate", "extract_features", "train",
              "evaluate", "sweep_sparsity")

# the calls a simulation stage and a feature stage are made of; on
# highway_sweep both stages run inside the one sweep-sparsity command, so
# their wall times are the sums of these spans
SIMULATE_SPANS = ("demand.spawn_schedule", "incidents.plan", "microsim.run",
                  "sensors.emit_raw", "demand.write_schedule")
FEATURE_SPANS = ("sensors.subset_sensors", "features.reidentify",
                 "features.build_rows", "features.concat_tables")


def _count(name, size):
    return lambda tr, out, args, kw: tr.count(name, size(args, out))


def _sim_run(tr, out, args, kw):
    tr.count("microsim.spawned", out.spawned)
    tr.count("microsim.deferred_at_end", out.deferred_at_end)


def _designated(tr, out, args, kw):
    tr.count("incidents.halted_vehicles", len(out))
    tr.count("incidents.empty", int(not out))


def _raw_bytes(tr, out, args, kw):
    path = args[2] if len(args) > 2 else kw["raw_path"]
    tr.count("sensors.raw_bytes", os.path.getsize(path))


def _feature_rows(tr, out, args, kw):
    tt = [j for j, n in enumerate(out.feature_names) if n.startswith("tt_")]
    cells = out.X[:, tt]
    tr.count("features.rows", out.n_rows)
    tr.count("features.tt_cells", int(cells.size))
    tr.count("features.tt_nan_cells", int(cells.size - (cells == cells).sum()))


def _submodel(args, kw) -> str:
    """Tag a train_tree_ensemble call by what it is given: the detector is
    the only weighted fit, the localizer the only multiclass one."""
    cfg = args[2] if len(args) > 2 else kw["cfg"]
    if cfg.objective == "multiclass":
        return "models.train.localizer"
    if (args[4] if len(args) > 4 else kw.get("sample_weight")) is not None:
        return "models.train.detector"
    return "models.train.severity"


def _trees(tr, out, args, kw):
    tr.count("models.trees", len(out.trees))
    tr.count("models.internal_nodes",
             sum(int((t.feature >= 0).sum()) for t in out.trees))


def _model_bytes(tr, out, args, kw):
    path = args[1] if len(args) > 1 else kw["path"]
    tr.count("models.model_bytes", os.path.getsize(path))


def full_tracer() -> Tracer:
    cmds = [(cli, f"cmd_{s}", f"cli.{s}", None) for s in CLI_STAGES]
    return Tracer(cmds + [
        (microsim, "run", "microsim.run", _sim_run),
        (microsim.Simulation, "step", "microsim.step",
         _count("microsim.steps", lambda a, o: 1)),
        (kernels, "follow_speeds", "kernels.follow_speeds",
         _count("microsim.vehicle_steps", lambda a, o: len(a[0]))),
        (kernels, "hist_build", "kernels.hist_build",
         _count("kernels.hist_build.rows", lambda a, o: len(a[1]))),
        (incidents, "plan_incidents", "incidents.plan",
         _count("incidents.planned", lambda a, o: len(o))),
        (incidents, "apply_effects", "incidents.apply_effects", None),
        (incidents, "designate_vehicles", "incidents.designate_vehicles",
         _designated),
        (incidents, "release_vehicles", "incidents.release_vehicles", None),
        (sensors.SensorRig, "observe", "sensors.observe",
         _count("sensors.sightings", lambda a, o: sum(r.count for r in o))),
        (sensors.RawDatasetBuilder, "add_step", "sensors.add_step", None),
        (sensors, "emit_raw", "sensors.emit_raw", _raw_bytes),
        (sensors, "load_raw", "sensors.load_raw", None),
        (sensors, "subset_sensors", "sensors.subset_sensors", None),
        (features, "reidentify_travel_times", "features.reidentify",
         _count("features.tt_records", lambda a, o: len(o))),
        (features, "build_feature_rows", "features.build_rows",
         _feature_rows),
        (features, "concat_tables", "features.concat_tables", None),
        (features, "write_feature_table", "features.write_table", None),
        (features, "read_feature_table", "features.read_table", None),
        (models, "train_incident_ensemble", "models.train", None),
        (models, "train_tree_ensemble", _submodel, _trees),
        (models, "infer_batch", "models.infer_batch", None),
        (models, "save_model", "models.save_model", _model_bytes),
        (models, "load_model", "models.load_model", None),
        (demand, "spawn_schedule", "demand.spawn_schedule", None),
        (demand, "write_schedule", "demand.write_schedule", None),
        (demand, "lm_fit", "demand.lm_fit", None),
        (validate, "ks_two_sample", "validate.ks", None),
        (metrics, "evaluate_predictions", "metrics.evaluate", None),
    ])


def stage_tracer(before) -> Tracer:
    """Untraced runs wrap only the stage-level calls, tens per pipeline:
    on highway_sweep, whose stages share one command, to split its wall
    time into stages, and everywhere to run `before` (the reference probe)
    ahead of each of them."""
    return Tracer([
        (demand, "spawn_schedule", "demand.spawn_schedule", None),
        (incidents, "plan_incidents", "incidents.plan", None),
        (microsim, "run", "microsim.run", None),
        (sensors, "emit_raw", "sensors.emit_raw", None),
        (demand, "write_schedule", "demand.write_schedule", None),
        (sensors, "subset_sensors", "sensors.subset_sensors", None),
        (features, "reidentify_travel_times", "features.reidentify", None),
        (features, "build_feature_rows", "features.build_rows", None),
        (features, "concat_tables", "features.concat_tables", None),
        (models, "train_tree_ensemble", "models.train_tree_ensemble", None),
    ], before=before)


def stage_seconds(rec) -> dict:
    """Wall seconds per stage of one pipeline iteration."""
    times = rec["times"]
    out = {"pipeline": sum(times.values()),
           "train": times.get("train", 0.0)}
    if "sweep" in times:
        total = rec["spans"]["total"]
        out["simulate"] = sum(total.get(s, 0.0) for s in SIMULATE_SPANS)
        out["features"] = sum(total.get(s, 0.0) for s in FEATURE_SPANS)
    else:
        out["simulate"] = times.get("simulate", 0.0)
        out["features"] = times.get("features", 0.0)
    return out


def per_layer_metrics(records) -> dict:
    """Per-layer metrics from the traced iterations of one run: times are
    medians over those iterations, counters come from the first (they are
    checked to repeat exactly)."""
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    counts = traced[0]["spans"]["counts"]

    def med(fn):
        return statistics.median(fn(r["spans"]) for r in traced)

    def total(name):
        return med(lambda s: s["total"].get(name, 0.0))

    def self_s(name):
        return med(lambda s: s["total"].get(name, 0.0)
                   - s["covered"].get(name, 0.0))

    def n(name):
        return counts.get(name, 0)

    traced_stage = [stage_seconds(r) for r in traced]
    pipeline = statistics.median(s["pipeline"] for s in traced_stage)
    simulate = statistics.median(s["simulate"] for s in traced_stage)
    untraced = statistics.median(stage_seconds(r)["pipeline"] for r in plain)
    hist_calls = traced[0]["spans"]["calls"].get("kernels.hist_build", 0)
    models_s = med(lambda s: sum(v for k, v in s["total"].items()
                                 if k.startswith("models.")
                                 and not k.startswith("models.train.")))
    tt_cells = n("features.tt_cells")

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("microsim.step.self_s", self_s("microsim.step"), "s")
    for c in ("microsim.steps", "microsim.vehicle_steps", "microsim.spawned",
              "microsim.deferred_at_end"):
        put(c, n(c), "count")
    for s in ("sensors.observe", "sensors.add_step", "sensors.emit_raw",
              "sensors.load_raw", "sensors.subset_sensors"):
        put(s + ".s", total(s), "s")
    put("sensors.sightings", n("sensors.sightings"), "count")
    put("sensors.raw_bytes", n("sensors.raw_bytes"), "bytes")
    for s in ("features.reidentify", "features.build_rows",
              "features.write_table", "features.read_table"):
        put(s + ".s", total(s), "s")
    put("features.tt_records", n("features.tt_records"), "count")
    put("features.tt_nan_frac",
        n("features.tt_nan_cells") / tt_cells if tt_cells else 0.0, "ratio")
    put("features.rows", n("features.rows"), "count")
    for sub in ("detector", "localizer", "severity"):
        put(f"models.train.{sub}_s", total(f"models.train.{sub}"), "s")
    put("models.train.self_s",
        med(lambda s: s["total"].get("models.train", 0.0)
            - s["total"].get("kernels.hist_build", 0.0)), "s")
    put("models.trees", n("models.trees"), "count")
    put("models.internal_nodes", n("models.internal_nodes"), "count")
    put("models.split_yield",
        n("models.internal_nodes") / hist_calls if hist_calls else 0.0,
        "ratio")
    put("models.infer_batch.s", total("models.infer_batch"), "s")
    put("models.model_bytes", n("models.model_bytes"), "bytes")
    put("kernels.hist_build.s", total("kernels.hist_build"), "s")
    put("kernels.hist_build.calls", hist_calls, "count")
    put("kernels.hist_build.rows", n("kernels.hist_build.rows"), "count")
    put("kernels.follow_speeds.s", total("kernels.follow_speeds"), "s")
    put("incidents.plan.s", total("incidents.plan"), "s")
    put("incidents.apply_effects.s", total("incidents.apply_effects"), "s")
    for c in ("incidents.planned", "incidents.halted_vehicles",
              "incidents.empty"):
        put(c, n(c), "count")
    put("demand.spawn_schedule.s", total("demand.spawn_schedule"), "s")
    put("demand.lm_fit.s", total("demand.lm_fit"), "s")
    put("validate.ks.s", total("validate.ks"), "s")
    put("metrics.evaluate.s", total("metrics.evaluate"), "s")
    for stage in CLI_STAGES:
        put(f"cli.{stage}.self_s", self_s(f"cli.{stage}"), "s")
    for stage in ("pipeline", "simulate", "train", "features"):
        put(f"{stage}_s", statistics.median(stage_seconds(r)[stage]
                                            for r in plain), "s")
    put("ref.probe_s", statistics.median(t for r in records
                                         for t in r["probe"]), "s")
    put("share.models_of_pipeline", models_s / pipeline, "ratio")
    put("share.observe_of_simulate",
        total("sensors.observe") / simulate if simulate else 0.0, "ratio")
    put("trace.overhead_s", pipeline - untraced, "s")
    quality = records[0]["quality"]
    for q in QUALITY:
        value = quality.get(q)
        put(q, 0.0 if value is None else value,
            "s" if q == "mttd_s" else "ratio")
    return out
