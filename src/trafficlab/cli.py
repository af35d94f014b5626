"""Command-line pipeline driver.

Subcommands cover the experiment lifecycle: fit-demand, simulate,
extract-features, validate, train, evaluate and sweep-sparsity.  Every
command but fit-demand takes its settings from the --config YAML file
alone (an empty file gives every default), and the resolved config is
echoed into each output directory, so a run is reproducible from config
plus seed.  Day-level randomness derives from (seed, day index) so days
are independent and a later day does not shift an earlier one.

The demand curve has one source: simulate, validate and sweep-sparsity
each fit it from the counts (the config's, or validate's --counts), whose
bins must be bin_seconds long.  fit-demand fits and prints it, to inspect.

One function, `_simulate_day`, simulates and writes each day of simulate
and sweep-sparsity and returns its day line and run result.  One training
step, `_train`, fits the model of train and of every sweep level.
sweep-sparsity trains on the first cfg.days days and scores the day after
them, from tables built in memory, once per level.
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys
import time

import numpy as np

from . import demand, features, incidents, metrics, models, sensors, validate
from .expconfig import ConfigError, ExperimentConfig, echo_config, load_config
from .microsim import run
from .roadnet import (SensorPlacement, contiguous_sensor_pairs, load_network,
                      validate_placement)


_ERRORS = (ValueError, OSError)  # module errors all subclass ValueError


def _sensor_ids(cfg: ExperimentConfig, net) -> list:
    """The configured sensors, or every sensor site of the network."""
    if cfg.sensors is not None:
        return list(cfg.sensors)
    return sorted(n.id for n in net.nodes.values() if n.sensor_site)


def _placement(cfg: ExperimentConfig, net, ids=None) -> SensorPlacement:
    if ids is None:
        ids = _sensor_ids(cfg, net)
    placement = SensorPlacement(tuple(ids), cfg.sensor_range_m)
    validate_placement(net, placement)
    return placement


def _fit_counts(path: str):
    """(per-road series, their average, the flow curve fitted to it)."""
    series = demand.read_counts_csv(path)
    avg = demand.average_counts(list(series.values()))
    return series, avg, demand.lm_fit(avg, demand.fft_init_params(avg))


def _demand_params(cfg: ExperimentConfig) -> demand.FlowModelParams:
    """The flow curve fitted to the config's counts.  It gives vehicles per
    counts bin, so cfg.bin_seconds must be the bin of the counts."""
    path = cfg.counts_path()
    _series, avg, params = _fit_counts(path)
    if avg.bin_duration != cfg.bin_seconds:
        raise ConfigError(f"bin_seconds is {cfg.bin_seconds}, but {path} "
                          f"counts {avg.bin_duration:g}-s bins")
    return params


def _day_seeds(seed: int, day: int):
    """Three independent streams per (seed, day): spawns, incident plan,
    driver noise."""
    state = np.random.SeedSequence([seed, day]).generate_state(3)
    return tuple(int(s) for s in state)


def _simulate_day(cfg: ExperimentConfig, net, placement, params, root: str,
                  day: int, audit: bool = False):
    """Simulate one day, write its raw.csv, incidents.csv and spawns.csv
    under root/day_NNN, and return (its day line, its RunResult).  Day
    cfg.days is the held-out evaluation day.  With audit, every step is
    audited and the day line gives the audit's counts."""
    spawn_seed, inc_seed, sim_seed = _day_seeds(cfg.seed, day)
    schedule = demand.spawn_schedule(
        params, net, cfg.day_seconds, seed=spawn_seed,
        bin_duration=cfg.bin_seconds,
        entry_weights=cfg.entry_weights or None,
        exit_weights=cfg.exit_weights or None)
    plan = incidents.plan_incidents(schedule, cfg.incidents, net,
                                    seed=inc_seed)
    result = run(net, schedule, plan, placement,
                 dataclasses.replace(cfg.sim, seed=sim_seed),
                 incident_cfg=cfg.incidents, audit=audit)
    out = os.path.join(root, f"day_{day:03d}")
    os.makedirs(out, exist_ok=True)
    sensors.emit_raw(result.raw, result.incident_log,
                     os.path.join(out, "raw.csv"),
                     os.path.join(out, "incidents.csv"))
    demand.write_schedule(schedule, os.path.join(out, "spawns.csv"))
    line = (f"day {day:03d}: spawned={result.spawned} "
            f"arrived={result.arrived} incidents={len(plan)}"
            + (" [eval]" if day == cfg.days else ""))
    if audit:
        line += (f" audit: checked_steps={result.audit.checked_steps} "
                 f"violations={len(result.audit.violations)}")
    return line, result


def _find_day_dirs(root: str) -> list:
    dirs = sorted(glob.glob(os.path.join(root, "day_[0-9][0-9][0-9]")))
    if not dirs:
        raise ConfigError(f"no day_NNN directories under {root}")
    return dirs


def _table(cfg: ExperimentConfig, net, placement, raw: sensors.RawDataset,
           log) -> features.FeatureTable:
    """One day's labeled window table."""
    pairs = contiguous_sensor_pairs(net, placement)
    recs = features.reidentify_travel_times(raw, pairs,
                                            staleness=cfg.staleness_s)
    return features.build_feature_rows(raw, recs, cfg.window, log, net,
                                       pairs=pairs)


def _evaluate(cfg: ExperimentConfig, model, table, incident_log=None):
    if model.feature_names != table.feature_names:
        raise ConfigError("model and feature table schemas differ")
    preds = models.infer_batch(model, table.X, table.window_end)
    return metrics.evaluate_predictions(table, preds, incident_log,
                                        grace_s=cfg.window.window_s)


def _train(cfg: ExperimentConfig, table) -> models.EnsembleModel:
    """Fit the gated ensemble on table: the one training step of train and
    of every sweep level.  Prints a summary line, and a warning: line when
    the detector has fewer negative rows than min_samples_leaf."""
    model = models.train_incident_ensemble(table, cfg.model,
                                           threshold=cfg.threshold)
    n_pos = int(table.label_incident.sum())
    n_neg = table.n_rows - n_pos
    print(f"trained on {table.n_rows} windows ({n_pos} positive); "
          f"roads={len(model.road_classes)} "
          f"severities={len(model.severity_classes)}")
    if n_neg < cfg.model.min_samples_leaf:
        print(f"warning: the detector has {n_neg} negative rows, fewer "
              f"than min_samples_leaf={cfg.model.min_samples_leaf}")
    return model


def _print_report(rep: metrics.EvalReport) -> None:
    for key, val in rep.as_dict().items():
        print(f"  {key}={metrics.format_metric(val)}")


# -- subcommand bodies --------------------------------------------------------


def cmd_fit_demand(args) -> int:
    series, avg, params = _fit_counts(args.counts)
    print(f"fit {len(series)} roads x {len(avg.counts)} bins "
          f"(bin={avg.bin_duration:g}s)")
    print(" ".join(f"{f.name}={float(getattr(params, f.name))!r}"
                   for f in dataclasses.fields(params)))
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    net = load_network(cfg.network_path())
    placement = _placement(cfg, net)
    params = _demand_params(cfg)
    echo_config(cfg, cfg.out_dir)
    t0 = time.perf_counter()
    for day in range(cfg.days):
        line, result = _simulate_day(cfg, net, placement, params,
                                     cfg.out_dir, day, audit=args.audit)
        print(line)
        if args.audit and not result.audit.ok:
            t, kind, detail = result.audit.violations[0]
            print(f"error: day {day:03d}: first audit violation at t={t}: "
                  f"{kind}: {detail}", file=sys.stderr)
            return 1
    print(f"simulated {cfg.days} day(s) in "
          f"{time.perf_counter() - t0:.1f}s -> {cfg.out_dir}")
    return 0


def _load_placed_raw(path: str, placement) -> sensors.RawDataset:
    """A day's raw table, which must hold exactly the placed sensors."""
    raw = sensors.load_raw(path)
    if raw.sensor_ids != placement.sensor_ids:
        raise ConfigError(
            f"{path}: holds sensors {list(raw.sensor_ids)}, but the config "
            f"places {list(placement.sensor_ids)}")
    return raw


def _load_network_log(path: str, net) -> list:
    """A day's incident log, each incident on a segment of the network."""
    log = incidents.read_incident_log(path)
    for spec in log:
        if spec.segment_id not in net.segments:
            raise ConfigError(f"{path}: incident {spec.id} is on segment "
                              f"{spec.segment_id!r}, which the network "
                              "lacks")
    return log


def cmd_extract_features(args) -> int:
    cfg = load_config(args.config)
    net = load_network(cfg.network_path())
    day_dirs = _find_day_dirs(args.raw)
    placement = _placement(cfg, net)
    table = features.concat_tables([
        _table(cfg, net, placement,
               _load_placed_raw(os.path.join(dd, "raw.csv"), placement),
               _load_network_log(os.path.join(dd, "incidents.csv"), net))
        for dd in day_dirs])
    features.write_feature_table(table, args.out)
    n_pos = int(table.label_incident.sum())
    print(f"{table.n_rows} windows ({n_pos} incident-labeled) from "
          f"{len(day_dirs)} day(s) -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config, {"counts": args.counts})
    params = _demand_params(cfg)
    results = []
    for dd in _find_day_dirs(args.raw):
        day = int(os.path.basename(dd).split("_")[1])
        schedule = demand.read_schedule(os.path.join(dd, "spawns.csv"),
                                        horizon=cfg.day_seconds)
        observed = validate.aggregate_bins(schedule, cfg.bin_seconds)
        # per-second spawning integrates the curve over each bin, which the
        # bin-center value approximates far better than the bin start
        centers = (np.arange(observed.size) * cfg.bin_seconds
                   + cfg.bin_seconds / 2.0)
        expected = demand.eval_flow(params, centers)
        results.append((day, validate.ks_two_sample(observed, expected)))
    out = args.out or os.path.join(args.raw, "validation.csv")
    validate.write_validation_report(results, out)
    for day, r in results:
        print(f"day {day:03d}: ks={r.statistic:.4f} p={r.p_value:.4f} "
              f"{'pass' if r.passed else 'FAIL'}")
    n_pass = sum(r.passed for _day, r in results)
    print(f"{n_pass}/{len(results)} day(s) consistent with the demand curve "
          f"-> {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    model = _train(cfg, features.read_feature_table(args.features))
    models.save_model(model, args.out)
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    table = features.read_feature_table(args.features)
    model = models.load_model(args.model)
    log = (incidents.read_incident_log(args.incidents)
           if args.incidents else None)
    rep = _evaluate(cfg, model, table, log)
    metrics.write_report(rep, args.out)
    _print_report(rep)
    print(f"report written to {args.out}")
    return 0


def cmd_sweep_sparsity(args) -> int:
    cfg = load_config(args.config)
    try:
        levels = [int(v) for v in args.sensors.split(",") if v.strip()]
    except ValueError:
        levels = []
    if not levels or min(levels) < 1 or len(set(levels)) < len(levels):
        raise ConfigError("--sensors takes distinct positive integers "
                          f"separated by commas, not {args.sensors!r}")
    net = load_network(cfg.network_path())
    full = _sensor_ids(cfg, net)
    _placement(cfg, net, full)  # each configured sensor placeable, once
    if max(levels) > len(full):
        raise ConfigError(f"level {max(levels)} exceeds the {len(full)} "
                          "available sensor sites")
    params = _demand_params(cfg)
    root = os.path.join(cfg.out_dir, "sweep")
    echo_config(cfg, root)

    # one simulation pass at the widest level serves every subset level:
    # capture is passive, so narrower deployments are column filters
    widest = _placement(cfg, net, full[:max(levels)])
    days = []
    for day in range(cfg.days + 1):
        line, result = _simulate_day(cfg, net, widest, params, root, day)
        print(line)
        days.append((result.raw, result.incident_log))
    rows = []
    for level in levels:
        ids = full[:level]
        placement = _placement(cfg, net, ids)
        # every table is built before concat_tables sees them, so no table
        # is built inside that call
        tables = [_table(cfg, net, placement,
                         sensors.subset_sensors(raw, ids), log)
                  for raw, log in days]
        model = _train(cfg, features.concat_tables(tables[:cfg.days]))
        rep = _evaluate(cfg, model, tables[cfg.days], days[cfg.days][1])
        out = os.path.join(root, f"level_{level:02d}")
        os.makedirs(out, exist_ok=True)
        metrics.write_report(rep, os.path.join(out, "report.txt"))
        models.save_model(model, os.path.join(out, "model.json"))
        rows.append((level, rep))
        print(f"level {level}: "
              f"event_dr={metrics.format_metric(rep.event_detection_rate)} "
              f"far={metrics.format_metric(rep.false_alarm_rate)} "
              f"mttd={metrics.format_metric(rep.mttd_s)}")
    out_csv = os.path.join(root, "sweep.csv")
    metrics.write_sweep(rows, out_csv)
    print(f"sweep table written to {out_csv}")
    return 0


# -- argument surface ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trafficlab",
        description="traffic simulation and sparse-sensor incident "
                    "detection pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("fit-demand",
                       help="fit the two-sinusoid flow curve to counts")
    q.add_argument("--counts", required=True)
    q.set_defaults(func=cmd_fit_demand)

    q = sub.add_parser("simulate", help="generate per-day raw datasets")
    q.add_argument("--config", required=True)
    q.add_argument("--audit", action="store_true",
                   help="audit every step; exit 1 on the first violation")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("extract-features",
                       help="build the labeled feature table")
    q.add_argument("--raw", required=True,
                   help="directory holding day_NNN subdirectories")
    q.add_argument("--out", required=True)
    q.add_argument("--config", required=True)
    q.set_defaults(func=cmd_extract_features)

    q = sub.add_parser("validate",
                       help="per-day KS comparison against the demand curve")
    q.add_argument("--raw", required=True)
    q.add_argument("--counts", required=True)
    q.add_argument("--out", default=None)
    q.add_argument("--config", required=True)
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("train", help="train the gated incident ensemble")
    q.add_argument("--features", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--config", required=True)
    q.set_defaults(func=cmd_train)

    q = sub.add_parser("evaluate", help="score a model on a feature table")
    q.add_argument("--model", required=True)
    q.add_argument("--features", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--incidents", default=None,
                   help="incident log enabling event-level metrics")
    q.add_argument("--config", required=True)
    q.set_defaults(func=cmd_evaluate)

    q = sub.add_parser("sweep-sparsity",
                       help="retrain and evaluate across sensor counts")
    q.add_argument("--config", required=True)
    q.add_argument("--sensors", required=True,
                   help="comma-separated sensor counts, e.g. 8,7,6,5,4,3")
    q.set_defaults(func=cmd_sweep_sparsity)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
