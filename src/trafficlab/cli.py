"""Command-line pipeline driver.

Subcommands cover the experiment lifecycle: fit-demand, simulate,
extract-features, validate, train, evaluate, sweep-sparsity, and the
canned highway scenario.  Every run is reproducible from config plus seed;
the resolved config is echoed into each output directory.  Day-level
randomness derives from (seed, day index) so days are independent and a
later day does not shift an earlier one.
"""
from __future__ import annotations

import argparse
import glob
import os
import sys
import time

import numpy as np

from . import demand, features, incidents, metrics, models, sensors, validate
from .expconfig import ConfigError, ExperimentConfig, echo_config, load_config
from .microsim import run
from .roadnet import (NetworkError, SensorPlacement, contiguous_sensor_pairs,
                      load_network, validate_network, validate_placement)


_ERRORS = (ValueError, OSError)  # module errors all subclass ValueError


def _load_net(path: str):
    net = load_network(path)
    validate_network(net)
    return net


def _placement(cfg: ExperimentConfig, net, ids=None) -> SensorPlacement:
    if ids is None:
        ids = cfg.sensors
    if ids is None:
        ids = sorted(n.id for n in net.nodes.values() if n.sensor_site)
    placement = SensorPlacement(tuple(ids), cfg.sensor_range_m)
    validate_placement(net, placement)
    return placement


def _demand_params(cfg: ExperimentConfig) -> demand.FlowModelParams:
    if cfg.demand_params:
        return demand.read_params(cfg.demand_params)
    series = demand.read_counts_csv(cfg.counts_path())
    avg = demand.average_counts(list(series.values()))
    return demand.lm_fit(avg, demand.fft_init_params(avg))


def _day_seeds(seed: int, day: int):
    """Three independent streams per (seed, day): spawns, incident plan,
    driver noise."""
    state = np.random.SeedSequence([seed, day]).generate_state(3)
    return tuple(int(s) for s in state)


def _day_dir(root: str, day: int) -> str:
    return os.path.join(root, f"day_{day:03d}")


def _simulate_day(cfg: ExperimentConfig, net, placement, params, root: str,
                  day: int):
    spawn_seed, inc_seed, sim_seed = _day_seeds(cfg.seed, day)
    inc_cfg = cfg.incident_config()
    schedule = demand.spawn_schedule(
        params, net, cfg.day_seconds, seed=spawn_seed,
        bin_duration=cfg.bin_seconds,
        entry_weights=cfg.entry_weights or None,
        exit_weights=cfg.exit_weights or None)
    plan = incidents.plan_incidents(schedule, inc_cfg, net, seed=inc_seed)
    result = run(net, schedule, plan, placement, cfg.sim_config(sim_seed),
                 incident_cfg=inc_cfg)
    out = _day_dir(root, day)
    os.makedirs(out, exist_ok=True)
    sensors.emit_raw(result.raw, result.incident_log,
                     os.path.join(out, "raw.csv"),
                     os.path.join(out, "incidents.csv"))
    demand.write_schedule(schedule, os.path.join(out, "spawns.csv"))
    return result, plan


def _find_day_dirs(root: str) -> list:
    dirs = sorted(glob.glob(os.path.join(root, "day_[0-9][0-9][0-9]")))
    if not dirs:
        raise ConfigError(f"no day_NNN directories under {root}")
    return dirs


def _extract_table(cfg: ExperimentConfig, net, placement,
                   day_dirs) -> features.FeatureTable:
    pairs = contiguous_sensor_pairs(net, placement)
    wcfg = cfg.window_config()
    tables = []
    for dd in day_dirs:
        raw = sensors.load_raw(os.path.join(dd, "raw.csv"))
        log = incidents.read_incident_log(os.path.join(dd, "incidents.csv"))
        recs = features.reidentify_travel_times(raw, pairs,
                                                staleness=cfg.staleness_s)
        tables.append(features.build_feature_rows(raw, recs, wcfg, log, net,
                                                  pairs=pairs))
    return features.concat_tables(tables)


def _table_from_raw(cfg: ExperimentConfig, net, placement,
                    raw: sensors.RawDataset, log) -> features.FeatureTable:
    pairs = contiguous_sensor_pairs(net, placement)
    recs = features.reidentify_travel_times(raw, pairs,
                                            staleness=cfg.staleness_s)
    return features.build_feature_rows(raw, recs, cfg.window_config(), log,
                                       net, pairs=pairs)


def _train_model(cfg: ExperimentConfig,
                 table: features.FeatureTable) -> models.EnsembleModel:
    return models.train_incident_ensemble(table, cfg.model_config(),
                                          threshold=cfg.threshold)


def _evaluate(cfg: ExperimentConfig, model, table, incident_log=None):
    if model.feature_names != table.feature_names:
        raise ConfigError("model and feature table schemas differ")
    preds = models.infer_batch(model, table.X, table.window_end)
    grace = cfg.window_config().window
    return metrics.evaluate_predictions(table, preds, incident_log,
                                        grace_s=grace)


def _print_report(rep: metrics.EvalReport) -> None:
    for key, val in rep.as_dict().items():
        print(f"  {key}={metrics.format_metric(val)}")


# -- subcommand bodies --------------------------------------------------------


def cmd_fit_demand(args) -> int:
    series = demand.read_counts_csv(args.counts)
    avg = demand.average_counts(list(series.values()))
    init = demand.fft_init_params(avg)
    params = demand.lm_fit(avg, init)
    demand.write_params(params, args.out)
    print(f"fit {len(series)} roads x {len(avg.counts)} bins "
          f"(bin={avg.bin_duration:g}s)")
    print(f"fit_rmse={params.fit_rmse!r} alpha_sigma={params.alpha_sigma!r}")
    print(f"params written to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, {"days": args.days,
                                    "out_dir": args.out_dir})
    net = _load_net(cfg.network_path())
    placement = _placement(cfg, net)
    params = _demand_params(cfg)
    echo_config(cfg, cfg.out_dir)
    t0 = time.perf_counter()
    for day in range(cfg.days):
        result, plan = _simulate_day(cfg, net, placement, params,
                                     cfg.out_dir, day)
        print(f"day {day:03d}: spawned={result.spawned} "
              f"arrived={result.arrived} incidents={len(plan)}")
    print(f"simulated {cfg.days} day(s) in "
          f"{time.perf_counter() - t0:.1f}s -> {cfg.out_dir}")
    return 0


def cmd_extract_features(args) -> int:
    cfg = (load_config(args.config) if args.config else ExperimentConfig())
    net = _load_net(args.network if args.network else cfg.network_path())
    day_dirs = _find_day_dirs(args.raw)
    placement = _placement(cfg, net)
    table = _extract_table(cfg, net, placement, day_dirs)
    features.write_feature_table(table, args.out)
    n_pos = int(table.label_incident.sum())
    print(f"{table.n_rows} windows ({n_pos} incident-labeled) from "
          f"{len(day_dirs)} day(s) -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    cfg = (load_config(args.config, {"counts": args.counts}) if args.config
           else ExperimentConfig(counts=args.counts))
    params = _demand_params(cfg)
    rows = []
    for dd in _find_day_dirs(args.raw):
        day = int(os.path.basename(dd).split("_")[1])
        spawns = os.path.join(dd, "spawns.csv")
        if os.path.exists(spawns):
            source = demand.read_schedule(spawns, horizon=cfg.day_seconds)
        else:
            source = sensors.load_raw(os.path.join(dd, "raw.csv"))
        observed = validate.aggregate_bins(source, cfg.bin_seconds)
        # per-second spawning integrates the curve over each bin, which the
        # bin-center value approximates far better than the bin start
        centers = observed.times() + cfg.bin_seconds / 2.0
        expected = demand.eval_flow(params, centers)
        rows.append(validate.DayValidation(
            day, validate.ks_two_sample(observed.counts, expected)))
    out = args.out or os.path.join(args.raw, "validation.csv")
    validate.write_validation_report(rows, out)
    for row in rows:
        r = row.result
        print(f"day {row.day:03d}: ks={r.statistic:.4f} p={r.p_value:.4f} "
              f"{'pass' if r.passed else 'FAIL'}")
    n_pass = sum(r.result.passed for r in rows)
    print(f"{n_pass}/{len(rows)} day(s) consistent with the demand curve "
          f"-> {out}")
    return 0


def cmd_train(args) -> int:
    cfg = (load_config(args.config) if args.config else ExperimentConfig())
    table = features.read_feature_table(args.features)
    model = _train_model(cfg, table)
    models.save_model(model, args.out)
    n_pos = int(table.label_incident.sum())
    print(f"trained on {table.n_rows} windows ({n_pos} positive); "
          f"roads={len(model.road_classes)} "
          f"severities={len(model.severity_classes)}")
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = (load_config(args.config) if args.config else ExperimentConfig())
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
    cfg = load_config(args.config, {"out_dir": args.out_dir})
    levels = [int(v) for v in args.sensors.split(",") if v.strip()]
    if not levels or any(v < 1 for v in levels):
        raise ConfigError("sensor counts must be positive integers")
    net = _load_net(cfg.network_path())
    full = cfg.sensors or sorted(n.id for n in net.nodes.values()
                                 if n.sensor_site)
    if max(levels) > len(full):
        raise ConfigError(f"level {max(levels)} exceeds the {len(full)} "
                          "available sensor sites")
    root = os.path.join(cfg.out_dir, "sweep")
    echo_config(cfg, root)
    params = _demand_params(cfg)

    # one simulation pass at the widest level serves every subset level:
    # capture is passive, so narrower deployments are column filters
    placement_full = _placement(cfg, net, full[:max(levels)])
    n_days = cfg.days + 1  # final day index is the held-out evaluation day
    day_raw: list = []
    day_log: list = []
    for day in range(n_days):
        result, _plan = _simulate_day(cfg, net, placement_full, params,
                                      root, day)
        day_raw.append(result.raw)
        day_log.append(result.incident_log)
        print(f"day {day:03d}: spawned={result.spawned} "
              f"incidents={len(result.incident_log)}"
              + (" [eval]" if day == cfg.days else ""))

    header = metrics.report_csv_header(("n_sensors",))
    lines = [header]
    for level in levels:
        ids = full[:level]
        placement = SensorPlacement(tuple(ids), cfg.sensor_range_m)
        train_tables = []
        for day in range(cfg.days):
            raw = sensors.subset_sensors(day_raw[day], ids)
            train_tables.append(_table_from_raw(cfg, net, placement, raw,
                                                day_log[day]))
        table = features.concat_tables(train_tables)
        model = _train_model(cfg, table)
        eval_raw = sensors.subset_sensors(day_raw[cfg.days], ids)
        eval_table = _table_from_raw(cfg, net, placement, eval_raw,
                                     day_log[cfg.days])
        rep = _evaluate(cfg, model, eval_table, day_log[cfg.days])
        level_dir = os.path.join(root, f"level_{level:02d}")
        os.makedirs(level_dir, exist_ok=True)
        metrics.write_report(rep, os.path.join(level_dir, "report.txt"))
        models.save_model(model, os.path.join(level_dir, "model.json"))
        lines.append(metrics.report_csv_row(rep, (level,)))
        print(f"level {level}: "
              f"event_dr={metrics.format_metric(rep.event_detection_rate)} "
              f"far={metrics.format_metric(rep.false_alarm_rate)} "
              f"mttd={metrics.format_metric(rep.mttd_s)}")
    out_csv = os.path.join(root, "sweep.csv")
    with open(out_csv, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"sweep table written to {out_csv}")
    return 0


def cmd_highway(args) -> int:
    cfg = load_config(args.config, {"out_dir": args.out_dir})
    net = _load_net(cfg.network_path())
    # ramp-metered deployment: take every sensor-capable node, which on the
    # bundled highway fixture is exactly the ramp-adjacent mainline nodes
    placement = _placement(cfg, net)
    params = _demand_params(cfg)
    root = cfg.out_dir
    echo_config(cfg, root)
    n_days = cfg.days + 1
    day_dirs = []
    logs = []
    for day in range(n_days):
        result, _plan = _simulate_day(cfg, net, placement, params, root, day)
        day_dirs.append(_day_dir(root, day))
        logs.append(result.incident_log)
        print(f"day {day:03d}: spawned={result.spawned} "
              f"incidents={len(result.incident_log)}"
              + (" [eval]" if day == cfg.days else ""))
    table = _extract_table(cfg, net, placement, day_dirs[:cfg.days])
    features.write_feature_table(table, os.path.join(root, "features.csv"))
    model = _train_model(cfg, table)
    models.save_model(model, os.path.join(root, "model.json"))
    eval_table = _extract_table(cfg, net, placement, day_dirs[cfg.days:])
    rep = _evaluate(cfg, model, eval_table, logs[cfg.days])
    metrics.write_report(rep, os.path.join(root, "report.txt"))
    _print_report(rep)
    print(f"highway scenario complete -> {root}")
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
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_fit_demand)

    q = sub.add_parser("simulate", help="generate per-day raw datasets")
    q.add_argument("--config", required=True)
    q.add_argument("--days", type=int, default=None)
    q.add_argument("--out-dir", default=None)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("extract-features",
                       help="build the labeled feature table")
    q.add_argument("--raw", required=True,
                   help="directory holding day_NNN subdirectories")
    q.add_argument("--network", default=None)
    q.add_argument("--out", required=True)
    q.add_argument("--config", default=None)
    q.set_defaults(func=cmd_extract_features)

    q = sub.add_parser("validate",
                       help="per-day KS comparison against the demand curve")
    q.add_argument("--raw", required=True)
    q.add_argument("--counts", required=True)
    q.add_argument("--out", default=None)
    q.add_argument("--config", default=None)
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("train", help="train the gated incident ensemble")
    q.add_argument("--features", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--config", default=None)
    q.set_defaults(func=cmd_train)

    q = sub.add_parser("evaluate", help="score a model on a feature table")
    q.add_argument("--model", required=True)
    q.add_argument("--features", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--incidents", default=None,
                   help="incident log enabling event-level metrics")
    q.add_argument("--config", default=None)
    q.set_defaults(func=cmd_evaluate)

    q = sub.add_parser("sweep-sparsity",
                       help="retrain and evaluate across sensor counts")
    q.add_argument("--config", required=True)
    q.add_argument("--sensors", required=True,
                   help="comma-separated sensor counts, e.g. 8,7,6,5,4,3")
    q.add_argument("--out-dir", default=None)
    q.set_defaults(func=cmd_sweep_sparsity)

    q = sub.add_parser("highway",
                       help="end-to-end run on the linear highway scenario")
    q.add_argument("--config", required=True)
    q.add_argument("--out-dir", default=None)
    q.set_defaults(func=cmd_highway)
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
