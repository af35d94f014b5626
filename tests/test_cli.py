"""Experiment config and command-line pipeline tests.

Index:
  expconfig   YAML parsing, defaults, key rejection, echo round trip
  commands    fit-demand, simulate, extract-features, validate,
              train, evaluate, sweep-sparsity (on the line network and on
              highway8, where a level equals the staged commands); the
              benchmark's tracers around simulate
  errors      exit code 2 on module errors, undecodable input files,
              malformed sub-models, argparse usage failures; the exact
              option surface of every subcommand
"""
import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil

import numpy as np
import pytest
import yaml

from trafficlab import demand, features, incidents, microsim, sensors
from trafficlab.cli import build_parser, main
from trafficlab.expconfig import (ConfigError, ExperimentConfig, echo_config,
                                  load_config)
from trafficlab.metrics import MetricsError, read_report
from trafficlab.models import ModelError, load_model
from trafficlab.netgen import bundled_path
from trafficlab.roadnet import NetworkError, load_network, save_network

from conftest import make_line_net
from test_models import gated_table

DAY = 4800
BIN = 300
N_BINS = DAY // BIN


def write_yaml(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


def write_counts_csv(path, scale=1.0):
    """Two bin-aligned harmonics, exact for the spectral initializer."""
    t = np.arange(N_BINS) * BIN + BIN / 2.0
    c = scale * (15.0 + 6.0 * np.sin(2 * math.pi / DAY * t + 0.4)
                 + 3.0 * np.sin(4 * math.pi / DAY * t - 1.1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("road_label,start_time_s,bin_s,count\n")
        for road in ("r1", "r2"):
            for i in range(N_BINS):
                fh.write(f"{road},{i * BIN},{BIN},{c[i]:.3f}\n")
    return str(path)


def line_experiment(tmp_path, **extra):
    """Config document for a quick line-network experiment."""
    net_path = str(tmp_path / "line.net")
    save_network(make_line_net(), net_path)
    doc = {"network": net_path,
           "counts": write_counts_csv(tmp_path / "counts.csv"),
           "out_dir": str(tmp_path / "runs"),
           "days": 1, "day_seconds": DAY, "bin_seconds": BIN, "seed": 0,
           "sensors": ["a1", "a2"], "sensor_range_m": 60.0,
           "window": {"window_s": 600, "stride_s": 150,
                      "label_mode": "window"},
           "incidents": {"p_incident": 0.02, "p_crash_given_incident": 0.3,
                         "p_severe": 0.3, "minor_duration_s": [300, 600],
                         "severe_duration_s": [600, 900],
                         "base_radius_m": 100.0, "slowdown_factor": 0.2},
           "model": {"n_trees": 30, "max_depth": 3}}
    doc.update(extra)
    return write_yaml(tmp_path / "experiment.yaml", doc)


# -- expconfig ----------------------------------------------------------------


def test_empty_config_takes_defaults(tmp_path):
    cfg = load_config(write_yaml(tmp_path / "c.yaml", {}))
    assert cfg.days == 31
    assert cfg.day_seconds == 86400
    assert cfg.sensors is None
    assert cfg.window_config().window == 600
    assert cfg.incident_config().p_incident == 1e-4
    assert cfg.model_config().seed == cfg.seed


def test_nested_sections_reach_module_configs(tmp_path):
    path = line_experiment(tmp_path, seed=9)
    cfg = load_config(path)
    w = cfg.window_config()
    assert (w.window, w.stride, w.label_mode) == (600, 150, "window")
    inc = cfg.incident_config()
    assert inc.minor_duration_s == (300, 600)  # lists become tuples
    assert inc.p_incident == 0.02
    assert cfg.model_config().n_trees == 30
    assert cfg.model_config().seed == 9      # inherits the experiment seed
    assert cfg.sim_config(seed=4).seed == 4
    mdl = load_config(path, {"model": {"n_trees": 5, "seed": 2}})
    assert (mdl.model_config().n_trees, mdl.model_config().seed) == (5, 2)


def test_config_rejections(tmp_path):
    def bad(doc, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_yaml(tmp_path / "bad.yaml", doc))

    bad({"speling": 1}, "unknown keys in 'config'")
    bad({"window": {"width_s": 600}}, "unknown keys in 'window'")
    bad({"incidents": {"p_typo": 0.1}}, "unknown keys in 'incidents'")
    bad({"sim": 7}, "must be a mapping")
    # the simulator has one engine and a fixed 1 s step; neither is a key
    bad({"sim": {"engine": "compiled"}}, "unknown keys in 'sim'")
    bad({"sim": {"dt": 1.0}}, "unknown keys in 'sim'")
    bad({"days": 0}, "at least 1")
    bad({"threshold": 1.0}, "lie in")
    bad({"bin_seconds": 7}, "divide day_seconds")
    bad({"staleness_s": 0}, "staleness_s must be positive")
    bad({"staleness_s": -60}, "staleness_s must be positive")
    # nested values are validated at load time, tagged with the file path
    bad({"window": {"window_s": 100, "stride_s": 300}}, r"bad\.yaml")
    bad({"model": {"n_trees": 0}}, r"bad\.yaml")
    with pytest.raises(ConfigError, match="mapping"):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n", encoding="utf-8")
        load_config(p)


def test_input_resolution(tmp_path):
    cfg = ExperimentConfig()
    assert cfg.network_path() == str(bundled_path("grid4x4.net"))
    assert cfg.counts_path() == str(bundled_path("city_counts.csv"))
    assert ExperimentConfig(network="highway8").network_path().endswith(
        "highway8.net")
    real = tmp_path / "my.net"
    save_network(make_line_net(), real)
    assert ExperimentConfig(network=str(real)).network_path() == str(real)
    with pytest.raises(ConfigError, match="neither a file nor a bundled"):
        ExperimentConfig(network="no_such_net").network_path()


def assert_echo_reloads(path):
    """An echoed config holds only keys that take effect, and reloads to
    the document it was written from."""
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    assert "seed" not in doc["sim"] and "objective" not in doc["model"]
    assert load_config(path).resolved_dict() == doc


def test_echo_round_trip(tmp_path):
    # every section set, so the echo never writes a key load_config rejects
    cfg = load_config(line_experiment(
        tmp_path, seed=3, threshold=0.4, staleness_s=900.0,
        demand_params=str(tmp_path / "params.txt"),
        sim={"accel": 2.0, "decel": 4.0, "driver_imperfection": 0.2,
             "min_gap": 2.0, "vehicle_length": 4.5},
        model={"n_trees": 30, "max_depth": 3, "learning_rate": 0.2,
               "min_samples_leaf": 5, "subsample": 0.9, "reg_lambda": 2.0,
               "max_bins": 64, "seed": 4},
        entry_weights={"a0": 2.0}, exit_weights={"a3": 1.0}))
    echo = echo_config(cfg, tmp_path / "out")
    assert os.path.basename(echo) == "config_used.yaml"
    assert_echo_reloads(echo)
    assert load_config(echo).resolved_dict() == cfg.resolved_dict()


# -- commands -----------------------------------------------------------------


def test_fit_demand_command(tmp_path, capsys):
    out = str(tmp_path / "params.csv")
    rc = main(["fit-demand", "--counts", str(bundled_path("city_counts.csv")),
               "--out", out])
    assert rc == 0
    params = demand.read_params(out)
    assert params.fit_rmse > 0.0
    text = capsys.readouterr().out
    assert "fit_rmse=" in text and "96 bins" in text


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    """One simulated two-day experiment shared by the pipeline tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg_path = line_experiment(tmp, days=2)
    rc = main(["simulate", "--config", cfg_path])
    assert rc == 0
    return tmp, cfg_path, str(tmp / "runs")


def test_simulate_layout_and_determinism(sim_run, tmp_path, capsys):
    tmp, cfg_path, out_dir = sim_run
    assert_echo_reloads(os.path.join(out_dir, "config_used.yaml"))
    for day in ("day_000", "day_001"):
        for name in ("raw.csv", "incidents.csv", "spawns.csv"):
            assert os.path.exists(os.path.join(out_dir, day, name))
    assert not os.path.exists(os.path.join(out_dir, "day_002"))

    again = line_experiment(tmp_path, days=2,
                            out_dir=str(tmp_path / "again"))
    rc = main(["simulate", "--config", again])
    assert rc == 0
    for day in ("day_000", "day_001"):
        a = open(os.path.join(out_dir, day, "raw.csv")).read()
        b = open(os.path.join(tmp_path, "again", day, "raw.csv")).read()
        assert a == b
    assert "day 001: spawned=" in capsys.readouterr().out


def test_simulate_audit_reports_counts_and_fails_on_a_violation(
        sim_run, tmp_path, capsys, monkeypatch):
    """--audit prints the audit's counts on each day line and changes no
    output; a violation ends the run with exit 1 and one error line that
    names the first violation."""
    _tmp, _cfg_path, out_dir = sim_run
    audited = tmp_path / "audited"
    assert main(["simulate", "--audit", "--config", line_experiment(
        tmp_path, days=2, out_dir=str(audited))]) == 0
    out = capsys.readouterr().out
    for day in ("day_000", "day_001"):
        assert f"{day[4:]}: spawned=" in out
        for name in ("raw.csv", "incidents.csv", "spawns.csv"):
            with open(os.path.join(out_dir, day, name), "rb") as fa, \
                    open(audited / day / name, "rb") as fb:
                assert fa.read() == fb.read(), (day, name)
    assert out.count(f"audit: checked_steps={DAY} violations=0") == 2

    real = microsim.Simulation._audit_step

    def one_collision(sim, t, report):
        real(sim, t, report)
        if t in (7, 9):
            report.flag(t, "collision", f"3 and 4 gap -{t}.0")

    monkeypatch.setattr(microsim.Simulation, "_audit_step", one_collision)
    assert main(["simulate", "--audit", "--config", line_experiment(
        tmp_path, days=2, out_dir=str(tmp_path / "broken"))]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: day 000: first audit violation at t=7: "
                            "collision: 3 and 4 gap -7.0\n")
    assert f"audit: checked_steps={DAY} violations=2" in captured.out
    assert "day 001" not in captured.out
    assert (tmp_path / "broken" / "day_000" / "raw.csv").exists()


def test_extract_features_command(sim_run, capsys):
    tmp, cfg_path, out_dir = sim_run
    out = str(tmp / "features.csv")
    rc = main(["extract-features", "--raw", out_dir, "--out", out,
               "--config", cfg_path])
    assert rc == 0
    table = features.read_feature_table(out)
    # 29 windows per 4800 s day at stride 150, two days
    assert table.n_rows == 58
    assert "tt_a1__a2" in table.feature_names
    assert "windows" in capsys.readouterr().out


def test_validate_command(sim_run, capsys):
    tmp, cfg_path, out_dir = sim_run
    out = str(tmp / "validation.csv")
    rc = main(["validate", "--raw", out_dir,
               "--counts", str(tmp / "counts.csv"),
               "--out", out, "--config", cfg_path])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "day,ks_statistic,p_value,pass"
    assert len(lines) == 3
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1"]
    text = capsys.readouterr().out
    assert "day 000: ks=" in text


def test_validate_takes_the_configured_demand_curve(sim_run, tmp_path):
    """With demand_params set, validate checks against that curve and not
    a refit of --counts."""
    tmp, cfg_path, out_dir = sim_run
    counts_a = str(tmp / "counts.csv")
    counts_b = write_counts_csv(tmp_path / "counts_b.csv", scale=3.0)
    params = str(tmp_path / "params.csv")
    assert main(["fit-demand", "--counts", counts_a, "--out", params]) == 0
    with open(cfg_path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    cfg_params = write_yaml(tmp_path / "with_params.yaml",
                            dict(doc, demand_params=params))

    def report(cfg, counts, name):
        out = str(tmp_path / name)
        assert main(["validate", "--raw", out_dir, "--counts", counts,
                     "--out", out, "--config", cfg]) == 0
        return open(out, encoding="utf-8").read()

    from_params = report(cfg_params, counts_b, "params.csv.out")
    assert from_params == report(cfg_path, counts_a, "a.csv.out")
    assert from_params != report(cfg_path, counts_b, "b.csv.out")


def test_train_and_evaluate_commands(tmp_path, capsys):
    table = gated_table(seed=6)
    feat = str(tmp_path / "features.csv")
    features.write_feature_table(table, feat)
    model_path = str(tmp_path / "model.json")
    cfg = write_yaml(tmp_path / "defaults.yaml", {})
    rc = main(["train", "--features", feat, "--out", model_path,
               "--config", cfg])
    assert rc == 0
    model = load_model(model_path)
    assert model.feature_names == list(table.feature_names)

    report_path = str(tmp_path / "report.txt")
    rc = main(["evaluate", "--model", model_path, "--features", feat,
               "--out", report_path, "--config", cfg])
    assert rc == 0
    rep = read_report(report_path)
    assert rep["windows"] == table.n_rows
    assert rep["auc"] > 0.9          # training-set sanity, learnable labels
    assert "report written" in capsys.readouterr().out

    alien = features.FeatureTable(
        ["g0", "g1", "g2"], table.X, table.window_end,
        table.label_incident, table.label_road, table.label_severity)
    alien_path = str(tmp_path / "alien.csv")
    features.write_feature_table(alien, alien_path)
    rc = main(["evaluate", "--model", model_path, "--features", alien_path,
               "--out", report_path, "--config", cfg])
    assert rc == 2

    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["detector"]["schema_hash"] = "0" * 16
    tampered = str(tmp_path / "tampered.json")
    with open(tampered, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = main(["evaluate", "--model", tampered, "--features", feat,
               "--out", report_path, "--config", cfg])
    assert rc == 2
    assert "schema_hash" in one_error_line(capsys)


def test_train_warns_when_detector_negatives_are_few(tmp_path, capsys):
    """A detector fitted on fewer negative rows than min_samples_leaf (20
    by default) cannot split them off: train flags it under its summary
    line, and only then."""
    table = gated_table(seed=6)
    keep = set(np.flatnonzero(~table.label_incident)[:7].tolist())
    few = features.FeatureTable(
        table.feature_names, table.X, table.window_end,
        np.array([i not in keep for i in range(table.n_rows)]),
        [None if i in keep else r or "east_rd"
         for i, r in enumerate(table.label_road)],
        [None if i in keep else s or "minor"
         for i, s in enumerate(table.label_severity)])
    model_path = str(tmp_path / "model.json")
    cfg = write_yaml(tmp_path / "defaults.yaml", {})
    for tbl, warned in ((few, True), (table, False)):
        feat = str(tmp_path / "features.csv")
        features.write_feature_table(tbl, feat)
        capsys.readouterr()
        assert main(["train", "--features", feat, "--out", model_path,
                     "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("trained on")
        assert (out[1] == "warning: the detector has 7 negative rows, "
                "fewer than min_samples_leaf=20") == warned
        assert sum(line.startswith("warning:") for line in out) == warned


def test_evaluate_rejects_a_version_1_model(tmp_path, capsys):
    table = gated_table(seed=6)
    feat = str(tmp_path / "features.csv")
    features.write_feature_table(table, feat)
    model_path = str(tmp_path / "model.json")
    cfg = write_yaml(tmp_path / "defaults.yaml", {})
    assert main(["train", "--features", feat, "--out", model_path,
                 "--config", cfg]) == 0
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["format"] = "trafficlab-model/1"
    old = str(tmp_path / "old_model.json")
    with open(old, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["evaluate", "--model", old, "--features", feat,
                 "--out", str(tmp_path / "report.txt"),
                 "--config", cfg]) == 2
    assert one_error_line(capsys) == (
        f"error: {old}: not a trafficlab-model/2 file\n")
    assert not os.path.exists(tmp_path / "report.txt")


def test_sweep_sparsity_command(tmp_path, capsys):
    cfg_path = line_experiment(tmp_path)
    rc = main(["sweep-sparsity", "--config", cfg_path, "--sensors", "2,1"])
    assert rc == 0
    root = str(tmp_path / "runs" / "sweep")
    lines = open(os.path.join(root, "sweep.csv")).read().splitlines()
    assert lines[0].startswith("n_sensors,windows,tp,fp,tn,fn,")
    assert len(lines) == 3
    assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "1"]
    for level in ("level_02", "level_01"):
        assert os.path.exists(os.path.join(root, level, "report.txt"))
        assert os.path.exists(os.path.join(root, level, "model.json"))
    # a training day plus the held-out evaluation day
    assert os.path.exists(os.path.join(root, "day_001", "raw.csv"))
    assert_echo_reloads(os.path.join(root, "config_used.yaml"))
    assert "level 1: event_dr=" in capsys.readouterr().out


def test_sweep_warns_per_level_when_detector_negatives_are_few(tmp_path,
                                                              capsys):
    """Every sweep level trains through the step train uses, so a level
    whose detector has fewer negative rows than min_samples_leaf says so
    under its summary line, once."""
    cfg_path = line_experiment(
        tmp_path, model={"n_trees": 5, "max_depth": 3,
                         "min_samples_leaf": 30})  # > the 29 windows
    assert main(["sweep-sparsity", "--config", cfg_path,
                 "--sensors", "2,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    trained = [i for i, line in enumerate(out)
               if line.startswith("trained on 29 windows (")]
    assert len(trained) == 2
    for i, level in zip(trained, (2, 1)):
        n_pos = int(out[i].split("(")[1].split()[0])
        assert out[i + 1] == (f"warning: the detector has {29 - n_pos} "
                              "negative rows, fewer than "
                              "min_samples_leaf=30")
        assert out[i + 2].startswith(f"level {level}: event_dr=")
    assert sum(line.startswith("warning:") for line in out) == 2


@pytest.fixture(scope="module")
def highway_sweep(tmp_path_factory):
    """A one-level sweep over all 7 ramp sensor sites of highway8: a
    training day and the held-out day.  The benchmark's highway_sweep
    workload takes its incident mix from this config."""
    tmp = tmp_path_factory.mktemp("highway")
    cfg_path = line_experiment(
        tmp, network="highway8", sensors=None, sensor_range_m=80.0,
        out_dir=str(tmp / "hwy"),
        incidents={"p_incident": 0.03, "p_crash_given_incident": 0.3,
                   "p_severe": 0.3, "minor_duration_s": [300, 600],
                   "severe_duration_s": [600, 900],
                   "base_radius_m": 150.0, "slowdown_factor": 0.2})
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["sweep-sparsity", "--config", cfg_path, "--sensors", "7"])
    assert rc == 0
    return cfg_path, str(tmp / "hwy" / "sweep"), stdout.getvalue().splitlines()


def test_sweep_on_highway8(highway_sweep):
    _cfg_path, root, out = highway_sweep
    for name in ("model.json", "report.txt"):
        assert os.path.exists(os.path.join(root, "level_07", name))
    assert_echo_reloads(os.path.join(root, "config_used.yaml"))
    rep = read_report(os.path.join(root, "level_07", "report.txt"))
    assert rep["windows"] == 29      # the held-out day only
    assert rep["n_events"] >= 1
    assert out[0].startswith("day 000: spawned=")
    assert " arrived=" in out[0] and " incidents=" in out[0]
    assert not out[0].endswith("[eval]")
    assert out[1].startswith("day 001: ") and out[1].endswith(" [eval]")
    assert out[-2].startswith("level 7: event_dr=")
    assert out[-1].startswith("sweep table written")


def test_sweep_level_equals_the_staged_commands(highway_sweep, tmp_path):
    """A sweep level builds its tables in memory.  extract-features over
    the written training day and train reproduce its model.json byte for
    byte; extract-features over the held-out day and evaluate --incidents
    reproduce its report.txt."""
    cfg_path, root, _out = highway_sweep
    for day, stage in (("day_000", "train"), ("day_001", "eval")):
        shutil.copytree(os.path.join(root, day), tmp_path / stage / day)
        assert main(["extract-features", "--raw", str(tmp_path / stage),
                     "--out", str(tmp_path / f"{stage}.csv"),
                     "--config", cfg_path]) == 0
    assert main(["train", "--features", str(tmp_path / "train.csv"),
                 "--out", str(tmp_path / "model.json"),
                 "--config", cfg_path]) == 0
    assert main(["evaluate", "--model", str(tmp_path / "model.json"),
                 "--features", str(tmp_path / "eval.csv"),
                 "--incidents", os.path.join(root, "day_001", "incidents.csv"),
                 "--out", str(tmp_path / "report.txt"),
                 "--config", cfg_path]) == 0
    for name in ("model.json", "report.txt"):
        with open(os.path.join(root, "level_07", name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_benchmark_tracers_wrap_every_target(tmp_path, monkeypatch):
    """perfbench's traced run swaps package functions for wrappers by name,
    from outside src/: every name it wraps must resolve, be swapped in and
    restored, and the step counters must count what the simulation ran."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import layers

    cfg_path = line_experiment(tmp_path)
    full, stage = layers.full_tracer(), layers.stage_tracer(lambda: None)
    for tracer in (full, stage):
        with tracer:
            for owner, attr, _span, _hook in tracer.targets:
                assert hasattr(getattr(owner, attr), "__wrapped__"), attr
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--config", cfg_path]) == 0
        for owner, attr, _span, _hook in tracer.targets:
            assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
    assert full.counts["microsim.steps"] == DAY
    assert full.counts["microsim.vehicle_steps"] > 0
    assert full.calls["kernels.follow_speeds"] > 0
    assert stage.calls["microsim.run"] == 1


# -- errors -------------------------------------------------------------------


def one_error_line(capsys) -> str:
    """The captured stderr, which must be exactly one `error:` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_module_errors_exit_2(tmp_path, capsys):
    rc = main(["fit-demand", "--counts", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    bad_cfg = write_yaml(tmp_path / "bad.yaml", {"speling": 1})
    assert main(["simulate", "--config", bad_cfg]) == 2
    capsys.readouterr()
    removed = write_yaml(tmp_path / "removed.yaml",
                         {"sim": {"engine": "compiled"}})
    assert main(["simulate", "--config", removed]) == 2
    assert "unknown keys in 'sim'" in one_error_line(capsys)

    cfg_path = line_experiment(tmp_path)
    assert main(["sweep-sparsity", "--config", cfg_path,
                 "--sensors", "9"]) == 2
    assert "exceeds" in capsys.readouterr().err

    # a sensor listed twice would write two rows per second that no
    # reader accepts; both commands stop before writing anything
    dup = line_experiment(tmp_path, sensors=["a1", "a1", "a2"])
    for cmd in (["simulate"], ["sweep-sparsity", "--sensors", "1"]):
        assert main([*cmd, "--config", dup]) == 2
        assert "duplicate sensor ids: a1" in one_error_line(capsys)
    assert not os.path.exists(tmp_path / "runs")

    assert main(["extract-features", "--raw", str(tmp_path / "empty"),
                 "--out", str(tmp_path / "f.csv"),
                 "--config", write_yaml(tmp_path / "defaults.yaml", {})]) == 2
    assert "no day_NNN directories" in one_error_line(capsys)


def test_config_keys_that_take_no_effect_exit_2(tmp_path, capsys):
    """Each day's simulator seed comes from the (seed, day) streams and
    each sub-model sets its own objective, so neither is a config key."""
    for section, key, val in (("sim", "seed", 3),
                              ("model", "objective", "multiclass")):
        path = line_experiment(tmp_path, **{section: {key: val}})
        assert main(["simulate", "--config", path]) == 2
        assert (f"unknown keys in '{section}': {key}"
                in one_error_line(capsys))
    assert not os.path.exists(tmp_path / "runs")


def test_nonpositive_staleness_exits_2(tmp_path, capsys):
    """A staleness of 0 s would drop every travel time, leaving each tt_
    column empty."""
    path = line_experiment(tmp_path, staleness_s=0)
    assert main(["extract-features", "--raw", str(tmp_path),
                 "--out", str(tmp_path / "f.csv"), "--config", path]) == 2
    assert one_error_line(capsys) == (
        "error: staleness_s must be positive\n")
    assert not os.path.exists(tmp_path / "f.csv")


def test_malformed_yaml_exits_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("days: [1, 2\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert one_error_line(capsys).startswith(f"error: {bad}:2: ")
    bad.write_bytes(b"days: \xff\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert one_error_line(capsys) == (
        f"error: {bad}:1: byte 0xff is not UTF-8 (invalid start byte)\n")


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """(features, config, model) paths of a 5-tree fit on gated_table,
    whose localizer has two road classes."""
    tmp = tmp_path_factory.mktemp("small_model")
    feat = str(tmp / "features.csv")
    features.write_feature_table(gated_table(seed=6), feat)
    cfg = write_yaml(tmp / "small.yaml",
                     {"model": {"n_trees": 5, "max_depth": 3}})
    model = str(tmp / "model.json")
    assert main(["train", "--features", feat, "--out", model,
                 "--config", cfg]) == 0
    return feat, cfg, model


def first_tree(field, value):
    """Sets field of a sub-model's first tree to value(tree)."""
    def mutate(sub):
        sub["trees"][0][field] = value(sub["trees"][0])
    return mutate


# (sub-model, its malformation, the start of the fault, where n is the node
# count of its first tree); unchecked, each would exit 0 with wrong scores,
# exit 2 naming no file, or raise an IndexError
MALFORMED_SUB_MODELS = [
    ("localizer", first_tree("value", lambda t: [v[:1] for v in t["value"]]),
     "tree 0: value has shape ({n}, 1), expected (nodes, 2)"),
    ("localizer", first_tree("value", lambda t: [v[0] for v in t["value"]]),
     "tree 0: value has shape ({n},), expected (nodes, 2)"),
    ("detector", first_tree("left",
                            lambda t: [len(t["left"])] + t["left"][1:]),
     "tree 0: node 0 splits on feature"),
    ("detector", first_tree("feature", lambda t: [3] + t["feature"][1:]),
     "tree 0: node 0 splits on feature 3 into"),
    ("detector", first_tree("right", lambda t: [-1] + t["right"][1:]),
     "tree 0: node 0 splits on feature"),
    ("severity", lambda sub: sub.update(feature_names=["x0", "x1"]),
     "feature_names ['x0', 'x1'] differ from the model's"),
]


@pytest.mark.parametrize("sub, malform, fault", MALFORMED_SUB_MODELS, ids=[
    "leaves_hold_one_score", "value_lists_are_1d", "child_past_the_end",
    "feature_past_the_end", "child_minus_one", "other_feature_names"])
def test_evaluate_rejects_a_malformed_sub_model(small_model, tmp_path,
                                                capsys, sub, malform, fault):
    feat, cfg, model_path = small_model
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    tree = doc[sub]["trees"][0]
    assert tree["feature"][0] >= 0  # the root splits
    n = len(tree["threshold"])
    malform(doc[sub])
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.txt"
    assert main(["evaluate", "--model", str(bad), "--features", feat,
                 "--out", str(report), "--config", cfg]) == 2
    assert one_error_line(capsys).startswith(
        f"error: {bad}: {sub}: " + fault.format(n=n))
    assert not report.exists()


# (reader, its module's error, the lines before the undecodable one, the
# undecodable line); the params case puts the bad byte past the first 8 KiB
# the text layer decodes in one go
UNDECODABLE = [
    (load_config, ConfigError, b"days: 2\n", b"seed: \xff\n"),
    (demand.read_counts_csv, demand.DemandError,
     b"road_label,start_time_s,bin_s,count\n", b"r\xe9,0,900,1\n"),
    (demand.read_params, demand.DemandError, b"# filler line\n" * 1000,
     b"a1=\xff\n"),
    (lambda p: demand.read_schedule(p, 60.0), demand.DemandError,
     b"time_s,entry,exit\n0,a0,a3\n", b"1,a0,\xc3\n"),
    (load_network, NetworkError, b"[nodes]\nid,x,y,signalized,sensor_site\n",
     b"n\xff,0,0,0,0\n"),
    (sensors.load_raw, sensors.SensorError, sensors.RAW_HEADER.encode()
     + b"\n", b"0,a\xff,0,0.0,0.0,\n"),
    (incidents.read_incident_log, incidents.IncidentError,
     incidents.LOG_HEADER.encode() + b"\n", b"\x80\n"),
    (features.read_feature_table, features.FeatureError,
     b"window_end_s,x,label_incident,label_road,label_severity\n",
     b"600,1.0,1,r\xff,minor\n"),
    (load_model, ModelError, b"", b'{"format": "\xff"}\n'),
    (read_report, MetricsError, b"windows=4\n", b"auc=\xff\n"),
]


@pytest.mark.parametrize("reader, error, before, bad", UNDECODABLE, ids=[
    "load_config", "read_counts_csv", "read_params", "read_schedule",
    "load_network", "load_raw", "read_incident_log", "read_feature_table",
    "load_model", "read_report"])
def test_readers_name_file_and_line_of_undecodable_bytes(tmp_path, reader,
                                                         error, before, bad):
    path = tmp_path / "input"
    path.write_bytes(before + bad + b"more,text\n")
    line = before.count(b"\n") + 1
    with pytest.raises(error, match=rf"^{re.escape(str(path))}:{line}: "
                                    r"byte 0x[0-9a-f]{2} is not UTF-8 \("):
        reader(path)


# per reader of a row format: its header (None for key=value files), a
# good row, then a short row and a row whose number does not parse, each
# with the fault it reports
MALFORMED = {
    "read_counts_csv": (
        demand.read_counts_csv, demand.DemandError, demand.COUNTS_HEADER,
        "r,0,900,1", "r,0,900", "expected 4 fields, got 3",
        "r,0,9x0,1", "could not convert string to float: '9x0'"),
    "read_schedule": (
        lambda p: demand.read_schedule(p, 60.0), demand.DemandError,
        demand.SCHEDULE_HEADER, "0,a0,a3", "1,a0", "expected 3 fields, got 2",
        "x,a0,a3", "could not convert string to float: 'x'"),
    "read_incident_log": (
        incidents.read_incident_log, incidents.IncidentError,
        incidents.LOG_HEADER, "0,stalled_vehicle,minor,30,120,s1,100.0,1,50.0",
        "1,stalled_vehicle,minor", "expected 9 fields, got 3",
        "1,stalled_vehicle,minor,30,120,s1,1x0,1,50.0",
        "could not convert string to float: '1x0'"),
    "read_feature_table": (
        features.read_feature_table, features.FeatureError,
        ",".join(["window_end_s", "x"] + features.LABEL_COLUMNS),
        "600,1.0,1,r,minor", "630,1.0,1", "expected 5 fields, got 3",
        "630,1.x,0,,", "could not convert string to float: '1.x'"),
    "read_params": (
        demand.read_params, demand.DemandError, None, "a1=1.0",
        "b1 2.0", "expected key=value, got 'b1 2.0'",
        "b1=2.x", "could not convert string to float: '2.x'"),
    "read_report": (
        read_report, MetricsError, None, "windows=4",
        "tp 1", "expected key=value, got 'tp 1'",
        "tp=1.x", "tp is not a number: '1.x'"),
}


def _malformed_cases():
    for name, (reader, error, header, good, short, short_fault, bad,
               bad_fault) in MALFORMED.items():
        head = "" if header is None else header + "\n"
        line = head.count("\n") + 2
        yield pytest.param(reader, error, f"{head}{good}\n{short}\n",
                           f"{line}: {short_fault}", id=f"{name}-short-row")
        yield pytest.param(reader, error, f"{head}{good}\n{bad}\n",
                           f"{line}: {bad_fault}", id=f"{name}-bad-number")
        if header is not None:
            yield pytest.param(reader, error, f"wrong,{header}\n{good}\n",
                               f" unexpected header 'wrong,{header}'",
                               id=f"{name}-wrong-header")


@pytest.mark.parametrize("reader, error, text, fault",
                         list(_malformed_cases()))
def test_readers_name_file_and_line_of_malformed_rows(tmp_path, reader,
                                                      error, text, fault):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=rf"^{re.escape(f'{path}:{fault}')}$"):
        reader(path)


def test_extract_features_rejects_misordered_raw(sim_run, tmp_path,
                                                 capsys):
    tmp, cfg_path, out_dir = sim_run
    day = tmp_path / "bad" / "day_000"
    shutil.copytree(os.path.join(out_dir, "day_000"), day)
    raw_path = day / "raw.csv"
    good = raw_path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert good[1].startswith("0,a1,") and good[2].startswith("0,a2,")
    args = ["extract-features", "--raw", str(tmp_path / "bad"),
            "--out", str(tmp_path / "f.csv"), "--config", cfg_path]

    # the two sensors of second 0 swapped: same row count, wrong order
    raw_path.write_text("".join([good[0], good[2], good[1]] + good[3:]),
                        encoding="utf-8")
    assert main(args) == 2
    assert "(time, sensor_id) order" in one_error_line(capsys)

    # a count that disagrees with the row's vehicle ids
    row = next(i for i, line in enumerate(good)
               if i and line.rstrip().split(",")[5])
    fields = good[row].rstrip("\n").split(",")
    fields[2] = str(int(fields[2]) + 1)
    raw_path.write_text("".join(good[:row] + [",".join(fields) + "\n"]
                                + good[row + 1:]), encoding="utf-8")
    assert main(args) == 2
    assert f"raw.csv:{row + 1}: count" in one_error_line(capsys)
    assert not os.path.exists(tmp_path / "f.csv")


def test_extract_features_names_a_raw_file_short_by_whole_rows(
        sim_run, tmp_path, capsys):
    tmp, cfg_path, out_dir = sim_run
    day = tmp_path / "short" / "day_000"
    shutil.copytree(os.path.join(out_dir, "day_000"), day)
    raw_path = day / "raw.csv"
    lines = raw_path.read_text(encoding="utf-8").splitlines(keepends=True)
    raw_path.write_text("".join(lines[:4]), encoding="utf-8")  # 3 rows
    assert main(["extract-features", "--raw", str(tmp_path / "short"),
                 "--out", str(tmp_path / "f.csv"),
                 "--config", cfg_path]) == 2
    err = one_error_line(capsys)
    assert f"{raw_path}: 3 data rows, expected 2 seconds x 2 sensors" in err
    assert not os.path.exists(tmp_path / "f.csv")


def test_extract_features_rejects_raw_with_other_sensors(sim_run, tmp_path,
                                                        capsys):
    """A raw file must hold exactly the sensors the config places: fewer,
    more or none all exit 2 with one line naming the file and both lists."""
    tmp, cfg_path, out_dir = sim_run
    day = tmp_path / "other" / "day_000"
    shutil.copytree(os.path.join(out_dir, "day_000"), day)
    raw_path = day / "raw.csv"
    good = raw_path.read_text(encoding="utf-8").splitlines(keepends=True)
    subset = [good[0]] + [line for line in good[1:]
                          if line.split(",")[1] == "a1"]
    superset = [good[0]]
    for line in good[1:]:
        superset.append(line)
        if line.split(",")[1] == "a2":
            superset.append(line.replace(",a2,", ",a3,", 1))
    for lines, held in ((subset, "['a1']"), (superset, "['a1', 'a2', 'a3']"),
                        (good[:1], "[]")):
        raw_path.write_text("".join(lines), encoding="utf-8")
        assert main(["extract-features", "--raw", str(tmp_path / "other"),
                     "--out", str(tmp_path / "f.csv"),
                     "--config", cfg_path]) == 2
        err = one_error_line(capsys)
        assert (f"{raw_path}: holds sensors {held}, but the config places "
                f"['a1', 'a2']") in err
        assert not os.path.exists(tmp_path / "f.csv")


def test_validate_requires_each_days_spawns(sim_run, tmp_path, capsys):
    """validate compares spawned counts with the curve, so a day without
    spawns.csv exits 2 naming that file rather than counting sightings."""
    tmp, cfg_path, out_dir = sim_run
    day = tmp_path / "nospawns" / "day_000"
    shutil.copytree(os.path.join(out_dir, "day_000"), day)
    os.remove(day / "spawns.csv")
    out = tmp_path / "validation.csv"
    assert main(["validate", "--raw", str(tmp_path / "nospawns"),
                 "--counts", str(tmp / "counts.csv"), "--out", str(out),
                 "--config", cfg_path]) == 2
    assert str(day / "spawns.csv") in one_error_line(capsys)
    assert not out.exists()


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["simulate"])  # --config is required
    with pytest.raises(SystemExit):
        main(["train", "--features", "f.csv", "--out", "m.json"])
    with pytest.raises(SystemExit):
        main(["highway", "--config", "c.yaml"])  # sweep-sparsity does it


def test_option_surface():
    """Every subcommand's exact option strings, with --config required
    wherever it appears: a new option or subcommand has to be added here
    on purpose."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(opt for a in cmd._actions if a.dest != "help"
                            for opt in a.option_strings)
               for name, cmd in sub.choices.items()}
    assert surface == {
        "fit-demand": ["--counts", "--out"],
        "simulate": ["--audit", "--config"],
        "extract-features": ["--config", "--out", "--raw"],
        "validate": ["--config", "--counts", "--out", "--raw"],
        "train": ["--config", "--features", "--out"],
        "evaluate": ["--config", "--features", "--incidents", "--model",
                     "--out"],
        "sweep-sparsity": ["--config", "--sensors"],
    }
    config = [a for cmd in sub.choices.values() for a in cmd._actions
              if "--config" in a.option_strings]
    assert len(config) == 6 and all(a.required for a in config)
