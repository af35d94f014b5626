"""Experiment config and command-line pipeline tests.

Index:
  expconfig   YAML parsing, defaults, key rejection, echo round trip
  commands    fit-demand, simulate, extract-features, validate,
              train, evaluate, sweep-sparsity, highway
  errors      exit code 2 on module errors, argparse usage failures
"""
import json
import math
import os

import numpy as np
import pytest
import yaml

from trafficlab import demand, features
from trafficlab.cli import main
from trafficlab.expconfig import (ConfigError, ExperimentConfig, echo_config,
                                  load_config)
from trafficlab.metrics import read_report
from trafficlab.models import load_model
from trafficlab.netgen import bundled_path
from trafficlab.roadnet import save_network

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


def test_echo_round_trip(tmp_path):
    cfg = load_config(line_experiment(tmp_path, seed=3, threshold=0.4))
    echo = echo_config(cfg, tmp_path / "out")
    assert os.path.basename(echo) == "config_used.yaml"
    again = load_config(echo)
    assert again.resolved_dict() == cfg.resolved_dict()


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
    cfg_path = line_experiment(tmp)
    rc = main(["simulate", "--config", cfg_path, "--days", "2"])
    assert rc == 0
    return tmp, cfg_path, str(tmp / "runs")


def test_simulate_layout_and_determinism(sim_run, tmp_path, capsys):
    tmp, cfg_path, out_dir = sim_run
    assert os.path.exists(os.path.join(out_dir, "config_used.yaml"))
    for day in ("day_000", "day_001"):
        for name in ("raw.csv", "incidents.csv", "spawns.csv"):
            assert os.path.exists(os.path.join(out_dir, day, name))
    assert not os.path.exists(os.path.join(out_dir, "day_002"))

    rc = main(["simulate", "--config", cfg_path, "--days", "2",
               "--out-dir", str(tmp_path / "again")])
    assert rc == 0
    for day in ("day_000", "day_001"):
        a = open(os.path.join(out_dir, day, "raw.csv")).read()
        b = open(os.path.join(tmp_path, "again", day, "raw.csv")).read()
        assert a == b
    assert "day 001: spawned=" in capsys.readouterr().out


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
    rc = main(["train", "--features", feat, "--out", model_path])
    assert rc == 0
    model = load_model(model_path)
    assert model.feature_names == list(table.feature_names)

    report_path = str(tmp_path / "report.txt")
    rc = main(["evaluate", "--model", model_path, "--features", feat,
               "--out", report_path])
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
               "--out", report_path])
    assert rc == 2

    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["detector"]["schema_hash"] = "0" * 16
    tampered = str(tmp_path / "tampered.json")
    with open(tampered, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = main(["evaluate", "--model", tampered, "--features", feat,
               "--out", report_path])
    assert rc == 2
    assert "schema_hash" in one_error_line(capsys)


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
    assert "level 1: event_dr=" in capsys.readouterr().out


def test_highway_command(tmp_path, capsys):
    cfg_path = line_experiment(
        tmp_path, network="highway8", sensors=None, sensor_range_m=80.0,
        out_dir=str(tmp_path / "hwy"),
        incidents={"p_incident": 0.03, "p_crash_given_incident": 0.3,
                   "p_severe": 0.3, "minor_duration_s": [300, 600],
                   "severe_duration_s": [600, 900],
                   "base_radius_m": 150.0, "slowdown_factor": 0.2})
    rc = main(["highway", "--config", cfg_path])
    assert rc == 0
    root = str(tmp_path / "hwy")
    for name in ("features.csv", "model.json", "report.txt",
                 "config_used.yaml"):
        assert os.path.exists(os.path.join(root, name))
    rep = read_report(os.path.join(root, "report.txt"))
    assert rep["windows"] == 29      # the held-out day only
    assert rep["n_events"] >= 1
    assert "highway scenario complete" in capsys.readouterr().out


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

    assert main(["extract-features", "--raw", str(tmp_path / "empty"),
                 "--out", str(tmp_path / "f.csv")]) == 2


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["simulate"])  # --config is required
