"""Experiment config and command-line pipeline tests.

Index:
  expconfig   YAML parsing, defaults, key, kind and range rejection, a
              bad value in any leaf of a full config, echo round trip,
              the pinned echo of an empty config, the README example
  commands    fit-demand, simulate, extract-features, validate,
              train, evaluate, sweep-sparsity (on the line network and on
              highway8, where a level equals the staged commands); the
              benchmark's tracers around simulate
  round trip  each of the nine files one pipeline run writes, read by its
              reader and written by its writer, gives back its own bytes;
              a bad value in a field of the first, middle or last row of
              its four CSVs loads finite or is refused naming the file;
              write_lines is the package's one writer; the sha256 of eight
              of those files and of one 2-h grid day is pinned
  errors      exit code 2 on module errors, bad --sensors lists,
              undecodable input files, malformed sub-models, a bin_seconds
              other than the counts', incidents off the network, non-finite
              readings, incidents and feature values, weights
              and sensors that name no usable node, event scoring of a
              multi-day table, an unbounded incident duration range, a
              model.json training config out of range, a bad value in any
              scalar of model.json, a NaN counts start, argparse usage
              failures; the exact option surface of every subcommand
"""
import argparse
import ast
import contextlib
import copy
import dataclasses
import functools
import glob
import hashlib
import io
import itertools
import json
import math
import operator
import os
import re
import shutil

import numpy as np
import pytest
import yaml

from trafficlab import (demand, features, incidents, metrics, microsim,
                        models, sensors, validate)
from trafficlab.cli import _fit_counts, build_parser, main
from trafficlab.expconfig import (ConfigError, ExperimentConfig, echo_config,
                                  load_config)
from trafficlab.metrics import MetricsError, read_report, read_sweep
from trafficlab.models import ModelError, load_model
from trafficlab.netgen import bundled_path
from trafficlab.roadnet import NetworkError, load_network, save_network
from trafficlab.validate import (PASS_LEVEL, VALIDATION_HEADER,
                                 ValidationError, read_validation_report)

from conftest import make_line_net, mutated_rows
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
    assert cfg.window.window_s == 600
    assert cfg.incidents.p_incident == 1e-4
    assert cfg.model.seed == cfg.seed


def test_nested_sections_reach_module_configs(tmp_path):
    path = line_experiment(tmp_path, seed=9)
    cfg = load_config(path)
    w = cfg.window
    assert (w.window_s, w.stride_s, w.label_mode) == (600, 150, "window")
    inc = cfg.incidents
    assert inc.minor_duration_s == (300, 600)  # lists become tuples
    assert inc.p_incident == 0.02
    assert cfg.model.n_trees == 30
    assert cfg.model.seed == 9      # inherits the experiment seed
    assert dataclasses.replace(cfg.sim, seed=4).seed == 4
    mdl = load_config(path, {"model": {"n_trees": 5, "seed": 2}})
    assert (mdl.model.n_trees, mdl.model.seed) == (5, 2)


def test_config_rejections(tmp_path):
    def bad(doc, match):
        with pytest.raises(ConfigError,
                           match=r"bad\.yaml: " + re.escape(match)):
            load_config(write_yaml(tmp_path / "bad.yaml", doc))

    # every fault is tagged with the file path
    bad({"speling": 1}, "unknown keys in 'config': speling")
    bad({"window": {"width_s": 600}}, "unknown keys in 'window'")
    bad({"incidents": {"p_typo": 0.1}}, "unknown keys in 'incidents'")
    bad({"sim": 7}, "section 'sim' must be a mapping")
    # the simulator has one engine and a fixed 1 s step; neither is a key
    bad({"sim": {"engine": "compiled"}}, "unknown keys in 'sim'")
    bad({"sim": {"dt": 1.0}}, "unknown keys in 'sim'")
    bad({"days": 0}, "days must be at least 1")
    bad({"threshold": 1.0}, "threshold must lie in")
    bad({"bin_seconds": 7}, "bin_seconds must divide day_seconds")
    bad({"staleness_s": 0}, "staleness_s must be positive")
    bad({"staleness_s": -60}, "staleness_s must be positive")
    bad({"staleness_s": float("nan")}, "staleness_s must be positive")
    # every top-level value is checked for its kind, by key
    bad({"sensor_range_m": "x"}, "sensor_range_m must be a number, not 'x'")
    bad({"sensor_range_m": 0}, "sensor_range_m must be positive and finite")
    bad({"sensor_range_m": float("inf")},
        "sensor_range_m must be positive and finite")
    bad({"network": 5}, "network must be a string, not 5")
    bad({"counts": 7}, "counts must be a string, not 7")
    bad({"out_dir": 7}, "out_dir must be a string, not 7")
    bad({"days": "x"}, "days must be an integer, not 'x'")
    bad({"day_seconds": 3600.0}, "day_seconds must be an integer, not 3600.0")
    bad({"threshold": True}, "threshold must be a number, not True")
    bad({"entry_weights": ["n00"]}, "entry_weights must be a mapping of "
        "node ids to numbers, not ['n00']")
    bad({"exit_weights": {"n33": "x"}}, "exit_weights must be a mapping of "
        "node ids to numbers, not {'n33': 'x'}")
    # a YAML integer past the float range, as the weight check reads it
    bad({"entry_weights": {"n00": 10 ** 400}},
        "int too large to convert to float")
    bad({"seed": "abc"}, "seed must be an integer, not 'abc'")
    bad({"seed": -1}, "seed must not be negative")
    # nested values are validated at load time
    bad({"window": {"window_s": 100, "stride_s": 300}},
        "stride must not exceed the window")
    bad({"model": {"n_trees": 0}}, "need at least one tree")
    # and each by its kind, named section.key with the bad value
    bad({"model": {"seed": "abc"}}, "model.seed must be an integer, not 'abc'")
    bad({"model": {"seed": -1}}, "model.seed must not be negative")
    bad({"model": {"seed": True}}, "model.seed must be an integer, not True")
    bad({"sim": {"accel": "x"}}, "sim.accel must be a number, not 'x'")
    bad({"window": {"window_s": "x"}},
        "window.window_s must be an integer, not 'x'")
    bad({"incidents": {"p_incident": "x"}},
        "incidents.p_incident must be a number, not 'x'")
    bad({"incidents": {"minor_duration_s": 300}},
        "incidents.minor_duration_s must be a pair of numbers, not 300")
    bad({"window": {"label_mode": 1}},
        "window.label_mode must be a string, not 1")
    # each range is checked by the dataclass that owns the setting, NaN and
    # infinities included
    nan, inf = float("nan"), float("inf")
    bad({"sim": {"accel": inf}}, "accel must be positive and finite")
    bad({"sim": {"decel": nan}}, "decel must be positive and finite")
    bad({"sim": {"vehicle_length": 0.0}},
        "vehicle_length must be positive and finite")
    bad({"sim": {"min_gap": nan}}, "min_gap must be non-negative and finite")
    bad({"incidents": {"base_radius_m": nan}},
        "base_radius_m must be non-negative and finite")
    bad({"incidents": {"severe_radius_multiplier": inf}},
        "severe_radius_multiplier must be non-negative and finite")
    bad({"incidents": {"min_duration_s": nan}},
        "min_duration_s must be non-negative and finite")
    bad({"incidents": {"severe_duration_s": [900, inf]}},
        "duration ranges must be positive, ordered and finite")
    bad({"model": {"reg_lambda": nan}},
        "reg_lambda must be non-negative and finite")
    bad({"model": {"min_samples_leaf": 0}},
        "min_samples_leaf must be at least 1")
    with pytest.raises(ConfigError,
                       match=r"list\.yaml: top level must be a mapping"):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n", encoding="utf-8")
        load_config(p)


# the YAML spelling of each bad value; 1e400 has no dot, so YAML reads it
# as a string
BAD_YAML = ('""', ".nan", ".inf", "-.inf", "-1", "x", "1e400", "0", "2.5",
            "null", "true", "[]", "{}")


def _finite(node) -> bool:
    if isinstance(node, dict):
        return all(map(_finite, node.values()))
    if isinstance(node, list):
        return all(map(_finite, node))
    return not isinstance(node, float) or math.isfinite(node)


def test_mutated_config_loads_finite_or_is_refused_naming_the_file(
        tmp_path):
    """Every top-level key of a full config, a key of each section, both
    ends of a duration range, a sensors entry and one weight of each map,
    set to each bad YAML value: the config either loads holding finite
    numbers or is refused naming the file.  An infinite staleness_s loads:
    it sets no staleness limit.  The pinned weights used to load."""
    full = ExperimentConfig(sensors=["n01", "n13"],
                            entry_weights={"n00": 1.0},
                            exit_weights={"n33": 2.0}).resolved_dict()
    leaves = [(key,) for key in full] + [
        ("window", "stride_s"), ("incidents", "p_incident"),
        ("sim", "min_gap"), ("model", "learning_rate"),
        ("incidents", "minor_duration_s", 0),
        ("incidents", "minor_duration_s", 1), ("sensors", 0),
        ("entry_weights", "n00"), ("exit_weights", "n33")]
    bad = tmp_path / "bad.yaml"
    faults, loads = {}, []
    for path, text in itertools.product(leaves, BAD_YAML):
        mutant = copy.deepcopy(full)
        parent = functools.reduce(operator.getitem, path[:-1], mutant)
        parent[path[-1]] = yaml.safe_load(text)
        write_yaml(bad, mutant)
        try:
            cfg = load_config(bad)
        except ConfigError as exc:
            assert str(exc).startswith(f"{bad}: "), str(exc)
            faults[path, text] = str(exc)[len(f"{bad}: "):]
            continue
        loads.append((path, text))
        if (path, text) != (("staleness_s",), ".inf"):
            assert _finite(cfg.resolved_dict()), (path, text)
    assert (("staleness_s",), ".inf") in loads
    for path, text, shown in ((("entry_weights", "n00"), ".nan", "nan"),
                              (("entry_weights", "n00"), "-.inf", "-inf"),
                              (("exit_weights", "n33"), ".inf", "inf"),
                              (("exit_weights", "n33"), "-1", "-1")):
        assert faults[path, text] == (
            f"{path[0]} gives {path[1]} the weight {shown}; weights must be "
            "finite and non-negative")


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


# the echo of an empty config: a changed default, key or order shows here
EMPTY_ECHO = """\
bin_seconds: 900
counts: city_counts
day_seconds: 86400
days: 31
entry_weights: {}
exit_weights: {}
incidents:
  base_radius_m: 50.0
  min_duration_s: 60.0
  minor_duration_s:
  - 300.0
  - 900.0
  p_crash_given_incident: 0.5
  p_incident: 0.0001
  p_severe: 0.3
  severe_duration_s:
  - 900.0
  - 2700.0
  severe_radius_multiplier: 2.0
  slowdown_factor: 0.3
model:
  learning_rate: 0.1
  max_bins: 256
  max_depth: 6
  min_samples_leaf: 20
  n_trees: 200
  reg_lambda: 1.0
  seed: 0
  subsample: 0.8
network: grid4x4
out_dir: runs/experiment
seed: 0
sensor_range_m: 50.0
sensors: null
sim:
  accel: 2.6
  decel: 4.5
  driver_imperfection: 0.1
  min_gap: 2.5
  vehicle_length: 5.0
staleness_s: 1800.0
threshold: 0.5
window:
  label_mode: stride
  stride_s: 30
  window_s: 600
"""


def test_empty_config_echo_is_pinned(tmp_path):
    cfg = load_config(write_yaml(tmp_path / "c.yaml", {}))
    with open(echo_config(cfg, tmp_path / "out"), encoding="utf-8") as fh:
        assert fh.read() == EMPTY_ECHO


def test_readme_example_loads_and_reloads_from_its_echo(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"```yaml\n(# experiment\.yaml\n.*?)```",
                          fh.read(), re.S).group(1)
    path = tmp_path / "experiment.yaml"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.sensors == ["n01", "n13", "n20", "n32"]
    assert cfg.window.label_mode == "window"
    echo = echo_config(cfg, tmp_path / "out")
    assert_echo_reloads(echo)
    assert load_config(echo) == cfg


def test_echo_round_trip(tmp_path):
    # every section set, so the echo never writes a key load_config rejects
    cfg = load_config(line_experiment(
        tmp_path, seed=3, threshold=0.4, staleness_s=900.0,
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


def test_fit_demand_command(capsys):
    """fit-demand prints the fitted curve on one line, each value the
    repr of the float the pipeline fits."""
    counts = str(bundled_path("city_counts.csv"))
    assert main(["fit-demand", "--counts", counts]) == 0
    head, line = capsys.readouterr().out.splitlines()
    assert head == "fit 12 roads x 96 bins (bin=900s)"
    params = _fit_counts(counts)[2]
    assert params.fit_rmse > 0.0
    assert line == " ".join(
        f"{key}={float(getattr(params, key))!r}"
        for key in ("a1", "b1", "c1", "a2", "b2", "c2", "d",
                    "alpha_sigma", "fit_rmse"))
    assert "np.float64" not in line


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
    rows = read_validation_report(out)
    assert [day for day, *_ in rows] == [0, 1]
    assert all(passed == (p >= PASS_LEVEL) for _, _, p, passed in rows)
    text = capsys.readouterr().out
    assert "day 000: ks=" in text


@pytest.mark.parametrize("bins", [6, 4])
def test_validate_takes_a_day_shorter_than_a_demand_fit(tmp_path, capsys,
                                                        bins):
    """The 8-bin floor belongs to curve fitting, not to the KS test: a
    6-bin day validates and writes its row, and a 4-bin day exits 2 with
    the KS test's own floor of 5 samples."""
    cfg_path = line_experiment(tmp_path, day_seconds=bins * BIN)
    assert main(["simulate", "--config", cfg_path]) == 0
    capsys.readouterr()
    out = tmp_path / "validation.csv"
    rc = main(["validate", "--raw", str(tmp_path / "runs"),
               "--counts", str(tmp_path / "counts.csv"),
               "--out", str(out), "--config", cfg_path])
    if bins == 6:
        assert rc == 0
        assert [day for day, *_ in read_validation_report(out)] == [0]
    else:
        assert rc == 2
        assert one_error_line(capsys) == (
            "error: KS test needs at least 5 samples per side\n")
        assert not out.exists()


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
    capsys.readouterr()
    rc = main(["evaluate", "--model", model_path, "--features", alien_path,
               "--out", report_path, "--config", cfg])
    assert rc == 2
    assert one_error_line(capsys) == (
        "error: model and feature table schemas differ\n")

    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["schema_hash"] = "0" * 16
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


def test_train_rejects_a_third_severity_class(tmp_path, capsys):
    """Severity is a binary head: positive rows that hold three severity
    labels stop train with one error line, and no model is written."""
    table = gated_table(seed=6)
    three = features.FeatureTable(
        table.feature_names, table.X, table.window_end,
        table.label_incident, table.label_road,
        [s and ("minor", "moderate", "severe")[i % 3]
         for i, s in enumerate(table.label_severity)])
    feat = str(tmp_path / "features.csv")
    features.write_feature_table(three, feat)
    model_path = tmp_path / "model.json"
    cfg = write_yaml(tmp_path / "small.yaml", {"model": {"n_trees": 2}})
    assert main(["train", "--features", feat, "--out", str(model_path),
                 "--config", cfg]) == 2
    assert one_error_line(capsys) == (
        "error: severity is a binary classification\n")
    assert not model_path.exists()


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
    capsys.readouterr()
    for version in ("trafficlab-model/1", "trafficlab-model/2"):
        doc["format"] = version
        old = str(tmp_path / "old_model.json")
        with open(old, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["evaluate", "--model", old, "--features", feat,
                     "--out", str(tmp_path / "report.txt"),
                     "--config", cfg]) == 2
        assert one_error_line(capsys) == (
            f"error: {old}: not a trafficlab-model/3 file\n")
        assert not os.path.exists(tmp_path / "report.txt")


def test_sweep_sparsity_command(tmp_path, capsys):
    cfg_path = line_experiment(tmp_path)
    rc = main(["sweep-sparsity", "--config", cfg_path, "--sensors", "2,1"])
    assert rc == 0
    root = str(tmp_path / "runs" / "sweep")
    rows = read_sweep(os.path.join(root, "sweep.csv"))
    assert [n for n, _rep in rows] == [2, 1]
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


# -- round trip ---------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """The directory of one small pipeline run that writes all nine kinds
    of file: a one-level sweep, then extract-features and validate over
    its days."""
    tmp = tmp_path_factory.mktemp("round_trip")
    cfg = line_experiment(tmp)
    days = str(tmp / "runs" / "sweep")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep-sparsity", "--config", cfg, "--sensors", "2"]) == 0
        assert main(["extract-features", "--raw", days, "--out",
                     str(tmp / "features.csv"), "--config", cfg]) == 0
        assert main(["validate", "--raw", days, "--counts",
                     str(tmp / "counts.csv"), "--config", cfg]) == 0
    return tmp


def _validation_back(src, dst):
    # the file keeps no sample sizes, and the writer reads none
    validate.write_validation_report(
        [(day, validate.KsResult(stat, p, 0, 0))
         for day, stat, p, _passed in validate.read_validation_report(src)],
        dst)


# file name: (its path in the run, the reader then the writer, src to dst)
ROUND_TRIPS = {
    "raw.csv": ("runs/sweep/day_000/raw.csv", lambda src, dst:
                sensors.emit_raw(sensors.load_raw(src), [], dst,
                                 dst + ".log")),
    "incidents.csv": ("runs/sweep/day_000/incidents.csv", lambda src, dst:
                      incidents.write_incident_log(
                          incidents.read_incident_log(src), dst)),
    "spawns.csv": ("runs/sweep/day_000/spawns.csv", lambda src, dst:
                   demand.write_schedule(demand.read_schedule(src, DAY),
                                         dst)),
    "features.csv": ("features.csv", lambda src, dst:
                     features.write_feature_table(
                         features.read_feature_table(src), dst)),
    "model.json": ("runs/sweep/level_02/model.json", lambda src, dst:
                   models.save_model(load_model(src), dst)),
    "report.txt": ("runs/sweep/level_02/report.txt", lambda src, dst:
                   metrics.write_report(
                       metrics.EvalReport(**read_report(src)), dst)),
    "validation.csv": ("runs/sweep/validation.csv", _validation_back),
    "sweep.csv": ("runs/sweep/sweep.csv", lambda src, dst:
                  metrics.write_sweep(read_sweep(src), dst)),
    "config_used.yaml": ("runs/sweep/config_used.yaml", lambda src, dst:
                         echo_config(load_config(src),
                                     os.path.dirname(dst))),
}


@pytest.mark.parametrize("name", list(ROUND_TRIPS))
def test_every_pipeline_file_reads_back_to_its_own_bytes(pipeline_run,
                                                         tmp_path, name):
    """What a file's reader gives back, its writer writes to the same
    bytes: no file loses or changes a value on the way through memory."""
    where, read_then_write = ROUND_TRIPS[name]
    src, dst = pipeline_run / where, tmp_path / name
    read_then_write(str(src), str(dst))
    assert dst.read_bytes() == src.read_bytes()


# sha256 of the files the pipeline writes.  They pin every float path,
# numpy's included, so a change that alters output bytes on purpose
# updates them and says in CHANGES.md which files changed and why.
PIPELINE_DIGESTS = {
    "raw.csv":
        "73ddaf44a8223ba6b7ea6d8cc6d8a28b3b8e2203b4882e0f2778e904e885cdbe",
    "incidents.csv":
        "5f114c2fc44be4d59dcae00fb3a0d2e9d227cf2f26ee3a917aecf12e272d55d6",
    "spawns.csv":
        "924f5bf3c8de3907656f4868c9f71a75d7209dc93f6fb425fd291daa267c4a86",
    "features.csv":
        "6454244d5a3d51837ed1c96efaecdb2c075403651654355e3e5e4bee32a643d5",
    "model.json":
        "17983e9c4f5fdc01b30ae919e84a58b0279d163b63304c2edad33bdb8ae3bda6",
    "report.txt":
        "8859b08c8c11f5922fb8fbe0256c96e7aa4fcf0356959a6bc44809445eeedd11",
    "validation.csv":
        "9d251326b2ba2956680093ff1e2808c1daf0e4ba035c6db7518013a804036e72",
    "sweep.csv":
        "c2b0381553feccdbccdcfb77638ed6a54664aaabe7100313c629bd42e6d7dcab",
}
GRID_DAY_DIGESTS = {
    "raw.csv":
        "a3a5a1c9765aa5b3675b26156d83002d51da75a70b3f116ed0b97f6a06002c71",
    "incidents.csv":
        "c37e4a63e5400716e437e690eba9a133d54c04957b86605cdb9730194f06e838",
    "spawns.csv":
        "0ab2a1d8b8e21a7c392d1b779fb6685569ef55340c05e979a0360ac7e92f9ccc",
}


def changed_digests(root, paths, digests) -> list:
    """A line for each file under root whose sha256 is not its digest."""
    changed = []
    for name, want in digests.items():
        got = hashlib.sha256((root / paths[name]).read_bytes()).hexdigest()
        if got != want:
            changed.append(f"{name}: sha256 {got}, pinned {want}")
    return changed


@pytest.fixture(scope="module")
def grid_day(tmp_path_factory):
    """One 2-h day on the signalized grid with the desk incidents and its
    4 sensors."""
    from test_acceptance import desk_config

    tmp = tmp_path_factory.mktemp("grid_day")
    cfg = desk_config(str(tmp), days=1, day_seconds=7200)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", cfg]) == 0
    return tmp / "days" / "day_000"


def test_pipeline_files_keep_their_bytes(pipeline_run, grid_day):
    changed = changed_digests(
        pipeline_run, {name: where for name, (where, _rw)
                       in ROUND_TRIPS.items()}, PIPELINE_DIGESTS)
    changed += [f"grid day {line}" for line in changed_digests(
        grid_day, {name: name for name in GRID_DAY_DIGESTS},
        GRID_DAY_DIGESTS)]
    assert not changed, (f"under numpy {np.__version__}: "
                         + "; ".join(changed))


def _feature_numbers(table, text):
    """X and the window ends of a feature table, less the NaNs that stand
    for an empty field of its text."""
    empty = np.array([[field == "" for field in line.split(",")[1:-3]]
                      for line in text.splitlines()[1:]])
    return np.concatenate([table.X[~empty], table.window_end])


# file name: (its path in the run, its reader, the error the reader raises,
# the numbers it loaded from the file's text)
PROBED = {
    "raw.csv": ("runs/sweep/day_000/raw.csv", sensors.load_raw,
                sensors.SensorError, lambda raw, _text: np.concatenate(
                    [raw.count, raw.mean_speed, raw.occupancy])),
    "incidents.csv": ("runs/sweep/day_000/incidents.csv",
                      incidents.read_incident_log, incidents.IncidentError,
                      lambda log, _text: [
                          v for s in log for v in (s.id, s.onset, s.duration,
                                                   s.offset, s.n_vehicles,
                                                   s.radius)]),
    "spawns.csv": ("runs/sweep/day_000/spawns.csv",
                   lambda p: demand.read_schedule(p, DAY), demand.DemandError,
                   lambda schedule, _text: [ev.time
                                            for ev in schedule.events]),
    "features.csv": ("features.csv", features.read_feature_table,
                     features.FeatureError, _feature_numbers),
}


@pytest.mark.parametrize("name", list(PROBED))
def test_mutated_csv_loads_finite_or_is_refused_naming_the_file(
        pipeline_run, tmp_path, name):
    """A bad value in a pipeline CSV either still loads to finite numbers
    (NaN only for an empty feature field), or is refused by the file's
    reader naming the file: NaN or infinite speeds, occupancies, incident
    offsets and radii and feature values used to load."""
    where, reader, error, numbers = PROBED[name]
    text = (pipeline_run / where).read_text(encoding="utf-8")
    # at most 1,200 data rows: raw.csv's first 600 s, itself a whole raw
    # table, which loads in an eighth of the time of the 4,800 s day
    lines = text.splitlines()[:1201]
    assert len(lines) > 3, "the file needs a first, middle and last row"
    path = tmp_path / name
    count = 0
    for text in mutated_rows(lines, range(1, len(lines))):
        count += 1
        path.write_text(text, encoding="utf-8")
        try:
            loaded = reader(path)
        except error as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            continue
        assert np.isfinite(numbers(loaded, text)).all(), text
    assert count == 3 * len(lines[0].split(",")) * 9


def _opens_to_write(node) -> bool:
    """Whether node is an open( call whose mode is not a read-only
    literal."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    mode = node.args[1:2] or [k.value for k in node.keywords
                              if k.arg == "mode"]
    return bool(mode) and not (isinstance(mode[0], ast.Constant)
                               and set(mode[0].value) <= set("rbt"))


def test_write_lines_holds_the_only_write_mode_open():
    """Every file the package writes goes through trafficlab.write_lines,
    so the text policy of its output is decided in one place."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inside, outside = [], []
    for path in sorted(glob.glob(os.path.join(root, "src", "trafficlab",
                                              "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        allowed = {id(n) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and fn.name == "write_lines" for n in ast.walk(fn)}
        name = os.path.basename(path)
        for node in filter(_opens_to_write, ast.walk(tree)):
            if id(node) in allowed:
                inside.append(name)
            else:
                outside.append(f"{name}:{node.lineno}")
    assert outside == []
    assert inside == ["__init__.py"]


# -- errors -------------------------------------------------------------------


def one_error_line(capsys) -> str:
    """The captured stderr, which must be exactly one `error:` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_module_errors_exit_2(tmp_path, capsys):
    rc = main(["fit-demand", "--counts", str(tmp_path / "missing.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    bad_cfg = write_yaml(tmp_path / "bad.yaml", {"speling": 1})
    assert main(["simulate", "--config", bad_cfg]) == 2
    capsys.readouterr()
    removed = write_yaml(tmp_path / "removed.yaml",
                         {"sim": {"engine": "compiled"}})
    assert main(["simulate", "--config", removed]) == 2
    assert "unknown keys in 'sim'" in one_error_line(capsys)
    # a model seed numpy would refuse only at train time stops at load
    for seed in ("abc", -1):
        seeded = write_yaml(tmp_path / "seed.yaml", {"model": {"seed": seed}})
        assert main(["train", "--features", str(tmp_path / "f.csv"),
                     "--out", str(tmp_path / "m.json"),
                     "--config", seeded]) == 2
        assert one_error_line(capsys).startswith(
            f"error: {seeded}: model.seed must ")

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


@pytest.mark.parametrize("levels", ["a", "1.5", "0", ",", "3,3"])
def test_sweep_rejects_a_bad_sensors_list(tmp_path, capsys, levels):
    """A level that is not a positive integer, an empty list or a level
    listed twice exits 2 with one error line naming --sensors, before any
    day is simulated."""
    cfg_path = line_experiment(tmp_path)
    assert main(["sweep-sparsity", "--config", cfg_path,
                 "--sensors", levels]) == 2
    assert one_error_line(capsys) == (
        "error: --sensors takes distinct positive integers separated by "
        f"commas, not {levels!r}\n")
    assert not os.path.exists(tmp_path / "runs")


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
        f"error: {path}: staleness_s must be positive\n")
    assert not os.path.exists(tmp_path / "f.csv")


def test_infinite_incident_duration_exits_2(tmp_path, capsys):
    """An unbounded duration range is rejected with the config, before
    config_used.yaml is written, not by rng.uniform while planning."""
    path = line_experiment(tmp_path, incidents={
        "p_incident": 0.02, "p_severe": 0.0,
        "minor_duration_s": [300, math.inf]})
    assert main(["simulate", "--config", path]) == 2
    assert one_error_line(capsys) == (
        f"error: {path}: duration ranges must be positive, ordered and "
        "finite\n")
    assert not os.path.exists(tmp_path / "runs")


def test_counts_with_a_nan_start_exit_2_naming_the_file_and_road(
        tmp_path, capsys):
    """A NaN start time used to load as the series' start and pass the
    contiguity check, so the curve was fitted at NaN times."""
    path = line_experiment(tmp_path)
    counts = tmp_path / "counts.csv"
    lines = counts.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("r1,0,")
    lines[1] = lines[1].replace("r1,0,", "r1,nan,")
    counts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fault = (f"error: {counts}: road 'r1': start time nan is not "
             "finite\n")
    assert main(["fit-demand", "--counts", str(counts)]) == 2
    assert one_error_line(capsys) == fault
    assert main(["simulate", "--config", path]) == 2
    assert one_error_line(capsys) == fault
    assert not os.path.exists(tmp_path / "runs" / "day_000")


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
    def mutate(doc, sub):
        doc[sub]["trees"][0][field] = value(doc[sub]["trees"][0])
    return mutate


def setting(**keys):
    """Sets top-level keys of the model document."""
    return lambda doc, sub: doc.update(keys)


# (sub-model, its malformation of the document, the start of the fault,
# where n is the node count of the sub-model's first tree); unchecked, each
# would exit 0 with wrong scores or labels, exit 2 naming no file, or raise
# an IndexError or AttributeError
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
    ("localizer", setting(localizer=None, road_classes=[]),
     "road_classes has length 0, expected 1 for a null head"),
    ("localizer", setting(localizer=None,
                          road_classes=["east_rd", "north_rd", "west_rd"]),
     "road_classes has length 3, expected 1 for a null head"),
    ("localizer", setting(road_classes=["east_rd", "east_rd"]),
     "road_classes ['east_rd', 'east_rd'] repeat a class"),
    ("localizer", setting(road_classes=["east_rd"]),
     "road_classes has length 1, expected 2 for a trained head"),
    ("severity", setting(severity_classes=["minor", "moderate", "severe"]),
     "severity_classes has length 3, expected 2 for a trained head"),
    ("detector", setting(detector=None),
     "null, but the detector is always trained"),
]


@pytest.mark.parametrize("sub, malform, fault", MALFORMED_SUB_MODELS, ids=[
    "leaves_hold_one_score", "value_lists_are_1d", "child_past_the_end",
    "feature_past_the_end", "child_minus_one", "null_head_without_class",
    "null_head_with_three_classes", "repeated_class",
    "trained_head_with_one_class", "binary_head_with_three_classes",
    "null_detector"])
def test_evaluate_rejects_a_malformed_sub_model(small_model, tmp_path,
                                                capsys, sub, malform, fault):
    feat, cfg, model_path = small_model
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    tree = doc[sub]["trees"][0]
    assert tree["feature"][0] >= 0  # the root splits
    n = len(tree["threshold"])
    malform(doc, sub)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.txt"
    assert main(["evaluate", "--model", str(bad), "--features", feat,
                 "--out", str(report), "--config", cfg]) == 2
    assert one_error_line(capsys).startswith(
        f"error: {bad}: {sub}: " + fault.format(n=n))
    assert not report.exists()


INT32 = "32-bit integers"


@pytest.mark.parametrize("field, entry, shown, kind", [
    ("feature", "1e400", "Infinity", INT32), ("feature", "3.5", "3.5", INT32),
    ("feature", "true", "true", INT32), ("left", "1.5", "1.5", INT32),
    ("right", "2147483648", "2147483648", INT32),
    ("threshold", '"0.703732201696138"', '"0.703732201696138"',
     "finite numbers"),
    ("missing_left", '"no"', '"no"', "0s and 1s"),
    ("missing_left", "7", "7", "0s and 1s"),
    ("value", '["0.25"]', '["0.25"]', "lists of finite numbers")],
    ids=["feature_overflows", "feature_fraction", "feature_bool",
         "left_fraction", "right_past_int32", "threshold_string",
         "missing_left_word", "missing_left_seven", "value_string"])
def test_evaluate_rejects_a_tree_index_that_is_not_an_integer(
        small_model, tmp_path, capsys, field, entry, shown, kind):
    """A tree's fields must hold what to_jsonable writes: its feature and
    child indices 32-bit JSON integers, its thresholds and leaf values
    finite numbers and its missing sides 0 or 1.  Cast to int32, 1e400 and
    2**31 would overflow, a fraction would be truncated and true would
    read as 1; cast to float or bool, a string or a 7 would load."""
    feat, cfg, model_path = small_model
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    tree = doc["detector"]["trees"][0]
    tree[field][0] = "ENTRY"
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc).replace('"ENTRY"', entry),
                   encoding="utf-8")
    assert main(["evaluate", "--model", str(bad), "--features", feat,
                 "--out", str(tmp_path / "report.txt"),
                 "--config", cfg]) == 2
    assert one_error_line(capsys) == (
        f"error: {bad}: detector: tree 0: {field} holds {shown}, expected "
        f"a list of {kind}\n")


def test_evaluate_rejects_a_number_past_the_float_range(small_model,
                                                        tmp_path, capsys):
    """A JSON integer too large for a float, where model.json holds a
    float, exits 2 naming the file: float() raises OverflowError, which is
    not a ValueError."""
    feat, cfg, model_path = small_model
    for put in (lambda doc: doc["detector"].update(base_score=["HUGE"]),
                lambda doc: doc.update(threshold="HUGE")):
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        put(doc)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 400),
                       encoding="utf-8")
        assert main(["evaluate", "--model", str(bad), "--features", feat,
                     "--out", str(tmp_path / "report.txt"),
                     "--config", cfg]) == 2
        assert one_error_line(capsys) == (
            f"error: {bad}: malformed model: int too large to convert to "
            "float\n")


def test_evaluate_rejects_a_training_config_out_of_range(small_model,
                                                        tmp_path, capsys):
    """model.json's training config is checked by the dataclass that
    checks the experiment's model section."""
    feat, cfg, model_path = small_model
    for key, value, fault in (
            ("seed", -1, "model.seed must not be negative"),
            ("reg_lambda", math.nan,
             "reg_lambda must be non-negative and finite"),
            ("min_samples_leaf", 0, "min_samples_leaf must be at least 1")):
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["config"][key] = value
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["evaluate", "--model", str(bad), "--features", feat,
                     "--out", str(tmp_path / "report.txt"),
                     "--config", cfg]) == 2
        assert one_error_line(capsys) == f"error: {bad}: {fault}\n"


BAD_JSON = (math.nan, math.inf, -math.inf, True, None, "x", -1, 0, 2.5, [],
            {})


def json_leaves(node, path=()):
    """The path of every scalar in a JSON document, through the first and
    last entry of each list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i in sorted({0, len(node) - 1}) if node else ():
            yield from json_leaves(node[i], path + (i,))
    else:
        yield path


def _sound(model) -> bool:
    """Whether a loaded model holds finite numbers, class labels that are
    strings and settings of their defaults' kinds."""
    subs = [e for e in (model.detector, model.localizer, model.severity)
            if e is not None]
    numbers = np.concatenate([[model.threshold]] + [
        np.concatenate([e.base_score] + [t.threshold for t in e.trees]
                       + [t.value.ravel() for t in e.trees]) for e in subs])
    kinds = {int: (int,), float: (int, float), str: (str,)}
    cfg = model.detector.config
    return (bool(np.isfinite(numbers).all())
            and all(isinstance(c, str)
                    for c in model.road_classes + model.severity_classes)
            and all(type(getattr(cfg, f.name)) in kinds[type(f.default)]
                    for f in dataclasses.fields(cfg)))


def test_mutated_model_loads_sound_or_is_refused_naming_the_file(
        small_model, tmp_path):
    """Each scalar of model.json, through the first and last entry of each
    list, set to each bad JSON value: the model either still loads with
    finite numbers, string labels and settings of the right kind, or is
    refused naming the file.  The pinned cases used to load."""
    with open(small_model[2], encoding="utf-8") as fh:
        doc = json.load(fh)
    paths = list(json_leaves(doc))
    assert len(paths) > 90
    bad = tmp_path / "bad_model.json"
    faults = {}
    for path, value in itertools.product(paths, BAD_JSON):
        mutant = copy.deepcopy(doc)
        parent = functools.reduce(operator.getitem, path[:-1], mutant)
        parent[path[-1]] = value
        bad.write_text(json.dumps(mutant), encoding="utf-8")
        try:
            assert _sound(load_model(bad)), (path, value)
        except ModelError as exc:
            assert str(exc).startswith(f"{bad}: "), str(exc)
            faults[path, json.dumps(value)] = str(exc)[len(f"{bad}: "):]
    for key in ("n_trees", "max_depth", "min_samples_leaf", "seed"):
        assert faults[("config", key), "NaN"] == (
            f"{key} must be an integer, not nan")
    assert faults[("config", "max_bins"), "2.5"] == (
        "max_bins must be an integer, not 2.5")
    assert faults[("config", "learning_rate"), "true"] == (
        "learning_rate must be a number, not True")
    assert faults[("detector", "base_score", 0), "NaN"] == (
        "detector: base_score holds NaN, expected a list of finite numbers")
    assert faults[("road_classes", 0), "null"].startswith(
        "localizer: road_classes is [null, ")


# (reader, its module's error, the lines before the undecodable one, the
# undecodable line); the report case puts the bad byte past the first 8 KiB
# the text layer decodes in one go
UNDECODABLE = [
    (load_config, ConfigError, b"days: 2\n", b"seed: \xff\n"),
    (demand.read_counts_csv, demand.DemandError,
     b"road_label,start_time_s,bin_s,count\n", b"r\xe9,0,900,1\n"),
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
    (read_report, MetricsError, b"windows=4\n" + b"# filler line\n" * 1000,
     b"auc=\xff\n"),
]


@pytest.mark.parametrize("reader, error, before, bad", UNDECODABLE, ids=[
    "load_config", "read_counts_csv", "read_schedule",
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
    "read_report": (
        read_report, MetricsError, None, "windows=4",
        "tp 1", "expected key=value, got 'tp 1'",
        "tp=1.x", "tp is not a number: '1.x'"),
    "read_sweep": (
        read_sweep, MetricsError, metrics.SWEEP_HEADER,
        "4,6,1,1,3,1,0.5,0.25,0.5,0.5,0.75,,,0,0,,", "3,6,1",
        "expected 17 fields, got 3",
        "3,6,1,1,3,1,0.5,0.25,0.5,0.5,0.x,,,0,0,,",
        "auc is not a number: '0.x'"),
    "read_validation_report": (
        read_validation_report, ValidationError, VALIDATION_HEADER,
        "0,0.25,0.5,1", "1,0.25", "expected 4 fields, got 2",
        "1,0.x,0.5,1", "could not convert string to float: '0.x'"),
    "load_network": (
        load_network, NetworkError,
        "id,from,to,length_m,lanes,speed_limit_mps,road_label",
        "s0,a0,a1,200,1,10,main", "s1,a1,a2,200,1",
        "expected 7 fields, got 5", "s1,a1,a2,2x0,1,10,main",
        "could not convert string to float: '2x0'"),
}

# the tag line a reader's rows follow, for a section of a sectioned file
SECTION = {"load_network": "[segments]\n"}


def _malformed_cases():
    for name, (reader, error, header, good, short, short_fault, bad,
               bad_fault) in MALFORMED.items():
        tag = SECTION.get(name, "")
        head = tag + ("" if header is None else header + "\n")
        line = head.count("\n") + 2
        yield pytest.param(reader, error, f"{head}{good}\n{short}\n",
                           f"{line}: {short_fault}", id=f"{name}-short-row")
        yield pytest.param(reader, error, f"{head}{good}\n{bad}\n",
                           f"{line}: {bad_fault}", id=f"{name}-bad-number")
        if header is not None:
            # a section's header is named by its line, a file's by the path
            where = f"{line - 2}:" if tag else ""
            yield pytest.param(reader, error,
                               f"{tag}wrong,{header}\n{good}\n",
                               f"{where} unexpected header 'wrong,{header}'",
                               id=f"{name}-wrong-header")
        else:
            key = good.partition("=")[0]
            yield pytest.param(reader, error,
                               f"{good}\n" + "# filler\n\n" * 3 + f"{good}\n",
                               f"8: duplicate key '{key}' (first on line 1)",
                               id=f"{name}-duplicate-key")


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


def test_bin_seconds_must_match_the_counts(sim_run, tmp_path, capsys):
    """The curve counts vehicles per counts bin, so a bin_seconds other
    than the counts' bin would scale every spawn rate; simulate and
    validate both stop before writing a day or a report."""
    tmp, cfg_path, out_dir = sim_run
    counts = str(tmp / "counts.csv")
    cfg = line_experiment(tmp_path, bin_seconds=2 * BIN, counts=counts)
    fault = (f"error: bin_seconds is {2 * BIN}, but {counts} counts "
             f"{BIN}-s bins\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert one_error_line(capsys) == fault
    assert not os.path.exists(tmp_path / "runs")
    out = tmp_path / "validation.csv"
    assert main(["validate", "--raw", out_dir, "--counts", counts,
                 "--out", str(out), "--config", cfg]) == 2
    assert one_error_line(capsys) == fault
    assert not out.exists()


def test_extract_features_rejects_an_incident_off_the_network(
        sim_run, tmp_path, capsys):
    tmp, cfg_path, out_dir = sim_run
    day = tmp_path / "offnet" / "day_000"
    shutil.copytree(os.path.join(out_dir, "day_000"), day)
    log_path = day / "incidents.csv"
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) > 1, "the day plans no incident"
    fields = lines[1].split(",")
    fields[5] = "nosuchseg"
    log_path.write_text("".join([lines[0], ",".join(fields)] + lines[2:]),
                        encoding="utf-8")
    out = tmp_path / "f.csv"
    assert main(["extract-features", "--raw", str(tmp_path / "offnet"),
                 "--out", str(out), "--config", cfg_path]) == 2
    assert one_error_line(capsys) == (
        f"error: {log_path}: incident {fields[0]} is on segment "
        "'nosuchseg', which the network lacks\n")
    assert not out.exists()


def _set_field(path, line, column, value):
    """Sets one comma-separated field of a text file; returns the old
    one."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[line].rstrip("\n").split(",")
    old, fields[column] = fields[column], value
    lines[line] = ",".join(fields) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return old


def test_extract_features_refuses_non_finite_readings_and_incidents(
        sim_run, tmp_path, capsys):
    tmp, cfg_path, out_dir = sim_run
    day = tmp_path / "nonfinite" / "day_000"
    out = tmp_path / "f.csv"
    args = ["extract-features", "--raw", str(day.parent), "--out", str(out),
            "--config", cfg_path]
    shutil.copytree(os.path.join(out_dir, "day_000"), day)
    raw = day / "raw.csv"
    speed = _set_field(raw, 2, 3, "inf")
    occupancy = raw.read_text(encoding="utf-8").split("\n")[2].split(",")[4]
    assert main(args) == 2
    assert one_error_line(capsys) == (
        f"error: {raw}: data row 2 has mean_speed_mps inf and occupancy "
        f"{occupancy}: both must be finite and non-negative\n")

    _set_field(raw, 2, 3, speed)
    _set_field(day / "incidents.csv", 1, 6, "nan")
    assert main(args) == 2
    assert one_error_line(capsys) == (
        f"error: {day / 'incidents.csv'}:2: incident offset must be "
        f"non-negative and finite\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_feature_fields_must_be_empty_or_finite(small_model, tmp_path,
                                                capsys, command):
    feat, cfg, model = small_model
    bad = tmp_path / "features.csv"
    shutil.copy(feat, bad)
    _set_field(bad, 1, 1, "1e400")
    name = bad.read_text(encoding="utf-8").split(",", 2)[1]
    out = str(tmp_path / "out")
    args = {"train": ["train", "--features", str(bad), "--out", out],
            "evaluate": ["evaluate", "--model", model, "--features",
                         str(bad), "--out", out]}[command]
    assert main(args + ["--config", cfg]) == 2
    assert one_error_line(capsys) == (
        f"error: {bad}:2: {name} is '1e400', expected a finite number or "
        f"an empty field\n")


@pytest.mark.parametrize("key, weights, at_load, fault", [
    ("entry_weights", {"a0": 1.0, "typo_a1": 5.0}, False,
     "entry_weights names typo_a1, not entry node(s) of the network"),
    ("exit_weights", {"a0": 1.0, "a3": 1.0}, False,
     "exit_weights names a0, not exit node(s) of the network"),
    ("entry_weights", {"a0": -1.0}, True,
     "entry_weights gives a0 the weight -1.0; weights must be finite and "
     "non-negative"),
    ("entry_weights", {"a0": float("nan")}, True,
     "entry_weights gives a0 the weight nan; weights must be finite and "
     "non-negative"),
    ("exit_weights", {"a3": float("inf")}, True,
     "exit_weights gives a3 the weight inf; weights must be finite and "
     "non-negative")],
    ids=["entry", "exit", "negative", "nan", "inf"])
def test_weights_for_nodes_that_are_not_entries_or_exits_exit_2(
        tmp_path, capsys, key, weights, at_load, fault):
    """A weight the draw would ignore (it gave 0 to an unknown name) is
    rejected by key and node before any day is written; one that is
    negative or not finite is rejected when the config loads, naming the
    file, before its echo is written."""
    cfg = line_experiment(tmp_path, **{key: weights})
    assert main(["simulate", "--config", cfg]) == 2
    where = f"{cfg}: " if at_load else ""
    assert one_error_line(capsys) == f"error: {where}{fault}\n"
    assert not os.path.exists(tmp_path / "runs" / "day_000")
    assert os.path.exists(tmp_path / "runs" / "config_used.yaml") != at_load


def test_sensors_that_are_not_a_list_of_node_ids_exit_2(tmp_path, capsys):
    """A bare string would be read as a list of its characters."""
    for value in ("a1", ["a1", 2]):
        cfg = line_experiment(tmp_path, sensors=value)
        assert main(["simulate", "--config", cfg]) == 2
        assert one_error_line(capsys) == (
            f"error: {cfg}: sensors must be a list of node ids, not "
            f"{value!r}\n")
    assert not os.path.exists(tmp_path / "runs")


def test_evaluate_scores_events_on_one_day_only(small_model, sim_run,
                                                tmp_path, capsys):
    """An incident log is one day's: a table of two days repeats every
    window end, and would credit an event with the other day's flags."""
    feat, cfg, model = small_model
    _tmp, _cfg_path, out_dir = sim_run
    table = features.read_feature_table(feat)
    two_days = str(tmp_path / "two_days.csv")
    features.write_feature_table(features.concat_tables([table, table]),
                                 two_days)
    log = os.path.join(out_dir, "day_001", "incidents.csv")
    report = tmp_path / "report.txt"
    args = ["evaluate", "--model", model, "--out", str(report),
            "--config", cfg]
    assert main([*args, "--features", two_days, "--incidents", log]) == 2
    assert one_error_line(capsys) == (
        "error: event metrics need a one-day table, whose window ends "
        "increase strictly\n")
    assert not report.exists()
    assert main([*args, "--features", two_days]) == 0
    assert main([*args, "--features", feat, "--incidents", log]) == 0


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
        "fit-demand": ["--counts"],
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
