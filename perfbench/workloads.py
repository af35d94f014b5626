"""The three benchmark workloads: inputs, stage sequences and output checks.

Every workload writes its own inputs (counts file and experiment YAML) from
the workload seed, then drives the ``trafficlab`` command line in-process
through ``trafficlab.cli.main``, one call per stage.  Each stage call is one
operation; it fails if it raises, returns non-zero or fails its check.

Why these three (see README.md for the layer-to-metric map):

* desk_gated     the acceptance desk pipeline on the signalized 4x4 grid with
                 4 sensors: models take most of the time, capture is light.
* dense_capture  the same grid, demand and incidents with all 16 sensor
                 sites recording, simulate and extract-features only: capture
                 and the raw CSV round trip dominate, models do no work.
* highway_sweep  sweep-sparsity on highway8, which has no signals: the bypass
                 for signal-lookup changes, and the sweep path (one
                 simulation, sensor subsets, repeated small multiclass fits).
"""
from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field

import yaml

from trafficlab import features, incidents, metrics, models, sensors
from trafficlab.netgen import bundled_path
from trafficlab.roadnet import (SensorPlacement, contiguous_sensor_pairs,
                                load_network, validate_network)

SCENARIO_SEED = 42  # the acceptance desk_config's experiment seed
DESK_SENSORS = ["n01", "n13", "n20", "n32"]
DESK_INCIDENTS = {"p_incident": 0.004, "p_severe": 0.5,
                  "base_radius_m": 200.0, "slowdown_factor": 0.10,
                  "minor_duration_s": [600, 1200],
                  "severe_duration_s": [1200, 3000]}
# the incident mix of the command-line highway test, at p_incident 0.01: at
# the desk rate a 3-h highway day plans too few incidents for the sweep's
# multiclass fits, and at the test's 0.03 every window can come out positive
HIGHWAY_INCIDENTS = {"p_incident": 0.01, "p_crash_given_incident": 0.3,
                     "p_severe": 0.3, "minor_duration_s": [300, 600],
                     "severe_duration_s": [600, 900],
                     "base_radius_m": 150.0, "slowdown_factor": 0.2}
DESK_WINDOW = {"window_s": 600, "stride_s": 30, "label_mode": "window"}
HIGHWAY_LEVELS = (7, 3)
FEATURE_TABLES = ("train.csv", "eval.csv", "features.csv")


class CheckFailed(Exception):
    """An output check found a stage's result wrong."""


@dataclass
class Workload:
    name: str
    network: str
    days: int            # simulated days; desk and sweep hold the last out
    day_seconds: int
    sensors: list | None  # None: every sensor site of the network
    model: dict = field(default_factory=dict)
    incidents: dict = field(default_factory=lambda: dict(DESK_INCIDENTS))

    # -- inputs ---------------------------------------------------------------

    def write_inputs(self, root: str, seed: int) -> str:
        """Write counts and experiment config under root; return the config
        path.  The workload seed seeds the learner's row subsampling.  The
        traffic (spawns, incidents, driver noise) is the fixed scenario
        SCENARIO_SEED: on the signalized grid, another traffic seed moves
        simulation and training time by 20% or more, because the incidents
        decide how long jams last and how many road classes the localizer
        fits, and that would bury the change a run is meant to show."""
        os.makedirs(root, exist_ok=True)
        counts = os.path.join(root, "counts3.csv")
        _tripled_counts(counts)
        doc = {"network": self.network, "counts": counts,
               "out_dir": os.path.join(root, "days"), "days": self.days,
               "day_seconds": self.day_seconds, "bin_seconds": 900,
               "seed": SCENARIO_SEED, "threshold": 0.65,
               "sensors": self.sensors, "model": dict(self.model, seed=seed),
               "window": dict(DESK_WINDOW),
               "incidents": dict(self.incidents)}
        if self.name == "highway_sweep":
            # sweep-sparsity holds out one extra day itself
            doc["days"] = self.days - 1
        path = os.path.join(root, "experiment.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        return path

    def load_network(self):
        net = load_network(str(bundled_path(self.network + ".net")))
        validate_network(net)
        return net

    def sensor_ids(self, net) -> list:
        if self.sensors is not None:
            return list(self.sensors)
        return sorted(n.id for n in net.nodes.values() if n.sensor_site)

    # -- stages ---------------------------------------------------------------

    def stages(self, root: str, cfg: str, net):
        """(stage group, argv, check) per command, in pipeline order.  A
        check runs after its stage returns 0 and raises CheckFailed."""
        days = os.path.join(root, "days")
        if self.name == "highway_sweep":
            levels = ",".join(str(v) for v in HIGHWAY_LEVELS)
            return [("sweep", ["sweep-sparsity", "--config", cfg,
                               "--sensors", levels],
                     lambda: self._check_sweep(root, net))]
        ids = self.sensor_ids(net)
        sim = ("simulate", ["simulate", "--config", cfg],
               lambda: self._check_days(days, self.days, ids))
        if self.name == "dense_capture":
            table = os.path.join(root, "features.csv")
            return [sim, ("features",
                          ["extract-features", "--raw", days, "--out", table,
                           "--config", cfg],
                          lambda: self._check_table(table, net, ids,
                                                    self.days))]
        evald = os.path.join(root, "eval")
        last = f"day_{self.days - 1:03d}"
        train_csv = os.path.join(root, "train.csv")
        eval_csv = os.path.join(root, "eval.csv")
        model = os.path.join(root, "model.json")
        report = os.path.join(root, "report.txt")
        log = os.path.join(evald, last, "incidents.csv")

        def hold_out():
            self._check_days(days, self.days, ids)
            # the desk_run acceptance fixture moves the last day aside
            os.makedirs(evald)
            shutil.move(os.path.join(days, last), os.path.join(evald, last))

        return [
            ("simulate", ["simulate", "--config", cfg], hold_out),
            ("validate", ["validate", "--raw", days, "--counts",
                          os.path.join(root, "counts3.csv"), "--config", cfg],
             lambda: self._check_validation(days)),
            ("features", ["extract-features", "--raw", days, "--out",
                          train_csv, "--config", cfg],
             lambda: self._check_table(train_csv, net, ids, self.days - 1)),
            ("features", ["extract-features", "--raw", evald, "--out",
                          eval_csv, "--config", cfg],
             lambda: self._check_table(eval_csv, net, ids, 1)),
            ("train", ["train", "--features", train_csv, "--out", model,
                       "--config", cfg],
             lambda: models.load_model(model)),
            ("evaluate", ["evaluate", "--model", model, "--features",
                          eval_csv, "--incidents", log, "--out", report,
                          "--config", cfg],
             lambda: _check_rescore(model, features.read_feature_table(
                 eval_csv), incidents.read_incident_log(log), report)),
        ]

    def report_path(self, root: str) -> str | None:
        """The report the detection-quality figures come from."""
        if self.name == "desk_gated":
            return os.path.join(root, "report.txt")
        if self.name == "highway_sweep":
            return os.path.join(root, "days", "sweep",
                                f"level_{min(HIGHWAY_LEVELS):02d}",
                                "report.txt")
        return None

    def artifacts(self, root: str) -> list:
        """Relative paths of every raw, incident, feature and model file."""
        return sorted(
            os.path.relpath(os.path.join(dirpath, f), root)
            for dirpath, _dirs, files in os.walk(root) for f in files
            if f in ("raw.csv", "incidents.csv", "model.json")
            or (dirpath == root and f in FEATURE_TABLES))

    # -- checks ---------------------------------------------------------------

    def _windows_per_day(self) -> int:
        return len(range(DESK_WINDOW["window_s"], self.day_seconds + 1,
                         DESK_WINDOW["stride_s"]))

    def _check_days(self, days_root: str, n_days: int, ids) -> None:
        for day in range(n_days):
            dd = os.path.join(days_root, f"day_{day:03d}")
            _check_raw(os.path.join(dd, "raw.csv"), self.day_seconds, ids)
            incidents.read_incident_log(os.path.join(dd, "incidents.csv"))

    def _check_validation(self, days_root: str) -> None:
        path = os.path.join(days_root, "validation.csv")
        with open(path, encoding="utf-8") as fh:
            rows = [ln for ln in fh.read().splitlines()[1:] if ln]
        if len(rows) != self.days - 1:
            raise CheckFailed(f"{path}: {len(rows)} day rows, "
                              f"expected {self.days - 1}")

    def _check_table(self, path: str, net, ids, n_days: int) -> None:
        table = features.read_feature_table(path)
        expect = _expected_columns(net, ids)
        if table.columns != expect:
            raise CheckFailed(f"{path}: columns {table.columns} != {expect}")
        rows = n_days * self._windows_per_day()
        if table.n_rows != rows:
            raise CheckFailed(f"{path}: {table.n_rows} rows, expected {rows}")

    def _check_sweep(self, root: str, net) -> None:
        sweep = os.path.join(root, "days", "sweep")
        full = self.sensor_ids(net)
        self._check_days(sweep, self.days, full)
        with open(os.path.join(sweep, "sweep.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        levels = [ln.split(",")[0] for ln in lines[1:]]
        if levels != [str(v) for v in HIGHWAY_LEVELS]:
            raise CheckFailed(f"sweep.csv levels {levels}")
        last = os.path.join(sweep, f"day_{self.days - 1:03d}")
        raw = sensors.load_raw(os.path.join(last, "raw.csv"))
        log = incidents.read_incident_log(os.path.join(last, "incidents.csv"))
        for level in HIGHWAY_LEVELS:
            ids = full[:level]
            sub = sensors.subset_sensors(raw, ids)
            pairs = contiguous_sensor_pairs(
                net, SensorPlacement(tuple(ids), 50.0))
            recs = features.reidentify_travel_times(sub, pairs)
            cfg = features.WindowConfig(DESK_WINDOW["window_s"],
                                        DESK_WINDOW["stride_s"],
                                        DESK_WINDOW["label_mode"])
            table = features.build_feature_rows(sub, recs, cfg, log, net,
                                                pairs=pairs)
            level_dir = os.path.join(sweep, f"level_{level:02d}")
            _check_rescore(os.path.join(level_dir, "model.json"), table, log,
                           os.path.join(level_dir, "report.txt"))


WORKLOADS = {
    w.name: w for w in (
        Workload("desk_gated", "grid4x4", days=2, day_seconds=7200,
                 sensors=DESK_SENSORS),
        Workload("dense_capture", "grid4x4", days=1, day_seconds=7200,
                 sensors=None),
        Workload("highway_sweep", "highway8", days=2, day_seconds=5400,
                 sensors=None, model={"n_trees": 120, "max_depth": 5},
                 incidents=HIGHWAY_INCIDENTS),
    )
}


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _tripled_counts(path: str) -> None:
    """The bundled city counts tripled, as in the acceptance desk config."""
    with open(bundled_path("city_counts.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lines[0] + "\n")
        for line in lines[1:]:
            road, start, bin_s, count = line.split(",")
            fh.write(f"{road},{start},{bin_s},{int(count) * 3}\n")


def _expected_columns(net, ids) -> list:
    ids = sorted(ids)
    pairs = contiguous_sensor_pairs(net, SensorPlacement(tuple(ids), 50.0))
    names = [f"{tag}_{s}" for tag in ("cnt_mean", "spd_mean", "occ_mean")
             for s in ids]
    names += [f"tt_{a}__{b}" for a, b in pairs]
    return (["window_end_s", "time_of_day"] + names
            + ["label_incident", "label_road", "label_severity"])


def _check_raw(path: str, horizon: int, ids) -> None:
    """Row count equals horizon x sensors, every (second, sensor) once."""
    expect_ids = set(ids)
    seen = set()
    n = 0
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != sensors.RAW_HEADER:
            raise CheckFailed(f"{path}: bad header")
        for line in fh:
            t, sid, _rest = line.split(",", 2)
            seen.add((int(t), sid))
            n += 1
    if n != horizon * len(expect_ids) or len(seen) != n \
            or {s for _t, s in seen} != expect_ids \
            or max(t for t, _s in seen) != horizon - 1:
        raise CheckFailed(f"{path}: {n} rows, expected {horizon} x "
                          f"{len(expect_ids)} sensors")


def _check_rescore(model_path: str, table, log, report_path: str) -> None:
    """Re-score the held-out table with the saved model and compare with
    the written report line by line."""
    model = models.load_model(model_path)
    preds = models.infer_batch(model, table.X, table.window_end)
    rep = metrics.evaluate_predictions(table, preds, log,
                                       grace_s=DESK_WINDOW["window_s"])
    want = [f"{k}={metrics.format_metric(v)}"
            for k, v in rep.as_dict().items()]
    with open(report_path, encoding="utf-8") as fh:
        got = fh.read().splitlines()
    if got != want:
        raise CheckFailed(f"{report_path}: re-scoring differs")
