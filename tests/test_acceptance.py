"""Acceptance gate: ten scenario criteria, one test (and one pass/fail
line under pytest -v) per criterion.

Index:
  criterion 01  demand fit quality on noisy synthetic counts
  criterion 02  KS statistic oracle equality and calibration
  criterion 03  two-hour grid audits and bit-identical reruns
  criterion 04  incident halting and zone slowdown vs twin run
  criterion 05  feature pipeline oracle equivalences
  criterion 06  metric formula oracle equivalences
  criterion 07  learner quality, split oracle, round trip
  criterion 08  desk-scale end-to-end detection pipeline
  criterion 09  sensor sparsity sweep down to three sensors
  criterion 10  gating biconditional across evaluation rows
"""
import math
import os
import shutil
import time

import numpy as np
import pytest
import yaml

from trafficlab.demand import (FlowModelParams, MacroCountSeries, eval_flow,
                               fft_init_params, lm_fit, spawn_schedule)
from trafficlab.cli import main
from trafficlab.features import (WindowConfig, build_feature_rows,
                                 incident_label_at, read_feature_table,
                                 reidentify_travel_times)
from trafficlab.incidents import (IncidentPlanConfig, SeverityClass,
                                  compute_impact_zones, plan_incidents)
from trafficlab.metrics import auc_roc, read_report, read_sweep
from trafficlab.microsim import SimConfig, run
from trafficlab.models import (infer_batch, load_model, predict_margin,
                               predict_proba, save_model,
                               train_incident_ensemble, train_tree_ensemble)
from trafficlab.netgen import bundled_path
from trafficlab.roadnet import (SensorPlacement, contiguous_sensor_pairs,
                                load_network, validate_placement)
from trafficlab.sensors import emit_raw
from trafficlab.validate import ks_two_sample

from conftest import make_line_net, rng_for, traced_run
from test_features import raw_from_sightings
from test_incidents import spec_of
from test_metrics import columns, events, flag_rows, hit, pairwise_auc
from test_microsim import linear_trace
from test_models import assert_same_predictions, exhaustive_best_split, \
    gated_table, names, populated, small_cfg, stump_data, walk, xor_data
from test_validate import brute_force_ks

N_BINS, BIN_S = 96, 900.0
DAY_S = N_BINS * BIN_S


def flat_rate(per_second: float, bin_s: float = 900.0) -> FlowModelParams:
    return FlowModelParams(0.0, 1.0, 0.0, 0.0, 2.0, 0.0,
                           per_second * bin_s)


def grid_network():
    return load_network(str(bundled_path("grid4x4.net")))


def scaled_counts_csv(path, factor=3):
    """The bundled demand tripled, so the desk-scale grid carries enough
    traffic for incidents to leave a sensor-visible footprint."""
    lines = open(bundled_path("city_counts.csv"), encoding="utf-8") \
        .read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lines[0] + "\n")
        for line in lines[1:]:
            road, start, bin_s, count = line.split(",")
            fh.write(f"{road},{start},{bin_s},{int(count) * factor}\n")
    return str(path)


def desk_config(root, **extra):
    doc = {"network": "grid4x4",
           "counts": scaled_counts_csv(os.path.join(root, "counts3.csv")),
           "out_dir": os.path.join(root, "days"),
           "days": 7, "day_seconds": 21600, "bin_seconds": 900, "seed": 42,
           "threshold": 0.65,
           "sensors": ["n01", "n13", "n20", "n32"],
           "window": {"window_s": 600, "stride_s": 30,
                      "label_mode": "window"},
           "incidents": {"p_incident": 0.004, "p_severe": 0.5,
                         "base_radius_m": 200.0, "slowdown_factor": 0.10,
                         "minor_duration_s": [600, 1200],
                         "severe_duration_s": [1200, 3000]}}
    doc.update(extra)
    path = os.path.join(root, "experiment.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)
    return path


# -- criterion 01 --------------------------------------------------------------


def test_criterion_01_demand_fitting():
    """Known two-sinusoid parameters plus sigma=0.5 noise: the spectral
    initializer and damped refinement recover fit_rmse <= 1.5 sigma and a
    per-bin curve error <= 2 sigma, 20 seeds, under 10 s."""
    sigma = 0.5
    t0 = time.perf_counter()
    times = np.arange(N_BINS) * BIN_S
    for seed in range(20):
        rng = rng_for("accept-demand", seed)
        k1 = rng.integers(3, 6) + rng.uniform(-0.3, 0.3)
        k2 = rng.integers(7, 11) + rng.uniform(-0.3, 0.3)
        truth = FlowModelParams(
            a1=rng.uniform(5.0, 8.0), b1=2 * math.pi * k1 / DAY_S,
            c1=rng.uniform(-math.pi, math.pi),
            a2=rng.uniform(2.5, 4.0), b2=2 * math.pi * k2 / DAY_S,
            c2=rng.uniform(-math.pi, math.pi), d=rng.uniform(15.0, 25.0))
        clean = np.array([eval_flow(truth, tt) for tt in times])
        noisy = np.clip(clean + rng.normal(0.0, sigma, N_BINS), 0.0, None)
        series = MacroCountSeries(BIN_S, noisy)
        fit = lm_fit(series, fft_init_params(series))
        fitted = np.array([eval_flow(fit, tt) for tt in times])
        assert fit.fit_rmse <= 1.5 * sigma
        assert np.max(np.abs(fitted - clean)) <= 2.0 * sigma
    assert time.perf_counter() - t0 < 10.0


# -- criterion 02 --------------------------------------------------------------


def test_criterion_02_ks_oracle_and_calibration():
    """The KS statistic equals the brute-force sup-difference on 50 random
    pairs exactly; identical-distribution pass rate >= 90/100 at the 0.05
    level; under 30 s."""
    t0 = time.perf_counter()
    for trial in range(50):
        rng = rng_for("accept-ks", trial)
        n = int(rng.integers(5, 120))
        m = int(rng.integers(5, 120))
        kind = trial % 3
        if kind == 0:
            a = rng.normal(0.0, 1.0, n)
            b = rng.normal(0.3, 1.2, m)
        elif kind == 1:   # heavy ties
            a = rng.poisson(4.0, n).astype(np.float64)
            b = rng.poisson(5.0, m).astype(np.float64)
        else:
            a = rng.uniform(0.0, 1.0, n)
            b = np.round(rng.uniform(0.0, 1.0, m), 1)
        assert ks_two_sample(a, b).statistic == brute_force_ks(a, b)

    passed = 0
    for trial in range(100):
        rng = rng_for("accept-ks-cal", trial)
        r = ks_two_sample(rng.normal(0.0, 1.0, 80), rng.normal(0.0, 1.0, 70))
        passed += r.passed
    assert passed >= 90
    assert time.perf_counter() - t0 < 30.0


# -- criterion 03 --------------------------------------------------------------


def test_criterion_03_simulator_invariants(tmp_path):
    """Two audited hours on the 4x4 grid (~1400 vehicles): conservation,
    collision, speed-bound, and signal audits all clean; a rerun with the
    same seed emits a bit-identical raw dataset; under 60 s."""
    t0 = time.perf_counter()
    net = grid_network()
    sites = sorted(n.id for n in net.nodes.values() if n.sensor_site)
    placement = SensorPlacement(tuple(sites), 50.0)
    validate_placement(net, placement)
    sched = spawn_schedule(flat_rate(175.0 / 900.0), net, 7200.0, seed=11,
                           bin_duration=900.0)
    assert 1100 <= len(sched.events) <= 1700

    runs = [run(net, sched, None, placement, SimConfig(seed=11), audit=True)
            for _ in range(2)]
    for r in runs:
        assert r.audit.checked_steps == 7200
        assert r.audit.ok, r.audit.violations[:5]
        assert r.spawned == len(sched.events)

    paths = []
    for i, r in enumerate(runs):
        raw = tmp_path / f"raw_{i}.csv"
        emit_raw(r.raw, [], raw, tmp_path / f"inc_{i}.csv")
        paths.append(raw.read_bytes())
    assert paths[0] == paths[1]
    assert time.perf_counter() - t0 < 60.0


# -- criterion 04 --------------------------------------------------------------


def test_criterion_04_incident_mechanics():
    """Every injected incident freezes its designated vehicles (speed 0 on
    the incident segment for the whole duration, up to the vehicles present
    at onset) and the zone's mean speed drops strictly below the
    incident-free twin's matched-window mean in >= 95% of incidents."""
    net = grid_network()
    seg_ids = sorted(net.segments)
    seg_index = {sid: i for i, sid in enumerate(seg_ids)}
    icfg = IncidentPlanConfig(p_incident=0.02, p_crash_given_incident=0.4,
                              p_severe=0.4, minor_duration_s=(240, 480),
                              severe_duration_s=(480, 900),
                              base_radius_m=150.0, slowdown_factor=0.1)
    n_incidents = quota_checked = slower = 0
    for seed in range(3):
        sched = spawn_schedule(flat_rate(0.12), net, 2400.0, seed=seed,
                               bin_duration=900.0)
        plan = plan_incidents(sched, icfg, net, seed=seed + 1000)
        res, trace = traced_run(net, sched, plan, None, SimConfig(seed=seed),
                                incident_cfg=icfg)
        _, twin = traced_run(net, sched, None, None, SimConfig(seed=seed))
        assert res.incident_log
        for spec in res.incident_log:
            n_incidents += 1
            si = seg_index[spec.segment_id]
            steps = range(spec.onset, min(spec.end, 2400))

            # halting: designation happens before movement at onset, so the
            # pool is the segment population one step earlier
            assert spec.onset >= 1
            _, _, segs0, _, _ = trace[spec.onset - 1]
            expected = min(spec.n_vehicles, int(np.sum(segs0 == si)))
            frozen = None
            for t in steps:
                _, slots, segs, _pos, speed = trace[t]
                stopped = {int(slots[i]) for i in range(len(slots))
                           if segs[i] == si and speed[i] == 0.0}
                frozen = stopped if frozen is None else frozen & stopped
            assert len(frozen) >= expected, spec
            quota_checked += expected > 0

            zones: dict = {}
            for sid, lo, hi in compute_impact_zones(net, spec):
                zones.setdefault(seg_index[sid], []).append((lo, hi))

            def zone_speeds(day_trace):
                vals = []
                for t in steps:
                    _, _slots, segs, pos, speed = day_trace[t]
                    for i in range(len(segs)):
                        for lo, hi in zones.get(int(segs[i]), ()):
                            if lo <= pos[i] <= hi:
                                vals.append(speed[i])
                                break
                return vals

            with_inc, without = zone_speeds(trace), zone_speeds(twin)
            assert with_inc and without, "zone never saw traffic"
            slower += float(np.mean(with_inc)) < float(np.mean(without))
    assert n_incidents >= 10
    assert quota_checked >= 10          # the halting check is not vacuous
    assert slower >= 0.95 * n_incidents


# -- criterion 05 --------------------------------------------------------------


def test_criterion_05_feature_oracles():
    """Travel times equal trajectory-replay ground truth, window means
    equal brute-force slice means, and labels equal direct interval
    arithmetic, all exactly."""
    # travel times vs replay on a fresh seed
    net = make_line_net()
    sched = spawn_schedule(flat_rate(0.08, 100.0), net, 500.0, seed=77,
                           bin_duration=100.0)
    placement = SensorPlacement(("a1", "a2"), range_m=60.0)
    res, trace = traced_run(net, sched, placement=placement,
                            cfg=SimConfig(seed=77))
    pairs = contiguous_sensor_pairs(net, placement)
    recs = reidentify_travel_times(res.raw, pairs)
    want = []
    for slot in range(res.spawned):
        tr = linear_trace(trace, slot, 200.0)
        near_a1 = [t for t, (lin, _v) in tr.items() if abs(lin - 200) <= 60]
        near_a2 = [t for t, (lin, _v) in tr.items() if abs(lin - 400) <= 60]
        if near_a1 and near_a2:
            arrive = min(near_a2)
            before = [t for t in near_a1 if t < arrive]
            if before:
                want.append((slot, max(before), arrive))
    assert want, "replay oracle found no traversals"
    assert sorted((r.vehicle_id, r.depart, r.arrive) for r in recs) \
        == sorted(want)

    # window means vs slice means on random dense readings
    rng = rng_for("accept-features", 0)
    horizon, window, stride = 240, 60, 20
    counts = {s: rng.integers(0, 5, horizon) for s in ("u", "v")}
    raw = raw_from_sightings(("u", "v"), horizon, {}, counts=counts,
                             seed="accept")
    table = build_feature_rows(raw, [], WindowConfig(window, stride), [],
                               net, pairs=[])
    for field, tag in (("count", "cnt_mean"), ("mean_speed", "spd_mean"),
                       ("occupancy", "occ_mean")):
        dense = raw.sensor_matrix(field).astype(np.float64)
        for k, sid in enumerate(raw.sensor_ids):
            col = table.X[:, table.feature_names.index(f"{tag}_{sid}")]
            want_col = [np.mean(dense[we - window:we, k])
                        for we in table.window_end.astype(int)]
            assert col.tolist() == want_col

    # labels vs direct interval arithmetic on random logs
    agree = 0
    for trial in range(30):
        rng = rng_for("accept-labels", trial)
        log = []
        for i in range(int(rng.integers(1, 5))):
            onset = int(rng.integers(0, 1800))
            log.append(spec_of(
                seg=f"s{rng.integers(0, 3)}", onset=onset,
                duration=int(rng.integers(30, 400)), sid=i,
                severity=(SeverityClass.SEVERE if rng.random() < 0.5
                          else SeverityClass.MINOR)))
        for span in (60, 300):
            for we in range(span, 2001, span):
                active, road, sev = incident_label_at(log, net, we, span)
                overlapping = [s for s in log
                               if s.onset < we and s.end > we - span]
                assert active == bool(overlapping)
                if overlapping:
                    first = min(overlapping, key=lambda s: (s.onset, s.id))
                    assert road == net.segments[first.segment_id].road_label
                    assert sev == first.severity.value
                agree += 1
    assert agree > 1000


# -- criterion 06 --------------------------------------------------------------


def test_criterion_06_metrics_oracles():
    """Rate formulas reproduce hand values (49 TP / 1 FN -> 0.98), the AUC
    matches the pairwise-counting oracle on 500 scored rows, and the mean
    detection delay of 180 s and 220 s events is exactly 200 s.  Rates and
    delays are read off evaluate_predictions' report of a table with no
    feature columns."""
    rep = flag_rows([1] * 50 + [0] * 96,
                    [1] * 49 + [0] + [1] * 6 + [0] * 90)
    assert rep.detection_rate == 0.98
    assert rep.false_alarm_rate == 0.0625
    assert rep.precision == 49 / 55
    assert rep.f1 == pytest.approx(2 * (49 / 55) * 0.98
                                   / (49 / 55 + 0.98), abs=1e-15)

    rng = rng_for("accept-auc", 0)
    truth = rng.random(500) < 0.4
    truth[:2] = [True, False]
    scores = np.round(rng.random(500), 2)  # two decimals force tie blocks
    assert auc_roc(truth, scores) == pytest.approx(
        pairwise_auc(truth, scores), abs=1e-12)

    preds = columns(hit(1180, 0.9), hit(2220, 0.8))
    specs = [spec_of(onset=1000, duration=400, sid=0),
             spec_of(onset=2000, duration=400, sid=1)]
    assert [events(preds, [spec], grace_s=0.0).mttd_s
            for spec in specs] == [180.0, 220.0]
    assert events(preds, specs, grace_s=0.0).mttd_s == 200.0


# -- criterion 07 --------------------------------------------------------------


def test_criterion_07_learner(tmp_path):
    """XOR training accuracy >= 0.99; root splits equal exhaustive
    enumeration; missing values follow the stored default direction; a
    save/load round trip predicts identically."""
    X, y = xor_data(300, 9)
    ens = train_tree_ensemble(X, y, small_cfg(n_trees=40), names(3))
    acc = ((predict_proba(ens, X) >= 0.5).astype(int) == y).mean()
    assert acc >= 0.99

    for trial in (50, 51, 52, 53):
        Xs, ys = stump_data(trial)
        stump = train_tree_ensemble(
            Xs, ys, small_cfg(n_trees=1, max_depth=1, min_samples_leaf=5,
                              reg_lambda=1.0), names(3))
        tree = stump.trees[0]
        p0 = float(np.clip(ys.mean(), 1e-6, 1 - 1e-6))
        g = np.full(len(ys), p0) - ys
        h = np.full(len(ys), p0 * (1.0 - p0))
        _gain, f, thr, miss_left, _rows = exhaustive_best_split(
            Xs, g, h, 5, 1.0)
        assert int(tree.feature[0]) == f
        assert float(tree.threshold[0]) == thr
        assert bool(tree.missing_left[0]) == miss_left

    rng = rng_for("accept-learner", 0)
    Xn = rng.normal(0.0, 1.0, (400, 4))
    Xn[rng.random((400, 4)) < 0.25] = np.nan
    yn = (np.nansum(Xn, axis=1) > 0).astype(int)
    deep = train_tree_ensemble(Xn, yn, small_cfg(max_depth=4, n_trees=6),
                               names(4))
    m = predict_margin(deep, Xn)
    for i in range(len(yn)):
        want = deep.base_score[0]
        for t in deep.trees:     # same accumulation order as the predictor
            want += walk(t, Xn[i])
        assert m[i] == want

    gated = train_incident_ensemble(gated_table(seed=8),
                                    small_cfg(n_trees=15))
    path = tmp_path / "m.json"
    save_model(gated, path)
    back = load_model(path)
    tbl = gated_table(seed=8)
    assert_same_predictions(infer_batch(back, tbl.X, tbl.window_end),
                            infer_batch(gated, tbl.X, tbl.window_end))
    np.testing.assert_array_equal(predict_margin(back.detector, tbl.X),
                                  predict_margin(gated.detector, tbl.X))


# -- criteria 08 and 10 share the desk-scale pipeline run ----------------------


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Six simulated training days plus a held-out day on the 4-of-16
    sensored grid, driven end to end through the command line."""
    root = str(tmp_path_factory.mktemp("desk"))
    cfg = desk_config(root)
    t0 = time.perf_counter()
    assert main(["simulate", "--config", cfg]) == 0
    os.makedirs(os.path.join(root, "eval"))
    shutil.move(os.path.join(root, "days", "day_006"),
                os.path.join(root, "eval", "day_006"))
    assert main(["extract-features", "--raw", os.path.join(root, "days"),
                 "--out", os.path.join(root, "train.csv"),
                 "--config", cfg]) == 0
    assert main(["extract-features", "--raw", os.path.join(root, "eval"),
                 "--out", os.path.join(root, "eval.csv"),
                 "--config", cfg]) == 0
    assert main(["train", "--features", os.path.join(root, "train.csv"),
                 "--out", os.path.join(root, "model.json"),
                 "--config", cfg]) == 0
    assert main(["evaluate", "--model", os.path.join(root, "model.json"),
                 "--features", os.path.join(root, "eval.csv"),
                 "--incidents",
                 os.path.join(root, "eval", "day_006", "incidents.csv"),
                 "--out", os.path.join(root, "report.txt"),
                 "--config", cfg]) == 0
    elapsed = time.perf_counter() - t0
    return root, read_report(os.path.join(root, "report.txt")), elapsed


def test_criterion_08_end_to_end_detection(desk_run):
    """Held-out-day detection on the desk-scale grid: event-level detection
    fraction >= 0.85, window FAR <= 0.15, mean time to detect <= 420 s,
    pipeline within 15 minutes."""
    _root, rep, elapsed = desk_run
    assert rep["n_events"] >= 4
    assert rep["event_detection_rate"] >= 0.85
    assert rep["false_alarm_rate"] <= 0.15
    assert rep["mttd_s"] <= 420.0
    assert elapsed <= 900.0


# -- criterion 09 --------------------------------------------------------------


def test_criterion_09_sparsity_sweep(tmp_path):
    """The retrain-and-evaluate sweep completes at every level from eight
    sensors down to three with valid reports, and the sparsest level still
    detects a majority of events."""
    cfg = desk_config(
        str(tmp_path), days=3, out_dir=str(tmp_path / "out"),
        sensors=["n01", "n13", "n20", "n32", "n11", "n22", "n00", "n33"],
        model={"n_trees": 120, "max_depth": 5})
    assert main(["sweep-sparsity", "--config", cfg,
                 "--sensors", "8,7,6,5,4,3"]) == 0
    root = tmp_path / "out" / "sweep"
    rows = read_sweep(root / "sweep.csv")
    assert [n for n, _rep in rows] == [8, 7, 6, 5, 4, 3]
    for n, rep in rows:
        assert rep.windows > 0
        assert rep.event_detection_rate is not None
        assert 0.0 <= rep.false_alarm_rate <= 1.0
        level_dir = root / f"level_{n:02d}"
        assert (level_dir / "report.txt").exists()
        assert (level_dir / "model.json").exists()
    _n, sparsest = rows[-1]
    assert sparsest.event_detection_rate >= 0.5


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_gating_property(desk_run):
    """(road label populated) <=> (severity populated) <=> detected, with
    zero violations across every evaluation row, including rows far from
    the training distribution."""
    root, _rep, _elapsed = desk_run
    model = load_model(os.path.join(root, "model.json"))
    table = read_feature_table(os.path.join(root, "eval.csv"))
    preds = infer_batch(model, table.X, table.window_end)
    violations = np.sum((preds.detected != populated(preds.road))
                        | (preds.detected != populated(preds.severity)))
    assert all(len(col) == table.n_rows for col in preds)
    assert violations == 0

    synth = gated_table(seed=11)
    gated = train_incident_ensemble(synth, small_cfg(n_trees=20))
    rng = rng_for("accept-gating", 0)
    X = rng.uniform(-2.0, 3.0, (2000, 3))
    X[rng.random((2000, 3)) < 0.2] = np.nan
    out = infer_batch(gated, X, np.arange(len(X)))
    assert np.sum((out.detected != populated(out.road))
                  | (out.detected != populated(out.severity))) == 0
    assert out.detected.any()
    assert not out.detected.all()
