"""Feature extraction tests.

Index:
  reidentify  travel-time records from sightings, from a real run and
              against the replaced per-row loop
  windows     rolling means bitwise-equal to slice means, tt averaging,
              tt columns bitwise-equal to per-window np.mean
  labels      interval overlap in both labeling modes, tie-breaking
  io          table round trip, concatenation
"""
import math

import numpy as np
import pytest

from trafficlab.demand import FlowModelParams, spawn_schedule
from trafficlab.features import (FeatureError, FeatureTable,
                                 TravelTimeRecord, WindowConfig,
                                 build_feature_rows, concat_tables,
                                 incident_label_at, read_feature_table,
                                 reidentify_travel_times,
                                 write_feature_table)
from trafficlab.incidents import (IncidentPlanConfig, IncidentSpec,
                                  IncidentType, SeverityClass,
                                  plan_incidents)
from trafficlab.microsim import SimConfig, run
from trafficlab.roadnet import SensorPlacement, contiguous_sensor_pairs
from trafficlab.sensors import RawDataset, emit_raw, load_raw

from conftest import make_line_net, rng_for, traced_run
from test_incidents import spec_of
from test_microsim import linear_trace


def raw_from_sightings(sensor_ids, horizon, seen, counts=None, speeds=None,
                       occupancy=None, seed="raw"):
    """Dense RawDataset with vehicle_ids from `seen[(sensor, t)]` and
    numeric columns either given as (sensor -> per-second array) or drawn
    from a deterministic generator."""
    rng = rng_for(seed, 0)
    cnt, spd, occ, vids = [], [], [], []
    for t in range(horizon):
        for s in sensor_ids:
            ids = tuple(seen.get((s, t), ()))
            cnt.append(counts[s][t] if counts else len(ids))
            spd.append(speeds[s][t] if speeds
                       else float(rng.uniform(0.0, 12.0)))
            occ.append(occupancy[s][t] if occupancy
                       else float(rng.uniform(0.0, 0.4)))
            vids.append(ids)
    return RawDataset(horizon, tuple(sensor_ids),
                      np.asarray(cnt, dtype=np.int32),
                      np.asarray(spd, dtype=np.float64),
                      np.asarray(occ, dtype=np.float64), vids)


# -- reidentify --------------------------------------------------------------


def test_reidentify_picks_last_sighting_before_first_arrival():
    seen = {}
    for t in (2, 3, 4):
        seen[("p", t)] = (3,)
    for t in (9, 10):
        seen[("q", t)] = (3,)
    seen[("p", 1)] = (7, 5)  # 5 never reaches q
    seen[("q", 2)] = (7,)
    raw = raw_from_sightings(("p", "q"), 20, seen)
    recs = reidentify_travel_times(raw, [("p", "q")])
    assert recs == [
        TravelTimeRecord(("p", "q"), 7, 1, 2),
        TravelTimeRecord(("p", "q"), 3, 4, 9),
    ]
    assert [r.travel_time for r in recs] == [1, 5]


def test_reidentify_applies_staleness_and_direction():
    seen = {("p", 0): (9,), ("q", 15): (9,),
            ("q", 3): (4,), ("p", 5): (4,)}  # 4 goes the other way
    raw = raw_from_sightings(("p", "q"), 20, seen)
    assert reidentify_travel_times(raw, [("p", "q")], staleness=10) == []
    kept = reidentify_travel_times(raw, [("p", "q")], staleness=15)
    assert [r.vehicle_id for r in kept] == [9]
    # the reverse pair sees vehicle 4
    rev = reidentify_travel_times(raw, [("q", "p")])
    assert rev == [TravelTimeRecord(("q", "p"), 4, 3, 5)]
    with pytest.raises(FeatureError, match="not covered"):
        reidentify_travel_times(raw, [("p", "z")])


def test_reidentify_matches_trajectory_replay():
    net = make_line_net()
    flat = FlowModelParams(0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 8.0)
    sched = spawn_schedule(flat, net, 500.0, seed=3, bin_duration=100.0)
    placement = SensorPlacement(("a1", "a2"), range_m=60.0)
    res, trace = traced_run(net, sched, placement=placement,
                            cfg=SimConfig(seed=3))
    pairs = contiguous_sensor_pairs(net, placement)
    assert pairs == [("a1", "a2")]
    recs = reidentify_travel_times(res.raw, pairs)
    assert recs, "expected traversals in a 500 s run"

    # replay: a1 sits at 200 m, a2 at 400 m along the unrolled line; a
    # vehicle is in range within 60 m of a node (segments exceed the range)
    want = []
    for slot in range(res.spawned):
        tr = linear_trace(trace, slot, 200.0)
        near_a1 = [t for t, (lin, _v) in tr.items() if abs(lin - 200) <= 60]
        near_a2 = [t for t, (lin, _v) in tr.items() if abs(lin - 400) <= 60]
        if not near_a1 or not near_a2:
            continue
        arrive = min(near_a2)
        before = [t for t in near_a1 if t < arrive]
        if before:
            want.append((slot, max(before), arrive))
    got = sorted((r.vehicle_id, r.depart, r.arrive) for r in recs)
    assert got == sorted(want)


def loop_reidentify(raw, pairs, staleness=1800):
    """The per-row, per-pair loop reidentify_travel_times replaced, kept as
    its reference."""
    sightings = {}
    for i in range(raw.n_rows):
        t, s = divmod(i, len(raw.sensor_ids))
        for v in raw.vehicle_ids[i]:
            sightings.setdefault(int(v), {}).setdefault(s, []).append(t)
    sensor_pos = {sid: k for k, sid in enumerate(raw.sensor_ids)}
    records = []
    for a, b in pairs:
        ia, ib = sensor_pos[a], sensor_pos[b]
        for v in sorted(sightings):
            obs = sightings[v]
            if ia not in obs or ib not in obs:
                continue
            arrive = obs[ib][0]
            before = [t for t in obs[ia] if t < arrive]
            if not before:
                continue
            depart = before[-1]
            if arrive - depart > staleness:
                continue
            records.append(TravelTimeRecord((a, b), v, depart, arrive))
    records.sort(key=lambda r: (r.pair, r.arrive, r.vehicle_id))
    return records


def test_reidentify_matches_reference_loop_on_grid(grid_net, tmp_path):
    sites = tuple(sorted(n for n, node in grid_net.nodes.items()
                         if node.sensor_site))
    busy = FlowModelParams(a1=0.0, b1=1.0, c1=0.0, a2=0.0, b2=2.0, c2=0.0,
                           d=20.0, alpha_sigma=0.0)
    sched = spawn_schedule(busy, grid_net, 1500.0, seed=6,
                           bin_duration=100.0)
    icfg = IncidentPlanConfig(p_incident=0.03, p_severe=0.5,
                              minor_duration_s=(200.0, 400.0),
                              severe_duration_s=(400.0, 800.0),
                              base_radius_m=150.0, slowdown_factor=0.2)
    placement = SensorPlacement(sites, 60.0)
    res = run(grid_net, sched, plan_incidents(sched, icfg, grid_net, seed=6),
              placement, SimConfig(seed=6), incident_cfg=icfg)
    pairs = contiguous_sensor_pairs(grid_net, placement)
    emit_raw(res.raw, [], tmp_path / "raw.csv", tmp_path / "incidents.csv")
    back = load_raw(tmp_path / "raw.csv")
    kept = []
    for staleness in (1800, 40):
        want = loop_reidentify(res.raw, pairs, staleness)
        assert reidentify_travel_times(res.raw, pairs, staleness) == want
        assert reidentify_travel_times(back, pairs, staleness) == want
        kept.append(len(want))
    assert kept[0] > kept[1] > 100  # the short horizon drops some
    # a repeated pair yields its records twice, as the loop does
    twice = pairs[:1] * 2
    assert (reidentify_travel_times(res.raw, twice)
            == loop_reidentify(res.raw, twice))


# -- windows -----------------------------------------------------------------


def synthetic_table(label_mode="stride"):
    horizon = 10
    counts = {"p": np.arange(10), "q": 3 * np.ones(10, dtype=int)}
    seen = {("p", 2): (1,), ("q", 3): (1,),     # tt 1, arrive 3
            ("p", 4): (2,), ("q", 5): (2,),     # tt 1, arrive 5 -> but
            ("p", 0): (4,), ("q", 9): (4,)}     # tt 9, arrive 9
    raw = raw_from_sightings(("p", "q"), horizon, seen, counts=counts)
    recs = reidentify_travel_times(raw, [("p", "q")])
    net = make_line_net()
    log = [spec_of(seg="s1", onset=5, duration=4, radius=30.0)]
    cfg = WindowConfig(window_s=4, stride_s=2, label_mode=label_mode)
    return raw, recs, build_feature_rows(raw, recs, cfg, log, net,
                                         [("p", "q")])


def test_window_means_equal_slice_means():
    raw, _recs, table = synthetic_table()
    assert list(table.window_end) == [4, 6, 8, 10]
    for field, tag in (("count", "cnt_mean"), ("mean_speed", "spd_mean"),
                       ("occupancy", "occ_mean")):
        dense = raw.sensor_matrix(field).astype(np.float64)
        for k, sid in enumerate(raw.sensor_ids):
            col = table.X[:, table.feature_names.index(f"{tag}_{sid}")]
            want = [np.mean(dense[we - 4:we, k])
                    for we in (4, 6, 8, 10)]
            assert col.tolist() == want  # bitwise, not approx


def test_travel_time_column_averages_window_arrivals():
    _raw, recs, table = synthetic_table()
    assert [r.arrive for r in recs] == [3, 5, 9]
    col = table.X[:, table.feature_names.index("tt_p__q")]
    # windows [0,4), [2,6), [4,8), [6,10) catch arrivals {3}, {3,5}, {5},
    # {9}; travel times are 1, 1, 9
    assert col[0] == 1.0
    assert col[1] == 1.0
    assert col[2] == 1.0
    assert col[3] == 9.0


def test_travel_time_column_nan_when_quiet():
    raw = raw_from_sightings(("p", "q"), 10, {("p", 1): (1,),
                                              ("q", 2): (1,)})
    recs = reidentify_travel_times(raw, [("p", "q")])
    table = build_feature_rows(raw, recs, WindowConfig(window_s=4, stride_s=2),
                               [], make_line_net(), [("p", "q")])
    col = table.X[:, table.feature_names.index("tt_p__q")]
    # the t=2 arrival lands in windows [0,4) and [2,6); nothing after
    assert col[0] == 1.0 and col[1] == 1.0
    assert np.isnan(col[2:]).all()


def test_travel_time_columns_match_per_window_means_bitwise():
    # a busy pair with a quiet stretch of empty windows, arrivals on window
    # edges and in the last second, a pair with one record and one with none
    rng = rng_for("tt-windows")
    horizon, window, stride = 300, 60, 20
    arrive = np.concatenate([rng.integers(1, 100, 200),
                             rng.integers(200, 300, 200),
                             [1, 59, 60, 80, 240, 299, 299]]).tolist()
    tt = rng.integers(1, 1801, len(arrive)).tolist()
    recs = [TravelTimeRecord(("p", "q"), v, a - t, a)
            for v, (a, t) in enumerate(zip(arrive, tt))]
    recs.append(TravelTimeRecord(("q", "r"), 0, 150, 170))
    pairs = [("p", "q"), ("q", "r"), ("r", "p")]
    raw = raw_from_sightings(("p", "q", "r"), horizon, {})
    table = build_feature_rows(raw, recs, WindowConfig(window, stride), [],
                               make_line_net(), pairs)
    ends = table.window_end.tolist()
    assert ends[-1] == horizon
    for a, b in pairs:
        # reference: the former per-window np.mean over the pair's records
        # sorted by arrival, as float travel times
        mine = sorted((r for r in recs if r.pair == (a, b)),
                      key=lambda r: (r.arrive, r.vehicle_id))
        want = []
        for end in ends:
            tts = [float(r.travel_time) for r in mine
                   if end - window <= r.arrive < end]
            want.append(float(np.mean(tts)) if tts else math.nan)
        got = table.X[:, table.feature_names.index(f"tt_{a}__{b}")]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
    col = table.X[:, table.feature_names.index("tt_p__q")]
    assert np.isnan(col).sum() == 3  # windows ending at 160, 180, 200
    assert np.isfinite(table.X[:, table.feature_names.index("tt_q__r")]
                       ).sum() == 3
    assert np.isnan(table.X[:, table.feature_names.index("tt_r__p")]).all()


def test_time_of_day_column_and_schema_order():
    raw, _recs, table = synthetic_table()
    assert table.feature_names[0] == "time_of_day"
    np.testing.assert_allclose(table.X[:, 0],
                               np.array([4, 6, 8, 10]) / 86400.0)
    count_names = [n for n in table.feature_names if n.startswith("cnt_")]
    assert count_names == ["cnt_mean_p", "cnt_mean_q"]
    assert table.columns[0] == "window_end_s"
    assert table.columns[-3:] == ["label_incident", "label_road",
                                  "label_severity"]


def test_config_validation_and_short_horizon():
    with pytest.raises(FeatureError, match="positive"):
        WindowConfig(window_s=0)
    with pytest.raises(FeatureError, match="exceed"):
        WindowConfig(window_s=10, stride_s=20)
    with pytest.raises(FeatureError, match="label mode"):
        WindowConfig(label_mode="midpoint")
    with pytest.raises(FeatureError, match="after departure"):
        TravelTimeRecord(("p", "q"), 1, 5, 5)
    raw = raw_from_sightings(("p",), 5, {})
    with pytest.raises(FeatureError, match="shorter than one window"):
        build_feature_rows(raw, [], WindowConfig(window_s=10, stride_s=5),
                           [], make_line_net(), [])


# -- labels ------------------------------------------------------------------


def test_labels_stride_mode_overlap():
    # incident active over (5, 9); stride spans are (we-2, we]
    _raw, _recs, table = synthetic_table(label_mode="stride")
    assert table.label_incident.tolist() == [False, True, True, True]
    assert table.label_road == [None, "line_1", "line_1", "line_1"]
    assert table.label_severity == [None, "minor", "minor", "minor"]


def test_labels_window_mode_overlap():
    # window spans are (we-4, we]: the first window (0, 4] misses an
    # incident that starts at 5 but every later one overlaps it
    _raw, _recs, table = synthetic_table(label_mode="window")
    assert table.label_incident.tolist() == [False, True, True, True]


def test_label_edges_and_tie_break():
    net = make_line_net()
    a = spec_of(seg="s1", onset=5, duration=4, sid=0)      # (5, 9)
    b = spec_of(seg="s2", onset=3, duration=4, sid=1)      # (3, 7)
    active, road, sev = incident_label_at([a, b], net, 6, 2)
    assert (active, road, sev) == (True, "line_2", "minor")  # earliest onset
    # exact boundaries: span (we-2, we] excludes an incident ending at we-2
    # and one starting at we
    edge = spec_of(seg="s1", onset=10, duration=5)
    assert incident_label_at([edge], net, 10, 2)[0] is False   # starts at we
    assert incident_label_at([edge], net, 17, 2)[0] is False   # ended at 15
    assert incident_label_at([edge], net, 16, 2)[0] is True
    assert incident_label_at([edge], net, 11, 2) == (True, "line_1", "minor")


# -- io ----------------------------------------------------------------------


def test_table_round_trip_writes_one_file(tmp_path):
    _raw, _recs, table = synthetic_table()
    path = tmp_path / "features.csv"
    write_feature_table(table, path)
    back = read_feature_table(path)
    assert back.feature_names == table.feature_names
    np.testing.assert_array_equal(back.window_end, table.window_end)
    assert np.array_equal(back.X, table.X, equal_nan=True)
    assert back.label_incident.tolist() == table.label_incident.tolist()
    assert back.label_road == table.label_road
    assert back.label_severity == table.label_severity

    # the CSV header is the table's only record of its columns
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
    body = path.read_text(encoding="utf-8")
    assert "np.float64" not in body
    assert "nan" not in body  # missing values serialize as empty fields


def test_table_read_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope\n", encoding="utf-8")
    with pytest.raises(FeatureError, match="header"):
        read_feature_table(p)
    p.write_text("window_end_s,f1,label_incident,label_road,label_severity\n"
                 "600,1.0,0\n", encoding="utf-8")
    with pytest.raises(FeatureError,
                       match=r"bad\.csv:2: expected 5 fields, got 3"):
        read_feature_table(p)
    header = "window_end_s,f1,label_incident,label_road,label_severity\n"
    for row, match in (("6x0,1.0,0,,", "invalid literal"),
                       ("600,zz,0,,", "could not convert"),
                       ("600,1.0,yes,,", "label_incident 'yes'"),
                       ("600,inf,0,,", "f1 is 'inf', expected a finite "
                                       "number or an empty field$"),
                       ("600,-inf,0,,", "f1 is '-inf', expected"),
                       ("600,1e400,0,,", "f1 is '1e400', expected"),
                       ("600,nan,0,,", "f1 is 'nan', expected"),
                       ("600,NaN,1,,", "f1 is 'NaN', expected")):
        p.write_text(header + "570,1.0,0,,\n" + row + "\n",
                     encoding="utf-8")
        with pytest.raises(FeatureError, match=rf"bad\.csv:3: {match}"):
            read_feature_table(p)
    # an empty field is the missing marker
    p.write_text(header + "570,,0,,\n", encoding="utf-8")
    assert np.isnan(read_feature_table(p).X).tolist() == [[True]]


def test_concat_tables_stacks_days():
    _raw, _recs, table = synthetic_table()
    two = concat_tables([table, table])
    assert two.n_rows == 2 * table.n_rows
    assert np.array_equal(two.X, np.vstack([table.X, table.X]),
                          equal_nan=True)
    assert two.label_road == table.label_road * 2
    with pytest.raises(FeatureError, match="nothing"):
        concat_tables([])
    other = FeatureTable(["time_of_day"], np.zeros((1, 1)),
                         np.array([600]), np.array([False]), [None], [None])
    with pytest.raises(FeatureError, match="schemas differ"):
        concat_tables([table, other])
