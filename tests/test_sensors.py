"""Sensor capture and raw-table tests.

Index:
  geometry   range gating, aggregation math on a stubbed state
  dataset    row ordering, dense views, construction invariants
  io         emit/load round trip and parse errors
  subsetting column removal as counterfactual deployment
"""
from collections import defaultdict, deque

import numpy as np
import pytest

from trafficlab.demand import FlowModelParams, spawn_schedule
from trafficlab.incidents import read_incident_log
from trafficlab.microsim import SimConfig, run
from trafficlab.roadnet import NetworkError, SensorPlacement
from trafficlab.sensors import (RawDataset, SensorError, SensorRig, capture,
                                load_raw, emit_raw, subset_sensors)

from conftest import make_line_net
from test_incidents import spec_of


class StubState:
    """Positions/speeds on named segments, one lane queue each (unlisted
    segments are empty), plus the config surface the rig reads."""

    class _Cfg:
        vehicle_length = 5.0

    cfg = _Cfg()

    def __init__(self, by_segment):
        self.lane_queues = defaultdict(lambda: (deque(),))
        self.pos = []
        self.speed = []
        slot = 0
        for seg, rows in by_segment.items():
            slots = []
            for pos, speed in rows:
                self.pos.append(pos)
                self.speed.append(speed)
                slots.append(slot)
                slot += 1
            self.lane_queues[seg] = (deque(slots),)
        self.pos = np.asarray(self.pos, dtype=float)
        self.speed = np.asarray(self.speed, dtype=float)


# -- geometry ----------------------------------------------------------------


def test_rig_reads_only_vehicles_in_range():
    net = make_line_net()  # a1 joins s0 (incoming) and s1 (outgoing)
    rig = SensorRig(net, SensorPlacement(("a1",), range_m=60.0))
    st = StubState({
        "s0": [(150.0, 8.0),   # 50 m from the junction: seen
               (130.0, 2.0),   # 70 m out: ignored
               (140.0, 4.0)],  # exactly at range: seen
        "s1": [(10.0, 6.0),    # 10 m past: seen
               (70.0, 9.0)],   # beyond range: ignored
        "s2": [(5.0, 1.0)],    # not monitored at all
    })
    (r,) = rig.observe(st, 17)
    assert r.sensor_id == "a1"
    assert r.time == 17
    assert r.vehicle_ids == (0, 2, 3)
    assert r.count == 3
    assert r.mean_speed == pytest.approx((8.0 + 4.0 + 6.0) / 3.0)
    # 60 m watched on each side, one lane each
    assert r.occupancy == pytest.approx(3 * 5.0 / 120.0)


def test_rig_counts_both_sides_exactly_at_range():
    net = make_line_net()
    rig = SensorRig(net, SensorPlacement(("a1",), range_m=60.0))
    st = StubState({"s0": [(140.0, 4.0)],   # 60 m before the junction
                    "s1": [(60.0, 6.0)]})   # 60 m past it
    (r,) = rig.observe(st, 0)
    assert r.vehicle_ids == (0, 1)


def test_rig_empty_view_and_monitored_clipping():
    net = make_line_net()
    rig = SensorRig(net, SensorPlacement(("a0", "a3"), range_m=300.0))
    # range longer than the segment: monitored length clips at 200
    assert rig.monitored["a0"] == 200.0
    assert rig.monitored["a3"] == 200.0
    readings = rig.observe(StubState({}), 0)
    assert [r.sensor_id for r in readings] == ["a0", "a3"]
    for r in readings:
        assert r.count == 0
        assert r.vehicle_ids == ()
        assert r.mean_speed == 0.0
        assert r.occupancy == 0.0


def test_capture_matches_rig_and_placement_is_validated():
    net = make_line_net(sensor_sites=["a1", "a2"])
    st = StubState({"s0": [(180.0, 7.0)]})
    got = capture(st, SensorPlacement(("a1",), 60.0), net, 3)
    rig = SensorRig(net, SensorPlacement(("a1",), 60.0))
    assert got == rig.observe(st, 3)
    with pytest.raises(NetworkError):
        capture(st, SensorPlacement(("a0",), 60.0), net, 3)  # not a site


# -- dataset -------------------------------------------------------------------


def line_run(horizon=400, seed=5, sensors=("a1", "a2")):
    net = make_line_net()
    flat = FlowModelParams(0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 8.0)
    sched = spawn_schedule(flat, net, float(horizon), seed=seed,
                           bin_duration=100.0)
    return run(net, sched, placement=SensorPlacement(sensors, 60.0),
               cfg=SimConfig(seed=seed),
               incident_plan=[spec_of(onset=60, duration=90)])


def test_dataset_rows_are_time_major():
    res = line_run()
    raw = res.raw
    n = len(raw.sensor_ids)
    assert raw.n_rows == raw.horizon * n
    assert np.array_equal(raw.time, np.repeat(np.arange(raw.horizon), n))
    assert np.array_equal(raw.sensor_idx,
                          np.tile(np.arange(n), raw.horizon))
    counts = raw.sensor_matrix("count")
    assert counts.shape == (raw.horizon, n)
    assert counts.sum() == raw.count.sum() > 0


def test_dataset_row_count_is_enforced():
    with pytest.raises(SensorError, match="expected horizon"):
        RawDataset(10, ("a", "b"), 50.0, np.zeros(3, dtype=np.int64),
                   np.zeros(3, dtype=np.int32), np.zeros(3, dtype=np.int32),
                   np.zeros(3), np.zeros(3), [(), (), ()])


# -- io --------------------------------------------------------------------------


def test_emit_load_round_trip(tmp_path):
    res = line_run()
    raw_path = tmp_path / "raw.csv"
    inc_path = tmp_path / "incidents.csv"
    emit_raw(res.raw, res.incident_log, raw_path, inc_path)
    back = load_raw(raw_path)
    assert back.data_equal(res.raw)
    assert back.range_m is None  # not stored in the file
    assert read_incident_log(inc_path) == res.incident_log
    # floats must be written as plain repr digits, not array scalar text
    body = raw_path.read_text(encoding="utf-8")
    assert "np.float64" not in body


def test_load_raw_rejects_malformed(tmp_path):
    p = tmp_path / "raw.csv"
    p.write_text("time,stuff\n", encoding="utf-8")
    with pytest.raises(SensorError, match="header"):
        load_raw(p)
    p.write_text("time_s,sensor_id,count,mean_speed_mps,occupancy,"
                 "vehicle_ids\n0,a1,1,2.0\n", encoding="utf-8")
    with pytest.raises(SensorError, match="expected 6 fields"):
        load_raw(p)


# -- subsetting ------------------------------------------------------------------


def test_subset_matches_counterfactual_deployment():
    wide = line_run(sensors=("a1", "a2"))
    narrow = line_run(sensors=("a2",))
    cut = subset_sensors(wide.raw, ("a2",))
    assert cut.sensor_ids == ("a2",)
    assert cut.data_equal(narrow.raw)


def test_subset_keeps_column_data_and_validates():
    res = line_run()
    raw = res.raw
    full = subset_sensors(raw, raw.sensor_ids)
    assert full.data_equal(raw)
    cut = subset_sensors(raw, ("a1",))
    np.testing.assert_array_equal(cut.sensor_matrix("count")[:, 0],
                                  raw.sensor_matrix("count")[:, 0])
    np.testing.assert_array_equal(cut.sensor_matrix("mean_speed")[:, 0],
                                  raw.sensor_matrix("mean_speed")[:, 0])
    assert cut.vehicle_ids == [raw.vehicle_ids[i]
                               for i in range(0, raw.n_rows, 2)]
    with pytest.raises(SensorError, match="unknown sensors: a9"):
        subset_sensors(raw, ("a1", "a9"))
