"""Sensor capture and raw-table tests.

Index:
  geometry   range gating, aggregation math on a stubbed state
  mean       exact_mean bitwise against np.mean
  dataset    row ordering, dense views, construction invariants
  io         emit/load round trip, the per-row reference writer, parse,
             order and count errors
  subsetting column removal as counterfactual deployment
"""
import re
from collections import defaultdict, deque

import numpy as np
import pytest

from trafficlab.demand import FlowModelParams, spawn_schedule
from trafficlab.incidents import read_incident_log
from trafficlab.microsim import SimConfig, run
from trafficlab.roadnet import NetworkError, SensorPlacement
from trafficlab.sensors import (RAW_HEADER, RawDataset, SensorError,
                                SensorRig, exact_mean, load_raw,
                                emit_raw, subset_sensors)

from conftest import make_line_net, rng_for
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
    got = SensorRig(net, SensorPlacement(("a1",), 60.0)).observe(st, 3)
    assert [(r.sensor_id, r.time, r.vehicle_ids) for r in got] == [
        ("a1", 3, (0,))]
    with pytest.raises(NetworkError):
        SensorRig(net, SensorPlacement(("a0",), 60.0))  # not a site


# -- mean ----------------------------------------------------------------------


def mean_cases(n, rng):
    speeds = rng.uniform(0.0, 30.0, n)
    speeds[rng.random(n) < 0.25] = 0.0
    yield speeds
    yield np.repeat(rng.uniform(0.0, 30.0, n // 4 + 1), 4)[:n]
    yield np.full(n, 0.1)
    yield np.zeros(n)
    yield np.full(n, -0.0)
    # magnitudes 1e-8..1e8: the summation order shows in the last bits
    yield rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)


def test_exact_mean_matches_numpy_bitwise():
    # below 8 values one running sum, up to 128 eight partial sums, above
    # that a recursive split: lengths 1-300 cover all three
    rng = rng_for("exact-mean")
    for n in range(1, 301):
        for arr in mean_cases(n, rng):
            want = float(np.mean(arr))
            got = exact_mean(arr.tolist())
            assert type(got) is float
            assert got.hex() == want.hex(), (n, arr[:4])


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
    counts = raw.sensor_matrix("count")
    assert counts.shape == (raw.horizon, n)
    assert counts.sum() == raw.count.sum() > 0


def test_dataset_row_count_is_enforced():
    with pytest.raises(SensorError, match="expected horizon"):
        RawDataset(10, ("a", "b"), np.zeros(3, dtype=np.int32),
                   np.zeros(3), np.zeros(3), [(), (), ()])
    # every column is checked: one short vehicle_ids list would otherwise
    # make emit_raw's zip write one row fewer
    cols = dict(count=np.zeros(4, dtype=np.int32), mean_speed=np.zeros(4),
                occupancy=np.zeros(4), vehicle_ids=[()] * 4)
    RawDataset(2, ("a", "b"), **cols)
    for name in cols:
        short = dict(cols, **{name: cols[name][:3]})
        with pytest.raises(SensorError,
                           match=f"has 3 {name} entries, expected "
                                 f"horizon.sensors = 4"):
            RawDataset(2, ("a", "b"), **short)


# -- io --------------------------------------------------------------------------


def test_emit_load_round_trip(tmp_path):
    res = line_run()
    raw_path = tmp_path / "raw.csv"
    inc_path = tmp_path / "incidents.csv"
    emit_raw(res.raw, res.incident_log, raw_path, inc_path)
    back = load_raw(raw_path)
    assert back.data_equal(res.raw)
    assert read_incident_log(inc_path) == res.incident_log
    # floats must be written as plain repr digits, not array scalar text
    body = raw_path.read_text(encoding="utf-8")
    assert "np.float64" not in body


def reference_emit_raw(dataset, raw_path):
    """The per-row writer emit_raw replaced, kept as its byte reference."""
    with open(raw_path, "w", encoding="utf-8") as fh:
        fh.write(RAW_HEADER + "\n")
        for i in range(dataset.n_rows):
            t, k = divmod(i, len(dataset.sensor_ids))
            vids = ";".join(str(v) for v in dataset.vehicle_ids[i])
            fh.write(f"{t},"
                     f"{dataset.sensor_ids[k]},"
                     f"{dataset.count[i]},{float(dataset.mean_speed[i])!r},"
                     f"{float(dataset.occupancy[i])!r},{vids}\n")


def awkward_dataset(horizon=2100):
    """Two sensors, more rows than one write chunk: empty id tuples, long
    id lists, speeds that need 17 significant digits, zero occupancy; one
    id tuple held by sensor a1 over seconds 10-14 and by b2 in second 10,
    as equal but distinct tuples; occupancy -0.0 on row 5 next to 0.0 on
    row 3, and a mean speed of -0.0 on row 7.  A writer that caches text
    by value must keep -0.0 apart from 0.0: they compare and hash equal."""
    rng = rng_for("awkward-raw")
    sensor_ids = ("a1", "b2")
    n = horizon * len(sensor_ids)
    vids = []
    for i in range(n):
        k = int(rng.integers(0, 4))
        size = (0, 1, 3, 40)[k]
        vids.append(tuple(int(v) for v in rng.integers(0, 100000, size)))
    for row in (20, 21, 22, 24, 26, 28):
        vids[row] = tuple([7, 11, 13])
    count = np.asarray([len(v) for v in vids], dtype=np.int32)
    speed = rng.uniform(0.0, 30.0, n)
    speed[0] = 0.1 + 0.2          # 0.30000000000000004
    speed[1] = 1.0 / 3.0
    speed[2] = 2.0 ** -40
    speed[count == 0] = 0.0
    speed[7] = -0.0
    occupancy = count * 5.0 / 120.0
    occupancy[3] = 0.0
    occupancy[5] = -0.0
    return RawDataset(horizon, sensor_ids, count, speed, occupancy, vids)


def test_emit_raw_matches_reference_writer(tmp_path):
    data = awkward_dataset()
    assert data.n_rows > 4096
    assert () in data.vehicle_ids
    assert max(len(v) for v in data.vehicle_ids) == 40
    assert len(repr(float(data.mean_speed[0]))) == 19  # 17 digits
    assert np.any(data.occupancy == 0.0) and np.any(data.occupancy > 0.0)
    repeated = [data.vehicle_ids[row] for row in (20, 21, 22, 24, 26, 28)]
    assert len({id(v) for v in repeated}) == 6 and len(set(repeated)) == 1
    assert np.signbit(data.occupancy[5]) and data.occupancy[3] == 0.0
    assert not np.signbit(data.occupancy[3])
    assert np.signbit(data.mean_speed[7]) and data.mean_speed[7] == 0.0
    emit_raw(data, [], tmp_path / "raw.csv", tmp_path / "incidents.csv")
    reference_emit_raw(data, tmp_path / "ref.csv")
    got = (tmp_path / "raw.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert load_raw(tmp_path / "raw.csv").data_equal(data)


def raw_text(*rows):
    return RAW_HEADER + "\n" + "".join(row + "\n" for row in rows)


def test_load_raw_rejects_malformed(tmp_path):
    p = tmp_path / "raw.csv"
    p.write_text("time,stuff\n", encoding="utf-8")
    with pytest.raises(SensorError, match="header"):
        load_raw(p)
    p.write_text(raw_text("0,a1,1,2.0"), encoding="utf-8")
    with pytest.raises(SensorError, match="expected 6 fields"):
        load_raw(p)
    p.write_text(raw_text("0,a1,1,2.0,0.1,7", "x,a1,0,0.0,0.0,"),
                 encoding="utf-8")
    with pytest.raises(SensorError, match=r"raw\.csv:3: invalid literal"):
        load_raw(p)
    # each column parses its own texts: "1.0", a speed on line 2, is no
    # count on line 3
    p.write_text(raw_text("0,a1,1,1.0,0.1,7", "1,a1,1.0,0.0,0.0,7"),
                 encoding="utf-8")
    with pytest.raises(SensorError, match=r"raw\.csv:3: invalid literal "
                                          r"for int.*'1\.0'"):
        load_raw(p)
    # a bad field on two lines is named on the first
    p.write_text(raw_text("0,a1,1,2.0,0.1,7", "1,a1,2,2.0,0.1,7;x",
                          "2,a1,2,2.0,0.1,7;x"), encoding="utf-8")
    with pytest.raises(SensorError, match=r"raw\.csv:3: invalid literal "
                                          r"for int.*'x'"):
        load_raw(p)
    # speeds and occupancies must be finite and non-negative; the first bad
    # data row is named.  -0.0 is no negative number, and an occupancy may
    # exceed 1
    good = ["0,a1,0,-0.0,-0.0,", "1,a1,1,2.0,1.5,7"]
    p.write_text(raw_text(*good), encoding="utf-8")
    assert load_raw(p).occupancy.tolist() == [-0.0, 1.5]
    for speed, occ in (("inf", "0.1"), ("nan", "0.1"), ("1e400", "0.1"),
                       ("-1.5", "0.1"), ("2.0", "nan"), ("2.0", "-0.2"),
                       ("2.0", "inf")):
        p.write_text(raw_text(*good, f"2,a1,1,{speed},{occ},7",
                              f"3,a1,1,{speed},{occ},7"), encoding="utf-8")
        fault = (f"{p}: data row 3 has mean_speed_mps {float(speed)!r} and "
                 f"occupancy {float(occ)!r}: both must be finite and "
                 f"non-negative")
        with pytest.raises(SensorError, match=f"^{re.escape(fault)}$"):
            load_raw(p)


def test_load_raw_rejects_rows_out_of_order(tmp_path):
    p = tmp_path / "raw.csv"
    good = ["0,a,1,2.0,0.1,7", "0,b,0,0.0,0.0,", "1,a,0,0.0,0.0,",
            "1,b,2,3.5,0.2,7;9"]
    p.write_text(raw_text(*good), encoding="utf-8")
    raw = load_raw(p)
    assert raw.sensor_matrix("count").tolist() == [[1, 0], [0, 2]]
    assert raw.vehicle_ids == [(7,), (), (), (7, 9)]
    # same row count as horizon x sensors, but b and a swapped in second 0:
    # the dense view would report b's count under a
    swapped = [good[1], good[0], good[2], good[3]]
    p.write_text(raw_text(*swapped), encoding="utf-8")
    with pytest.raises(SensorError, match="data row 1 is .time 0, sensor "
                                          "'b'.*order"):
        load_raw(p)
    duplicated = [good[0], good[0], good[2], good[3]]
    p.write_text(raw_text(*duplicated), encoding="utf-8")
    with pytest.raises(SensorError, match="data row 2 .*expected .time 0, "
                                          "sensor 'b'"):
        load_raw(p)
    later = [good[0], good[1], good[3], good[2]]
    p.write_text(raw_text(*later), encoding="utf-8")
    with pytest.raises(SensorError, match="data row 3"):
        load_raw(p)


def test_load_raw_rejects_count_that_differs_from_ids(tmp_path):
    p = tmp_path / "raw.csv"
    p.write_text(raw_text("0,a,2,2.0,0.1,7", "0,b,0,0.0,0.0,"),
                 encoding="utf-8")
    with pytest.raises(SensorError, match=r"raw\.csv:2: count 2 but 1 "
                                          r"vehicle ids"):
        load_raw(p)
    p.write_text(raw_text("0,a,1,2.0,0.1,7", "0,b,1,0.0,0.0,"),
                 encoding="utf-8")
    with pytest.raises(SensorError, match=r"raw\.csv:3: count 1 but 0"):
        load_raw(p)
    # the id text of lines 2 and 3 again on line 4, with another count
    p.write_text(raw_text("0,a,2,2.0,0.1,7;9", "0,b,2,2.0,0.1,7;9",
                          "1,a,3,2.0,0.1,7;9"), encoding="utf-8")
    with pytest.raises(SensorError, match=r"raw\.csv:4: count 3 but 2 "
                                          r"vehicle ids"):
        load_raw(p)


# -- subsetting ------------------------------------------------------------------


def test_subset_matches_counterfactual_deployment():
    # one of two columns, and two columns that are not adjacent, asked
    # for out of order
    for deployed, keep, kept in ((("a1", "a2"), ("a2",), ("a2",)),
                                 (("a0", "a1", "a2", "a3"), ("a3", "a1"),
                                  ("a1", "a3"))):
        wide = line_run(sensors=deployed)
        narrow = line_run(sensors=kept)
        cut = subset_sensors(wide.raw, keep)
        assert cut.sensor_ids == kept
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
