"""Roadside sensor emulation and the raw per-second table.

A sensor at a node observes every vehicle whose along-road distance to the
node is at most the capture range, on any segment incident to that node
(approaching vehicles by distance-to-go, departing ones by distance-from).
Each (sensor, second) yields exactly one reading, zero-count seconds
included.  Capture resolves its plan once per run to one row per lane
queue of each watched segment (the deque of vehicle slots in that lane).
Each second it skips the empty queues, walks the others once, testing every
vehicle against the sensor the segment approaches and the one it departs
from, and appends each sensor's count, mean speed, occupancy and sorted
vehicle ids straight to the raw table's columns.  A reading's mean speed is
`exact_mean` of the seen vehicles' speeds in slot order: a running sum
below 8 values and numpy's sum from 8 up, so it equals `float(np.mean(...))`
bit for bit.

The raw table holds one row per (second, sensor), time-major with sensors
in sorted id order, and that row order is its only index: row i is second
i // n at the i % n-th sensor, in memory as in raw.csv.  `load_raw` rejects
a file whose rows are duplicated or out of that order, or whose count
differs from its number of vehicle ids.  Ids and occupancies repeat a lot
from second to second, so `emit_raw` formats each distinct id tuple and
occupancy once, and `load_raw` parses each distinct time, count, occupancy
and id text once; rows with the same id text share one tuple.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import NamedTuple

import numpy as np

from . import open_text, write_lines
from .roadnet import RoadNetwork, SensorPlacement, validate_placement


class SensorError(ValueError):
    pass


class SensorReading(NamedTuple):
    sensor_id: str
    time: int
    vehicle_ids: tuple
    count: int
    mean_speed: float
    occupancy: float


def exact_mean(xs: list) -> float:
    """`float(np.mean(np.asarray(xs)))` for a non-empty list of floats,
    bit for bit.  Below 8 values numpy keeps one running sum from +0.0 (so
    an all -0.0 input sums to 0.0), and so does this, without building an
    array; from 8 values up it is numpy's own pairwise sum."""
    n = len(xs)
    if n < 8:
        s = 0.0
        for x in xs:
            s += x
        return s / n
    return float(np.add.reduce(xs)) / n


class SensorRig:
    """Observation geometry precomputed once per (network, placement).

    `plan` lists each watched segment once, as (segment id, length, column
    of the sensor it approaches, column of the sensor it departs from),
    None where no sensor watches that end; a column is the sensor's index
    in `sensor_ids`.  So a segment between two sensors is walked once per
    second, not once per sensor, as SUMO attaches lane-area detectors to
    lanes (Lopez et al., ITSC 2018).  `capture` walks the plan resolved to
    the state's lane queues, one row per lane."""

    def __init__(self, network: RoadNetwork, placement: SensorPlacement):
        validate_placement(network, placement)
        self.network = network
        self.sensor_ids = placement.sensor_ids
        self.range_m = placement.range_m
        # per sensor, in sensor_ids order: the monitored lane length
        self.monitored: dict = {}
        ends: dict = {}  # segment id -> [approached column, departed column]
        for col, sid in enumerate(self.sensor_ids):
            total = 0.0
            for end, seg_ids in ((0, network.incoming(sid)),
                                 (1, network.outgoing(sid))):
                for seg_id in seg_ids:
                    seg = network.segments[seg_id]
                    ends.setdefault(seg_id, [None, None])[end] = col
                    total += min(self.range_m, seg.length) * seg.lanes
            if total <= 0:
                raise SensorError(f"sensor {sid!r} monitors no road length")
            self.monitored[sid] = total
        self.plan = tuple((seg_id, network.segments[seg_id].length, ahead,
                           behind)
                          for seg_id, (ahead, behind) in ends.items())
        self._queues = None  # the lane_queues `_lanes` was resolved against
        self._lanes: tuple = ()

    def _lane_plan(self, lane_queues) -> tuple:
        """`plan` resolved to one (lane deque, length, approached column,
        departed column) row per lane queue of each watched segment.  The
        deques live as long as the state, so this runs once per run."""
        if lane_queues is not self._queues:
            self._queues = lane_queues
            self._lanes = tuple((q, seg_len, ahead, behind)
                                for seg_id, seg_len, ahead, behind in self.plan
                                for q in lane_queues[seg_id])
        return self._lanes

    def capture(self, state, builder: RawDatasetBuilder) -> None:
        """Append the state's current second to the builder's columns: one
        row per sensor, in sensor_ids order."""
        range_m = self.range_m
        pos = state.pos
        seen: list = [[] for _ in self.sensor_ids]
        for q, seg_len, ahead, behind in self._lane_plan(state.lane_queues):
            if not q:
                continue
            if behind is None:
                near_end = seen[ahead]
                for slot in q:
                    if seg_len - pos[slot] <= range_m:
                        near_end.append(slot)
            elif ahead is None:
                near_start = seen[behind]
                for slot in q:
                    if pos[slot] <= range_m:
                        near_start.append(slot)
            else:
                near_end, near_start = seen[ahead], seen[behind]
                for slot in q:
                    p = pos[slot]
                    if seg_len - p <= range_m:
                        near_end.append(slot)
                    if p <= range_m:
                        near_start.append(slot)
        speed = state.speed
        vlen = state.cfg.vehicle_length
        for slots in seen:
            slots.sort()
        builder.count.extend(map(len, seen))
        builder.mean_speed.extend([
            exact_mean([speed[slot] for slot in slots]) if slots else 0.0
            for slots in seen])
        builder.occupancy.extend([
            len(slots) * vlen / monitored
            for slots, monitored in zip(seen, self.monitored.values())])
        builder.vehicle_ids.extend(map(tuple, seen))

    def observe(self, state, t: int) -> list:
        """One SensorReading per sensor for the state's current second: the
        row `capture` appends, as records."""
        one = RawDatasetBuilder(self.sensor_ids)
        self.capture(state, one)
        t = int(t)
        return [SensorReading(sid, t, ids, count, speed, occupancy)
                for sid, count, speed, occupancy, ids in zip(
                    self.sensor_ids, one.count, one.mean_speed,
                    one.occupancy, one.vehicle_ids)]


@dataclass
class RawDataset:
    """Columnar per-second sensor table.  Row i holds second i // n at
    sensor sensor_ids[i % n], n = len(sensor_ids): the row order is the
    table's only index, as it is raw.csv's."""
    horizon: int
    sensor_ids: tuple
    count: np.ndarray
    mean_speed: np.ndarray
    occupancy: np.ndarray
    vehicle_ids: list

    def __post_init__(self):
        n = self.horizon * len(self.sensor_ids)
        for name in ("count", "mean_speed", "occupancy", "vehicle_ids"):
            got = len(getattr(self, name))
            if got != n:
                raise SensorError(
                    f"raw table has {got} {name} entries, expected "
                    f"horizon*sensors = {n}")
        # NaN fails both comparisons; -0.0 passes
        ok = ((self.mean_speed >= 0) & (self.mean_speed < np.inf)
              & (self.occupancy >= 0) & (self.occupancy < np.inf))
        if not ok.all():
            i = int(np.argmin(ok))
            raise SensorError(
                f"data row {i + 1} has mean_speed_mps "
                f"{float(self.mean_speed[i])!r} and occupancy "
                f"{float(self.occupancy[i])!r}: both must be finite and "
                f"non-negative")

    @property
    def n_rows(self) -> int:
        return self.horizon * len(self.sensor_ids)

    def sensor_matrix(self, field: str) -> np.ndarray:
        """Dense (horizon, n_sensors) view of one numeric column."""
        col = getattr(self, field)
        return col.reshape(self.horizon, len(self.sensor_ids))

    def data_equal(self, other: "RawDataset") -> bool:
        return (self.sensor_ids == other.sensor_ids
                and self.horizon == other.horizon
                and np.array_equal(self.count, other.count)
                and np.array_equal(self.mean_speed, other.mean_speed)
                and np.array_equal(self.occupancy, other.occupancy)
                and self.vehicle_ids == other.vehicle_ids)


class RawDatasetBuilder:
    """The raw table's four columns as lists, one step at a time: each step
    holds one row per sensor, in sensor_ids order.  `SensorRig.capture`
    appends to the lists directly; `add_step` takes a step's
    SensorReadings, as `SensorRig.observe` gives them."""

    def __init__(self, sensor_ids: tuple):
        self.sensor_ids = tuple(sensor_ids)
        self.count: list = []
        self.mean_speed: list = []
        self.occupancy: list = []
        self.vehicle_ids: list = []

    def add_step(self, readings) -> None:
        for _sid, _t, ids, count, speed, occupancy in readings:
            self.count.append(count)
            self.mean_speed.append(speed)
            self.occupancy.append(occupancy)
            self.vehicle_ids.append(ids)

    def build(self, horizon: int) -> RawDataset:
        return RawDataset(horizon, self.sensor_ids,
                          np.asarray(self.count, dtype=np.int32),
                          np.asarray(self.mean_speed, dtype=np.float64),
                          np.asarray(self.occupancy, dtype=np.float64),
                          self.vehicle_ids)


RAW_HEADER = "time_s,sensor_id,count,mean_speed_mps,occupancy,vehicle_ids"


class _Memo(dict):
    """`memo[key]` is `make(key)`, made on the first lookup of each key and
    shared by every later one.  A key whose make raises is not stored."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _ids_text(ids: tuple) -> str:
    return ";".join(map(str, ids))


def _parse_ids(text: str) -> tuple:
    text = text.rstrip()
    return tuple(map(int, text.split(";"))) if text else ()


def emit_raw(dataset: RawDataset, incident_log, raw_path,
             incidents_path) -> None:
    """Write the raw table and the incident log.  Floats are written as
    their shortest round-trip `repr`.  Each distinct id tuple is formatted
    once, and each distinct occupancy, told apart by its bits so that -0.0
    and 0.0 keep their own text."""
    from .incidents import write_incident_log

    occupancy = np.ascontiguousarray(dataset.occupancy, dtype=np.float64)
    bits, which = np.unique(occupancy.view(np.int64), return_inverse=True)
    occ_text = list(map(repr, bits.view(np.float64).tolist()))
    rows = zip(product(range(dataset.horizon), dataset.sensor_ids),
               dataset.count.tolist(), dataset.mean_speed.tolist(),
               map(occ_text.__getitem__, which.tolist()),
               map(_Memo(_ids_text).__getitem__, dataset.vehicle_ids))
    write_lines(raw_path, chain([RAW_HEADER], (
        f"{t},{s},{c},{m!r},{o},{v}" for (t, s), c, m, o, v in rows)))
    write_incident_log(incident_log, incidents_path)


def load_raw(path) -> RawDataset:
    """Load a raw table.  Rows must hold every sensor once per second, in
    (time, sensor_id) order, each count must equal the number of vehicle
    ids on its row, and speeds and occupancies must be finite and
    non-negative; anything else raises SensorError.  Each column
    parses each distinct text once: rows with the same id text share one
    tuple, and rows of one sensor one id string.  It keeps its own row
    loop instead of read_csv's: the raw table is the largest input, and a
    parse call and row tuple per line measured slower on it."""
    times: list = []
    sensors: list = []
    counts: list = []
    speeds: list = []
    occs: list = []
    vids: list = []
    time_of, sensor_of = _Memo(int), _Memo(str)
    count_of, occ_of, ids_of = _Memo(int), _Memo(float), _Memo(_parse_ids)
    with open_text(path, SensorError) as fh:
        header = fh.readline().strip()
        if header != RAW_HEADER:
            raise SensorError(f"{path}: unexpected raw header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.split(",")
            if len(parts) != 6:
                if not line.strip():
                    continue
                raise SensorError(f"{path}:{lineno}: expected 6 fields")
            t, sensor, count, speed, occ, ids = parts
            try:
                t, count = time_of[t], count_of[count]
                speed, occ = float(speed), occ_of[occ]
                row_ids = ids_of[ids]
            except ValueError as exc:
                raise SensorError(f"{path}:{lineno}: {exc}") from None
            if count != len(row_ids):
                raise SensorError(
                    f"{path}:{lineno}: count {count} but {len(row_ids)} "
                    f"vehicle ids")
            times.append(t)
            sensors.append(sensor_of[sensor])
            counts.append(count)
            speeds.append(speed)
            occs.append(occ)
            vids.append(row_ids)
    sensor_ids = tuple(sorted(set(sensors)))
    n = len(sensor_ids)
    if n:
        # row i must be (second i // n, sensor sensor_ids[i % n]); compare
        # whole lists, and walk the rows only to name the first bad one
        m = len(times)
        seconds = -(-m // n)
        want_times = [t for t in range(seconds) for _ in sensor_ids][:m]
        want_sensors = (list(sensor_ids) * seconds)[:m]
        if times != want_times or sensors != want_sensors:
            for i, (t, sensor) in enumerate(zip(times, sensors)):
                if t != want_times[i] or sensor != want_sensors[i]:
                    raise SensorError(
                        f"{path}: data row {i + 1} is (time {t}, sensor "
                        f"{sensor!r}), expected (time {want_times[i]}, "
                        f"sensor {want_sensors[i]!r}): rows must hold "
                        f"every sensor once per second, in (time, "
                        f"sensor_id) order")
    horizon = times[-1] + 1 if times else 0
    if len(times) != horizon * n:
        raise SensorError(
            f"{path}: {len(times)} data rows, expected {horizon} seconds x "
            f"{n} sensors = {horizon * n}")
    try:
        return RawDataset(horizon, sensor_ids,
                          np.asarray(counts, dtype=np.int32),
                          np.asarray(speeds, dtype=np.float64),
                          np.asarray(occs, dtype=np.float64), vids)
    except SensorError as exc:
        raise SensorError(f"{path}: {exc}") from None


def subset_sensors(dataset: RawDataset, sensor_ids) -> RawDataset:
    """Restrict a raw table to a sensor subset, as if only those sensors
    had been deployed.  Capture is passive, so dropping columns after the
    fact equals never recording them."""
    keep = tuple(sorted(sensor_ids))
    missing = set(keep) - set(dataset.sensor_ids)
    if missing:
        raise SensorError(f"unknown sensors: {', '.join(sorted(missing))}")
    cols = np.asarray([dataset.sensor_ids.index(s) for s in keep],
                      dtype=np.int64)
    # row t * n + col holds second t at column col
    rows = (np.arange(dataset.horizon, dtype=np.int64)[:, None]
            * len(dataset.sensor_ids) + cols).ravel()
    vids = dataset.vehicle_ids
    return RawDataset(dataset.horizon, keep, dataset.count[rows],
                      dataset.mean_speed[rows], dataset.occupancy[rows],
                      [vids[i] for i in rows.tolist()])
