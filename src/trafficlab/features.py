"""Raw sensor table to learning table.

Three transforms: (1) re-identify vehicles across contiguous sensor pairs to
get travel times, taking each raw row's (second, sensor) from its position
in the table, (2) trailing-window means of every per-sensor per-second
series and of per-pair travel times, recomputed every stride (a pair's
means from exact integer prefix sums of its travel times), (3) incident
labels from ground truth.  Missing values (a pair with no traversal in the
window) stay missing; the tree learner routes them natively.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import read_csv, write_lines
from .roadnet import RoadNetwork
from .sensors import RawDataset


class FeatureError(ValueError):
    pass


# the last three columns of a feature table file, after the features
LABEL_COLUMNS = ["label_incident", "label_road", "label_severity"]


@dataclass(frozen=True)
class TravelTimeRecord:
    pair: tuple
    vehicle_id: int
    depart: int
    arrive: int

    @property
    def travel_time(self) -> int:
        return self.arrive - self.depart

    def __post_init__(self):
        if self.arrive <= self.depart:
            raise FeatureError("arrival must come after departure")


@dataclass
class WindowConfig:
    window_s: int = 600
    stride_s: int = 30
    label_mode: str = "stride"  # "stride" or "window" overlap labeling

    def __post_init__(self):
        if self.window_s < 1 or self.stride_s < 1:
            raise FeatureError("window and stride must be positive")
        if self.stride_s > self.window_s:
            raise FeatureError("stride must not exceed the window")
        if self.label_mode not in ("stride", "window"):
            raise FeatureError(f"unknown label mode {self.label_mode!r}")


def reidentify_travel_times(raw: RawDataset, pairs,
                            staleness: int = 1800) -> list:
    """One TravelTimeRecord per (vehicle, pair) traversal.

    Routes are loop-free, so a vehicle crosses a pair at most once: arrival
    is its first second inside b's range, departure the last second inside
    a's range before that.  Matches older than the staleness horizon are
    dropped as implausible re-identifications.
    """
    # per sensor: vehicle id -> the seconds it was in range, ascending;
    # row i of the table is (second, sensor) = divmod(i, n)
    seen_at: list = [{} for _ in raw.sensor_ids]
    for (t, s), ids in zip(product(range(raw.horizon),
                                   range(len(raw.sensor_ids))),
                           raw.vehicle_ids):
        seen = seen_at[s]
        for v in ids:
            times = seen.get(v)
            if times is None:
                seen[v] = [t]
            else:
                times.append(t)

    sensor_pos = {sid: k for k, sid in enumerate(raw.sensor_ids)}
    records = []
    for a, b in pairs:
        ia, ib = sensor_pos.get(a), sensor_pos.get(b)
        if ia is None or ib is None:
            raise FeatureError(f"pair ({a}, {b}) not covered by this dataset")
        at_a = seen_at[ia]
        for v, times_b in seen_at[ib].items():
            times_a = at_a.get(v)
            if times_a is None:
                continue
            arrive = times_b[0]
            k = bisect_left(times_a, arrive)
            if k == 0:
                continue
            depart = times_a[k - 1]
            if arrive - depart > staleness:
                continue
            records.append(TravelTimeRecord((a, b), int(v), depart, arrive))
    # (pair, arrive, vehicle) is unique per record, so the order the
    # vehicles were visited in does not show
    records.sort(key=lambda r: (r.pair, r.arrive, r.vehicle_id))
    return records


@dataclass
class FeatureTable:
    """Feature matrix plus labels; X uses NaN as the missing marker and is
    column-aligned with feature_names (window_end_s is an index, never a
    model input)."""
    feature_names: list
    X: np.ndarray
    window_end: np.ndarray
    label_incident: np.ndarray
    label_road: list
    label_severity: list

    def __post_init__(self):
        n = len(self.window_end)
        if not (self.X.shape == (n, len(self.feature_names))
                and len(self.label_incident) == n
                and len(self.label_road) == n
                and len(self.label_severity) == n):
            raise FeatureError("feature table shape mismatch")

    @property
    def columns(self) -> list:
        return ["window_end_s"] + list(self.feature_names) + LABEL_COLUMNS

    @property
    def n_rows(self) -> int:
        return len(self.window_end)


def incident_label_at(incident_log, network: RoadNetwork, we: int,
                      span: int):
    """(active, road_label, severity) for the interval (we - span, we];
    among overlapping incidents the earliest onset wins."""
    best = None
    for spec in incident_log:
        if spec.onset < we and spec.end > we - span:
            if best is None or (spec.onset, spec.id) < (best.onset, best.id):
                best = spec
    if best is None:
        return False, None, None
    road = network.segments[best.segment_id].road_label
    return True, road, best.severity.value


def build_feature_rows(raw: RawDataset, records, cfg: WindowConfig,
                       incident_log, network: RoadNetwork,
                       pairs) -> FeatureTable:
    """Assemble the labeled rolling-window table.

    Rows sit at window_end = window, window + stride, ... <= horizon; the
    window covers seconds [window_end - window, window_end).  Each of pairs,
    in order, gets a travel-time column averaging its records whose arrival
    falls in the window, whether or not any record has that pair.  The
    label interval is the last stride (default) or the whole window,
    depending on cfg.label_mode.
    """
    if raw.horizon < cfg.window_s:
        raise FeatureError("horizon shorter than one window")
    ends = np.arange(cfg.window_s, raw.horizon + 1, cfg.stride_s,
                     dtype=np.int64)
    starts = ends - cfg.window_s
    n = len(ends)

    names: list = []
    blocks: list = []
    for fieldname, tag in (("count", "cnt_mean"), ("mean_speed", "spd_mean"),
                           ("occupancy", "occ_mean")):
        # C-contiguous, one field at a time: each window is a contiguous
        # row slice, so its mean is np.mean of the slice bit for bit
        mat = np.ascontiguousarray(raw.sensor_matrix(fieldname).T,
                                   dtype=np.float64)
        means = sliding_window_view(mat, cfg.window_s, axis=1)[
            :, ::cfg.stride_s].mean(axis=2)
        for k, sid in enumerate(raw.sensor_ids):
            names.append(f"{tag}_{sid}")
            blocks.append(means[k])

    by_pair: dict = {p: [] for p in pairs}
    for r in records:
        if r.pair in by_pair:
            by_pair[r.pair].append(r)
    for a, b in pairs:
        recs = sorted(by_pair[(a, b)], key=lambda r: (r.arrive, r.vehicle_id))
        arr = np.asarray([r.arrive for r in recs], dtype=np.int64)
        # a window's sum is a difference of exact integer prefix sums; every
        # partial sum is an integer below 2**53, so each mean equals np.mean
        # of the window's travel times as floats, bit for bit
        cum = np.cumsum([0] + [r.travel_time for r in recs], dtype=np.int64)
        lo = np.searchsorted(arr, starts, side="left")
        hi = np.searchsorted(arr, ends, side="left")
        col = np.full(n, np.nan)
        np.divide(cum[hi] - cum[lo], hi - lo, out=col, where=hi > lo)
        names.append(f"tt_{a}__{b}")
        blocks.append(col)

    tod = (ends % 86400) / 86400.0
    feature_names = ["time_of_day"] + names
    X = np.column_stack([tod] + blocks)

    span = cfg.stride_s if cfg.label_mode == "stride" else cfg.window_s
    lab_inc = np.zeros(n, dtype=bool)
    lab_road: list = [None] * n
    lab_sev: list = [None] * n
    for i, we in enumerate(ends):
        active, road, sev = incident_label_at(incident_log, network,
                                              int(we), span)
        lab_inc[i] = active
        lab_road[i] = road
        lab_sev[i] = sev
    return FeatureTable(feature_names, X, ends, lab_inc, lab_road, lab_sev)


def write_feature_table(table: FeatureTable, path) -> None:
    """CSV with an empty field as the missing marker."""
    X = np.asarray(table.X, dtype=np.float64)
    rows = zip(map(int, table.window_end), map(np.ndarray.tolist, X),
               table.label_incident, table.label_road, table.label_severity)
    write_lines(path, chain([",".join(table.columns)], (
        ",".join([str(end)] + ["" if math.isnan(x) else repr(x) for x in xs]
                 + ["1" if inc else "0", road or "", sev or ""])
        for end, xs, inc, road, sev in rows)))


def read_feature_table(path) -> FeatureTable:
    """The table write_feature_table wrote.  A feature field is empty, the
    missing marker, or a finite number; anything else, `nan` included,
    raises FeatureError naming the line and the column."""
    names = []

    def header(cols):
        names[:] = cols[1:-3]
        return cols[:1] == ["window_end_s"] and cols[-3:] == LABEL_COLUMNS

    def parse(f):
        xs = [float(p) if p else np.nan for p in f[1:-3]]
        for name, p, x in zip(names, f[1:-3], xs):
            if p and not math.isfinite(x):
                raise ValueError(f"{name} is {p!r}, expected a finite "
                                 f"number or an empty field")
        if f[-3] not in ("0", "1"):
            raise ValueError(f"label_incident {f[-3]!r} is not 0 or 1")
        return int(f[0]), xs, f[-3] == "1", f[-2] or None, f[-1] or None

    cols, rows = read_csv(path, FeatureError, header, parse)
    feature_names = cols[1:-3]
    we, xs, lab_i, lab_r, lab_s = zip(*rows) if rows else ((),) * 5
    X = (np.asarray(xs, dtype=np.float64) if rows
         else np.empty((0, len(feature_names))))
    return FeatureTable(feature_names, X,
                        np.asarray(we, dtype=np.int64),
                        np.asarray(lab_i, dtype=bool), list(lab_r),
                        list(lab_s))


def concat_tables(tables) -> FeatureTable:
    """Stack same-schema tables (multi-day training sets)."""
    tables = list(tables)
    if not tables:
        raise FeatureError("nothing to concatenate")
    names = tables[0].feature_names
    for t in tables[1:]:
        if t.feature_names != names:
            raise FeatureError("feature schemas differ across tables")
    return FeatureTable(
        names, np.vstack([t.X for t in tables]),
        np.concatenate([t.window_end for t in tables]),
        np.concatenate([t.label_incident for t in tables]),
        sum((t.label_road for t in tables), []),
        sum((t.label_severity for t in tables), []))
