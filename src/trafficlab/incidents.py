"""Incident planning and effect application.

An incident halts one or more designated vehicles at a planned point for a
severity-scaled duration; every other vehicle within the radius of impact
(path distance along the driving direction, both upstream and downstream)
is capped to slowdown_factor times its segment's speed limit.

Each incident designates its halted vehicles and computes its impact zone
once, on activation.  The simulator resolves the active zones to one row
per lane queue on each second an incident starts or ends: the lane's
limit, which is the cap where a zone covers the whole segment, and the
intervals of the zones that cover part of it.  Its lane walk then caps
each vehicle from its lane's row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import read_csv, write_lines
from .roadnet import RoadNetwork, shortest_route


class IncidentType(str, Enum):
    STALLED_VEHICLE = "stalled_vehicle"
    MULTI_VEHICLE_CRASH = "multi_vehicle_crash"


class SeverityClass(str, Enum):
    MINOR = "minor"
    SEVERE = "severe"


class IncidentError(ValueError):
    pass


@dataclass(frozen=True)
class IncidentSpec:
    id: int
    type: IncidentType
    severity: SeverityClass
    onset: int
    duration: int
    segment_id: str
    offset: float
    n_vehicles: int
    radius: float

    def __post_init__(self):
        if self.onset < 0:
            raise IncidentError("incident onset must not be negative")
        if self.duration <= 0:
            raise IncidentError("incident duration must be positive")
        for name in ("offset", "radius"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN included
                raise IncidentError(
                    f"incident {name} must be non-negative and finite")
        if self.type is IncidentType.STALLED_VEHICLE and self.n_vehicles != 1:
            raise IncidentError("a stalled vehicle halts exactly one vehicle")
        if (self.type is IncidentType.MULTI_VEHICLE_CRASH
                and self.n_vehicles < 2):
            raise IncidentError("a crash halts at least two vehicles")

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass
class IncidentPlanConfig:
    p_incident: float = 1e-4
    p_crash_given_incident: float = 0.5
    p_severe: float = 0.3
    minor_duration_s: tuple = (300.0, 900.0)
    severe_duration_s: tuple = (900.0, 2700.0)
    base_radius_m: float = 50.0
    severe_radius_multiplier: float = 2.0
    slowdown_factor: float = 0.3
    min_duration_s: float = 60.0  # shorter tail-clamped incidents are dropped

    def __post_init__(self):
        for p in (self.p_incident, self.p_crash_given_incident, self.p_severe):
            if not 0.0 <= p <= 1.0:
                raise IncidentError("probabilities must lie in [0, 1]")
        for lo, hi in (self.minor_duration_s, self.severe_duration_s):
            if not 0 < lo <= hi < math.inf:
                raise IncidentError("duration ranges must be positive, "
                                    "ordered and finite")
        if not 0.0 < self.slowdown_factor <= 1.0:
            raise IncidentError("slowdown factor must be in (0, 1]")
        for name in ("base_radius_m", "severe_radius_multiplier",
                     "min_duration_s"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN included
                raise IncidentError(f"{name} must be non-negative and finite")


def _route_point(net: RoadNetwork, route, fraction: float):
    """(segment_id, offset, eta) at the given fraction of the route's length,
    eta being the free-flow travel time from the route start to that point."""
    total = sum(net.segments[sid].length for sid in route)
    target = total * fraction
    acc = 0.0
    eta = 0.0
    for sid in route:
        seg = net.segments[sid]
        if acc + seg.length >= target or sid == route[-1]:
            offset = min(max(target - acc, 0.0), seg.length)
            return sid, offset, eta + offset / seg.speed_limit
        acc += seg.length
        eta += seg.free_flow_time
    raise IncidentError("empty route")  # unreachable for validated routes


def plan_incidents(schedule, cfg: IncidentPlanConfig, network: RoadNetwork,
                   seed) -> list:
    """Bernoulli-per-vehicle incident plan, deterministic under the seed.

    Draw order per spawned vehicle: insertion, then (for inserted ones) type,
    severity, duration, and for crashes the vehicle count in {2, 3}.  The
    incident point is the vehicle's route midpoint; onset is its free-flow
    arrival there, rounded to a whole second.  Overlapping same-segment
    incidents get their duration resampled up to 10 times, then skipped;
    incidents that would not fit min_duration_s before the horizon are
    skipped too.
    """
    rng = np.random.default_rng(seed)
    horizon = int(schedule.horizon)
    accepted: list = []
    for ev in schedule.events:
        if rng.random() >= cfg.p_incident:
            continue
        itype = (IncidentType.MULTI_VEHICLE_CRASH
                 if rng.random() < cfg.p_crash_given_incident
                 else IncidentType.STALLED_VEHICLE)
        severity = (SeverityClass.SEVERE if rng.random() < cfg.p_severe
                    else SeverityClass.MINOR)
        lo, hi = (cfg.severe_duration_s if severity is SeverityClass.SEVERE
                  else cfg.minor_duration_s)
        duration = int(round(rng.uniform(lo, hi)))
        n_veh = 1
        if itype is IncidentType.MULTI_VEHICLE_CRASH:
            n_veh = int(rng.integers(2, 4))
        route = shortest_route(network, ev.entry, ev.exit)
        if not route:
            continue
        seg_id, offset, eta = _route_point(network, route, 0.5)
        onset = int(round(ev.time + eta))
        if onset >= horizon:
            continue
        duration = min(duration, horizon - onset)
        if duration < cfg.min_duration_s:
            continue
        radius = cfg.base_radius_m * (cfg.severe_radius_multiplier
                                      if severity is SeverityClass.SEVERE
                                      else 1.0)
        ok = False
        for _attempt in range(10):
            if not _overlaps(accepted, seg_id, onset, duration):
                ok = True
                break
            duration = int(round(rng.uniform(lo, hi)))
            duration = min(duration, horizon - onset)
            if duration < cfg.min_duration_s:
                break
        if not ok:
            continue
        accepted.append(IncidentSpec(len(accepted), itype, severity, onset,
                                     duration, seg_id, offset, n_veh, radius))
    return accepted


def _overlaps(accepted, seg_id: str, onset: int, duration: int) -> bool:
    end = onset + duration
    for spec in accepted:
        if spec.segment_id == seg_id and onset < spec.end and spec.onset < end:
            return True
    return False


def compute_impact_zones(net: RoadNetwork, spec: IncidentSpec) -> list:
    """Intervals (segment_id, lo, hi) within path distance spec.radius of the
    incident point, following driving direction both down- and upstream.
    Overlapping intervals on one segment are merged."""
    seg = net.segments[spec.segment_id]
    r = spec.radius
    intervals: dict = {}

    def add(sid: str, lo: float, hi: float):
        if hi > lo:
            intervals.setdefault(sid, []).append((lo, hi))

    add(spec.segment_id, max(0.0, spec.offset - r),
        min(seg.length, spec.offset + r))

    # downstream: remaining reach past each segment end, longest-first
    best_down: dict = {}
    queue = [(seg.to_node, r - (seg.length - spec.offset))]
    while queue:
        node, rem = queue.pop()
        if rem <= 0:
            continue
        for sid in net.outgoing(node):
            if best_down.get(sid, -1.0) >= rem:
                continue
            best_down[sid] = rem
            nxt = net.segments[sid]
            add(sid, 0.0, min(nxt.length, rem))
            queue.append((nxt.to_node, rem - nxt.length))

    best_up: dict = {}
    queue = [(seg.from_node, r - spec.offset)]
    while queue:
        node, rem = queue.pop()
        if rem <= 0:
            continue
        for sid in net.incoming(node):
            if best_up.get(sid, -1.0) >= rem:
                continue
            best_up[sid] = rem
            prv = net.segments[sid]
            add(sid, max(0.0, prv.length - rem), prv.length)
            queue.append((prv.from_node, rem - prv.length))

    out = []
    for sid in sorted(intervals):
        merged: list = []
        for lo, hi in sorted(intervals[sid]):
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        out.extend((sid, lo, hi) for lo, hi in merged)
    return out


class ActiveIncident(NamedTuple):
    spec: IncidentSpec
    zone: tuple  # the (segment id, lo, hi) rows of compute_impact_zones
    halted: list  # the slots designated at onset, nearest first


def activate(state, spec: IncidentSpec) -> ActiveIncident:
    """Designate the spec's halted vehicles and compute its impact zone."""
    return ActiveIncident(spec,
                          tuple(compute_impact_zones(state.network, spec)),
                          designate_vehicles(state, spec))


def apply_effects(state, active, slowdown: float) -> list:
    """One row (limit, cap, zones) per lane queue, in queue order, for the
    ActiveIncidents in `active`.

    A segment that some zone interval touches has the cap slowdown times
    its limit, at or below the limit; the others have math.inf.  Where a
    zone covers the whole segment, [0, length], the lane's limit is that
    cap and its zones are empty: every queued vehicle lies in [0, length].
    Otherwise the limit is the segment's and `zones` holds the sorted,
    merged, closed (lo, hi) intervals that cover part of the lane, whose
    vehicles `cap` holds.  The halted vehicles are not in the rows: the
    lane walk stops every vehicle whose `halted_by` is set.
    """
    spans: dict = {}
    for inc in active:
        for sid, lo, hi in inc.zone:
            spans.setdefault(sid, []).append((lo, hi))
    rows: list = []
    for sid, queues in state.lane_queues.items():
        seg = state.network.segments[sid]
        limit = float(seg.speed_limit)
        cap = float(slowdown * seg.speed_limit) if sid in spans else math.inf
        zones: list = []
        for lo, hi in sorted(spans.get(sid, ())):
            if lo <= 0.0 and seg.length <= hi:
                limit, zones = cap, []
                break
            if zones and lo <= zones[-1][1]:
                zones[-1] = (zones[-1][0], max(zones[-1][1], hi))
            else:
                zones.append((lo, hi))
        rows.extend([(limit, cap, tuple(zones))] * len(queues))
    return rows


def designate_vehicles(state, spec: IncidentSpec) -> list:
    """Pick the spec's halted vehicles at onset: nearest to the incident
    point on its segment (ties by id), skipping vehicles already designated.
    Fewer than n_vehicles present means fewer are halted (possibly none:
    a phantom incident that only slows surrounding traffic)."""
    candidates = [slot for slot in state.slots_on_segment(spec.segment_id)
                  if state.halted_by[slot] < 0]
    candidates.sort(key=lambda s: (abs(state.pos[s] - spec.offset), s))
    chosen = candidates[:spec.n_vehicles]
    for slot in chosen:
        state.halted_by[slot] = spec.id
    return chosen


def release_vehicles(state, inc: ActiveIncident) -> None:
    """Free the vehicles `inc` halted, and only those."""
    for slot in inc.halted:
        state.halted_by[slot] = -1


LOG_HEADER = ("id,type,severity,onset_s,duration_s,segment_id,offset_m,"
              "n_vehicles,radius_m")


def write_incident_log(specs, path) -> None:
    """Offsets and radii are written as their shortest round-trip `repr`,
    so the log reads back to equal specs."""
    write_lines(path, [LOG_HEADER] + [
        f"{s.id},{s.type.value},{s.severity.value},{s.onset},{s.duration},"
        f"{s.segment_id},{float(s.offset)!r},{s.n_vehicles},"
        f"{float(s.radius)!r}" for s in specs])


def read_incident_log(path) -> list:
    return read_csv(path, IncidentError, LOG_HEADER, lambda f: IncidentSpec(
        int(f[0]), IncidentType(f[1]), SeverityClass(f[2]), int(f[3]),
        int(f[4]), f[5], float(f[6]), int(f[7]), float(f[8])))[1]
