"""Incident planning and effect-geometry tests.

Index:
  specs       dataclass validation and log io
  planning    seeded plan statistics, clamping, overlap resolution
  designation nearest-vehicle selection on a stubbed state
  zones       hand-computed intervals and a shortest-path point oracle
"""
import heapq
import itertools
import math

import numpy as np
import pytest

from trafficlab.demand import SpawnEvent, SpawnSchedule, spawn_schedule
from trafficlab.incidents import (ActiveIncident, IncidentError,
                                  IncidentPlanConfig, IncidentSpec,
                                  IncidentType, SeverityClass,
                                  compute_impact_zones, designate_vehicles,
                                  plan_incidents, read_incident_log,
                                  release_vehicles, write_incident_log)
from trafficlab.netgen import bundled_path
from trafficlab.roadnet import load_network

from conftest import make_line_net, rng_for


def spec_of(seg="s1", offset=100.0, onset=30, duration=120, radius=50.0,
            itype=IncidentType.STALLED_VEHICLE, n=1,
            severity=SeverityClass.MINOR, sid=0):
    return IncidentSpec(sid, itype, severity, onset, duration, seg, offset,
                        n, radius)


# -- specs -------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(IncidentError, match="duration"):
        spec_of(duration=0)
    with pytest.raises(IncidentError,
                       match="^incident onset must not be negative$"):
        spec_of(onset=-5)
    with pytest.raises(IncidentError, match="radius"):
        spec_of(radius=-1.0)
    for name, value in itertools.product(("offset", "radius"),
                                         (-1.0, math.nan, math.inf)):
        with pytest.raises(IncidentError, match=f"^incident {name} must be "
                                                f"non-negative and finite$"):
            spec_of(**{name: value})
    assert spec_of(offset=0.0, radius=0.0).offset == 0.0
    with pytest.raises(IncidentError, match="exactly one"):
        spec_of(n=2)
    with pytest.raises(IncidentError, match="at least two"):
        spec_of(itype=IncidentType.MULTI_VEHICLE_CRASH, n=1)
    assert spec_of(duration=60).end == 90


def test_plan_config_validation():
    with pytest.raises(IncidentError, match="probabilities"):
        IncidentPlanConfig(p_incident=1.5)
    with pytest.raises(IncidentError, match="ordered"):
        IncidentPlanConfig(minor_duration_s=(900.0, 300.0))
    with pytest.raises(IncidentError, match="slowdown"):
        IncidentPlanConfig(slowdown_factor=0.0)


def test_incident_log_round_trip(tmp_path):
    specs = [
        spec_of(sid=0, onset=30, duration=300, radius=50.0),
        spec_of(sid=1, seg="s2", offset=12.5, onset=400, duration=900,
                itype=IncidentType.MULTI_VEHICLE_CRASH, n=3,
                severity=SeverityClass.SEVERE, radius=100.0),
    ]
    path = tmp_path / "incidents.csv"
    write_incident_log(specs, path)
    back = read_incident_log(path)
    assert len(back) == 2
    assert back[0] == specs[0]
    b = back[1]
    assert (b.id, b.type, b.severity) == (1, IncidentType.MULTI_VEHICLE_CRASH,
                                          SeverityClass.SEVERE)
    assert (b.onset, b.duration, b.segment_id) == (400, 900, "s2")
    assert (b.offset, b.radius) == (12.5, 100.0)
    assert b.n_vehicles == 3

    bad = tmp_path / "bad.csv"
    bad.write_text("id,oops\n", encoding="utf-8")
    with pytest.raises(IncidentError, match="header"):
        read_incident_log(bad)
    bad.write_text("id,type,severity,onset_s,duration_s,segment_id,"
                   "offset_m,n_vehicles,radius_m\n1,2,3\n",
                   encoding="utf-8")
    with pytest.raises(IncidentError,
                       match=r"bad\.csv:2: expected 9 fields, got 3"):
        read_incident_log(bad)


def test_highway_plan_log_round_trips_exactly(tmp_path, flat_params):
    """Highway offsets are not on a grid; the log keeps every digit."""
    net = load_network(str(bundled_path("highway8.net")))
    sched = spawn_schedule(flat_params, net, 7200.0, seed=3,
                           bin_duration=100.0)
    plan = plan_incidents(sched, IncidentPlanConfig(p_incident=0.01), net,
                          seed=5)
    assert sum(round(s.offset, 6) != s.offset for s in plan) >= 2
    path = tmp_path / "incidents.csv"
    write_incident_log(plan, path)
    assert read_incident_log(path) == plan


def test_incident_log_errors_name_file_and_line(tmp_path):
    path = tmp_path / "incidents.csv"
    good = "0,stalled_vehicle,minor,30,120,s1,100.0,1,50.0"
    for row, match in (
            ("abc,stalled_vehicle,minor,30,120,s1,100.0,1,50.0",
             "invalid literal"),
            ("1,parked_car,minor,30,120,s1,100.0,1,50.0", "IncidentType"),
            ("1,stalled_vehicle,mild,30,120,s1,100.0,1,50.0",
             "SeverityClass"),
            ("1,stalled_vehicle,minor,30,120,s1,zz,1,50.0", "could not"),
            ("1,stalled_vehicle,minor,-1,120,s1,100.0,1,50.0",
             "incident onset must not be negative$"),
            ("1,stalled_vehicle,minor,30,0,s1,100.0,1,50.0", "duration"),
            ("1,multi_vehicle_crash,minor,30,120,s1,100.0,1,50.0",
             "at least two"),
            ("1,stalled_vehicle,minor,30,120,s1,nan,1,50.0",
             "incident offset must be non-negative and finite$"),
            ("1,stalled_vehicle,minor,30,120,s1,100.0,1,inf",
             "incident radius must be non-negative and finite$"),
            ("1,stalled_vehicle,minor,30,120,s1,-0.5,1,1e400",
             "incident offset must be non-negative and finite$")):
        path.write_text("id,type,severity,onset_s,duration_s,segment_id,"
                        f"offset_m,n_vehicles,radius_m\n{good}\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(IncidentError,
                           match=rf"incidents\.csv:3: .*{match}"):
            read_incident_log(path)


# -- planning ----------------------------------------------------------------


def sure_cfg(**kw):
    """Config that inserts an incident for every vehicle, stalled and minor
    unless overridden."""
    base = dict(p_incident=1.0, p_crash_given_incident=0.0, p_severe=0.0)
    base.update(kw)
    return IncidentPlanConfig(**base)


def test_single_vehicle_plan_hits_route_midpoint():
    net = make_line_net()  # 600 m at 10 m/s
    sched = SpawnSchedule((SpawnEvent(0.0, "a0", "a3"),), 4000.0)
    plan = plan_incidents(sched, sure_cfg(), net, seed=4)
    assert len(plan) == 1
    spec = plan[0]
    # midpoint of a 600 m route: 100 m into the middle segment, reached
    # after 30 s of free-flow driving
    assert spec.segment_id == "s1"
    assert spec.offset == pytest.approx(100.0)
    assert spec.onset == 30
    assert spec.type is IncidentType.STALLED_VEHICLE
    assert spec.severity is SeverityClass.MINOR
    assert spec.n_vehicles == 1
    assert spec.radius == 50.0
    assert 300 <= spec.duration <= 900


def test_plan_respects_probability_switches():
    net = make_line_net()
    sched = SpawnSchedule(tuple(SpawnEvent(float(60 * i), "a0", "a3")
                                for i in range(40)), 86400.0)
    assert plan_incidents(sched, IncidentPlanConfig(p_incident=0.0), net,
                          seed=1) == []
    severe = plan_incidents(
        sched, sure_cfg(p_severe=1.0, base_radius_m=40.0,
                        severe_radius_multiplier=3.0), net, seed=1)
    assert severe
    for s in severe:
        assert s.severity is SeverityClass.SEVERE
        assert s.radius == 120.0
        assert 900 <= s.duration <= 2700
    crashes = plan_incidents(sched, sure_cfg(p_crash_given_incident=1.0),
                             net, seed=1)
    assert crashes
    assert all(s.type is IncidentType.MULTI_VEHICLE_CRASH for s in crashes)
    assert all(s.n_vehicles in (2, 3) for s in crashes)


def test_plan_clamps_at_horizon():
    net = make_line_net()
    # onset = spawn + 30; the drawn duration is clamped to what fits
    sched = SpawnSchedule((SpawnEvent(900.0, "a0", "a3"),), 1100.0)
    plan = plan_incidents(sched, sure_cfg(), net, seed=2)
    assert len(plan) == 1
    assert plan[0].onset == 930
    assert plan[0].duration == 170
    assert plan[0].end == 1100

    # too close to the horizon for even the minimum duration: dropped
    tail = SpawnSchedule((SpawnEvent(1040.0, "a0", "a3"),), 1100.0)
    assert plan_incidents(tail, sure_cfg(), net, seed=2) == []
    # onset would land past the horizon entirely
    past = SpawnSchedule((SpawnEvent(1090.0, "a0", "a3"),), 1100.0)
    assert plan_incidents(past, sure_cfg(), net, seed=2) == []


def test_same_second_duplicates_cannot_coexist():
    net = make_line_net()
    sched = SpawnSchedule((SpawnEvent(0.0, "a0", "a3"),
                           SpawnEvent(0.0, "a0", "a3")), 4000.0)
    # identical onset and segment: resampling durations can never separate
    # them, so the second one is dropped
    plan = plan_incidents(sched, sure_cfg(), net, seed=9)
    assert len(plan) == 1


def test_plan_seeded_properties(grid_net, flat_params):
    horizon = 3000.0
    sched = spawn_schedule(flat_params, grid_net, horizon, seed=13,
                           bin_duration=100.0)
    cfg = IncidentPlanConfig(p_incident=0.25, p_severe=0.4,
                             base_radius_m=60.0)
    seen_total = 0
    for seed in range(6):
        plan = plan_incidents(sched, cfg, grid_net, seed=seed)
        again = plan_incidents(sched, cfg, grid_net, seed=seed)
        assert plan == again
        seen_total += len(plan)
        for i, s in enumerate(plan):
            assert s.id == i
            assert 0 <= s.onset < s.end <= horizon
            assert s.duration >= cfg.min_duration_s
            seg = grid_net.segments[s.segment_id]
            assert 0.0 <= s.offset <= seg.length
            want = 60.0 * (2.0 if s.severity is SeverityClass.SEVERE else 1.0)
            assert s.radius == want
        for a in plan:
            for b in plan:
                if a.id < b.id and a.segment_id == b.segment_id:
                    assert a.end <= b.onset or b.end <= a.onset
    assert seen_total > 0


# -- designation -------------------------------------------------------------


class StubState:
    """Just enough state surface for designation bookkeeping: per-slot
    lists, as the simulator keeps them."""

    def __init__(self, positions, segment="s1"):
        self.pos = [float(p) for p in positions]
        self.halted_by = [-1] * len(positions)
        self._segment = segment

    def slots_on_segment(self, seg_id):
        return list(range(len(self.pos))) if seg_id == self._segment else []


def test_designation_picks_nearest_with_id_ties():
    st = StubState([90.0, 110.0, 40.0])
    chosen = designate_vehicles(st, spec_of(offset=100.0))
    assert chosen == [0]  # 90 and 110 tie at distance 10; lower id wins
    assert st.halted_by[0] == 0

    st2 = StubState([90.0, 110.0, 40.0])
    chosen = designate_vehicles(
        st2, spec_of(itype=IncidentType.MULTI_VEHICLE_CRASH, n=3))
    assert chosen == [0, 1, 2]
    assert list(st2.halted_by) == [0, 0, 0]


def test_designation_skips_taken_and_tolerates_shortfall():
    st = StubState([90.0, 110.0])
    st.halted_by[0] = 7  # already pinned by another incident
    assert designate_vehicles(st, spec_of()) == [1]

    empty = StubState([], segment="s1")
    assert designate_vehicles(empty, spec_of()) == []  # phantom incident

    st3 = StubState([50.0, 60.0, 150.0])
    st3.halted_by[2] = 7
    spec = spec_of(itype=IncidentType.MULTI_VEHICLE_CRASH, n=3, sid=4)
    # fewer free than asked; listed nearest-first (60 is closer to 100)
    chosen = designate_vehicles(st3, spec)
    assert chosen == [1, 0]
    # the release frees this incident's vehicles and leaves the other's
    release_vehicles(st3, ActiveIncident(spec, (), chosen))
    assert st3.halted_by == [-1, -1, 7]


# -- zones -------------------------------------------------------------------


def test_zone_intervals_on_open_line():
    net = make_line_net()  # s0 -> s1 -> s2, each 200 m
    zones = compute_impact_zones(net, spec_of(offset=100.0, radius=150.0))
    assert zones == [("s0", 150.0, 200.0), ("s1", 0.0, 200.0),
                     ("s2", 0.0, 50.0)]
    # radius within the segment: no spill
    tight = compute_impact_zones(net, spec_of(offset=100.0, radius=60.0))
    assert tight == [("s1", 40.0, 160.0)]
    # at the entry end of the first segment: upstream reach has nowhere to go
    edge = compute_impact_zones(net, spec_of(seg="s0", offset=10.0,
                                             radius=50.0))
    assert edge == [("s0", 0.0, 60.0)]


def test_zone_wraps_onto_reverse_segment_and_merges(grid_net):
    # two-way grid: the reverse segment is reachable downstream (u-turn at
    # to_node) and upstream (it feeds from_node), covering both of its ends;
    # radius == length makes the pieces meet and merge into one interval
    seg_id = sorted(grid_net.segments)[0]
    seg = grid_net.segments[seg_id]
    reverse = [s.id for s in grid_net.segments.values()
               if s.from_node == seg.to_node and s.to_node == seg.from_node]
    assert len(reverse) == 1
    zones = compute_impact_zones(
        grid_net, spec_of(seg=seg_id, offset=seg.length / 2.0,
                          radius=seg.length))
    by_seg = {}
    for sid, lo, hi in zones:
        by_seg.setdefault(sid, []).append((lo, hi))
    assert by_seg[reverse[0]] == [(0.0, seg.length)]


def _node_distances(net, sources):
    """Directed Dijkstra over segment lengths from seeded (node, cost)s."""
    dist = {}
    heap = list(sources)
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for sid in net.outgoing(node):
            seg = net.segments[sid]
            if seg.to_node not in dist:
                heapq.heappush(heap, (d + seg.length, seg.to_node))
    return dist


def _in_zone_oracle(net, spec, seg_id, y):
    """Is the point y on seg_id within path distance spec.radius of the
    incident point, downstream or upstream?  Independent re-derivation from
    single-source node distances."""
    origin = net.segments[spec.segment_id]
    r = spec.radius
    # downstream: distance driving from the incident point to the query
    down = _node_distances(
        net, [(origin.length - spec.offset, origin.to_node)])
    best = math.inf
    if seg_id == spec.segment_id and y >= spec.offset:
        best = y - spec.offset
    from_node = net.segments[seg_id].from_node
    if from_node in down:
        best = min(best, down[from_node] + y)
    if best <= r:
        return True
    # upstream: distance driving from the query point to the incident
    up = {}
    for node, d in _node_distances_rev(net, spec).items():
        up[node] = d
    seg = net.segments[seg_id]
    best = math.inf
    if seg_id == spec.segment_id and y <= spec.offset:
        best = spec.offset - y
    if seg.to_node in up:
        best = min(best, (seg.length - y) + up[seg.to_node])
    return best <= r


def _node_distances_rev(net, spec):
    """Distance from each node forward to the incident point (edges
    reversed)."""
    origin = net.segments[spec.segment_id]
    dist = {}
    heap = [(spec.offset, origin.from_node)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for sid in net.incoming(node):
            seg = net.segments[sid]
            if seg.from_node not in dist:
                heapq.heappush(heap, (d + seg.length, seg.from_node))
    return dist


def test_zone_membership_matches_shortest_path_oracle(grid_net):
    seg_ids = sorted(grid_net.segments)
    for trial in range(5):
        rng = rng_for("zones", trial)
        seg = grid_net.segments[seg_ids[int(rng.integers(len(seg_ids)))]]
        spec = spec_of(seg=seg.id,
                       offset=float(rng.uniform(0.0, seg.length)),
                       radius=float(rng.uniform(50.0, 450.0)))
        zones = compute_impact_zones(grid_net, spec)
        by_seg = {}
        for sid, lo, hi in zones:
            assert 0.0 <= lo < hi <= grid_net.segments[sid].length
            by_seg.setdefault(sid, []).append((lo, hi))
        for sid, ivs in by_seg.items():
            for (l0, h0), (l1, h1) in zip(ivs, ivs[1:]):
                assert h0 < l1  # disjoint, ascending after merging

        for sid in seg_ids:
            length = grid_net.segments[sid].length
            for y in np.linspace(0.0, length, 41):
                inside = any(lo <= y <= hi
                             for lo, hi in by_seg.get(sid, ()))
                want = _in_zone_oracle(grid_net, spec, sid, float(y))
                if inside != want:
                    # skip knife-edge points only when the query distance
                    # sits exactly on the radius boundary
                    assert _near_boundary(grid_net, spec, sid, y), (
                        sid, y, inside, want)


def _near_boundary(net, spec, sid, y, tol=1e-6):
    r = spec.radius
    for probe in (y - tol, y + tol):
        p = min(max(probe, 0.0), net.segments[sid].length)
        if _in_zone_oracle(net, spec, sid, p) != _in_zone_oracle(
                net, spec, sid, y):
            return True
    return False
