"""Microscopic simulation tests.

Index:
  config       parameter validation
  trajectory   free-run motion against a closed-form oracle
  signals      red-line holds and per-phase release
  bookkeeping  determinism, conservation, spawn backpressure, audits
  incidents    designated halts and impact-zone speed caps in motion
  tables       signal table, lane-queue capture and the lane caps resolved
               per change of the active incidents against the per-second
               loops they replace
  step         the fused per-queue step against the vectorized step it
               replaced, state bitwise equal after every second, also with
               a spawn backlog, across incident change seconds and on 24
               generated small scenarios; far heads skip the lookahead and
               the crossing check
"""
import math

import numpy as np
import pytest

from trafficlab import kernels, microsim
from trafficlab.demand import (FlowModelParams, SpawnEvent, SpawnSchedule,
                               spawn_schedule)
from trafficlab.incidents import (IncidentSpec, IncidentType,
                                  SeverityClass, IncidentPlanConfig,
                                  activate, apply_effects,
                                  compute_impact_zones, plan_incidents,
                                  release_vehicles)
from trafficlab.microsim import (AuditReport, SimConfig, SimError,
                                 Simulation, run)
from trafficlab.netgen import bundled_path
from trafficlab.roadnet import SensorPlacement, load_network
from trafficlab.sensors import (RawDataset, RawDatasetBuilder,
                                SensorReading, SensorRig)

from conftest import make_line_net, make_signal_line_net, traced_run
from test_kernels import vector_follow_speeds

NO_NOISE = dict(driver_imperfection=0.0)


def one_spawn(t, entry, exit_, horizon):
    return SpawnSchedule((SpawnEvent(float(t), entry, exit_),),
                         float(horizon))


def linear_trace(trace: list, slot: int, seg_length: float):
    """Per-step (linear position, speed) for one vehicle of a traced_run
    trace, segment offsets unrolled onto the route axis; entries stop at
    arrival."""
    out = {}
    for t, slots, segs, pos, speed in trace:
        where = np.nonzero(slots == slot)[0]
        if where.size:
            i = int(where[0])
            out[t] = (segs[i] * seg_length + pos[i], float(speed[i]))
    return out


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(SimError, match="positive"):
        SimConfig(accel=0.0)
    with pytest.raises(SimError, match="imperfection"):
        SimConfig(driver_imperfection=1.0)
    with pytest.raises(SimError, match="vehicle_length must be positive"):
        SimConfig(vehicle_length=0.0)
    # NaN and infinities fail every comparison, so each is rejected too
    with pytest.raises(SimError, match="decel must be positive and finite"):
        SimConfig(decel=float("nan"))
    with pytest.raises(SimError, match="min_gap must be non-negative"):
        SimConfig(min_gap=float("inf"))


# -- trajectory ----------------------------------------------------------------


def test_free_run_matches_closed_form_oracle():
    net = make_line_net()  # 3 x 200 m, limit 10
    cfg = SimConfig(**NO_NOISE)
    res, trace = traced_run(net, one_spawn(0, "a0", "a3", 120), cfg=cfg,
                            audit=True)
    assert res.audit.ok
    assert res.spawned == 1 and res.arrived == 1

    # hand-stepped kinematics: spawn at 5 m, accelerate by 2.6 each second
    # up to the limit, arrive once the unrolled position passes 600 m
    want = {}
    lin, v, t = 5.0, 0.0, 0
    while True:
        v = min(v + cfg.accel, 10.0)
        lin += v
        if lin > 600.0:
            break
        want[t] = (lin, v)
        t += 1

    got = linear_trace(trace, 0, 200.0)
    assert sorted(got) == sorted(want)
    for step, (lin, v) in want.items():
        assert got[step][0] == pytest.approx(lin, abs=1e-9)
        assert got[step][1] == pytest.approx(v, abs=1e-9)


def test_platoon_preserves_spawn_order_and_gaps():
    net = make_line_net()
    events = tuple(SpawnEvent(float(3 * i), "a0", "a3") for i in range(6))
    res, trace = traced_run(net, SpawnSchedule(events, 200.0),
                            cfg=SimConfig(**NO_NOISE), audit=True)
    assert res.audit.ok
    assert res.arrived == 6
    # single-lane line, no overtaking: within each segment the front-to-back
    # listing must be ascending spawn order with descending positions
    for _t, slots, segs, pos, _speed in trace:
        for seg in np.unique(segs):
            member = segs == seg
            assert np.array_equal(slots[member], np.sort(slots[member]))
            assert np.all(np.diff(pos[member]) < 0) or member.sum() == 1


# -- signals -------------------------------------------------------------------


def first_step_on(trace: list, slot: int, seg_idx: int):
    for t, slots, segs, _pos, _speed in trace:
        where = np.nonzero(slots == slot)[0]
        if where.size and segs[int(where[0])] == seg_idx:
            return t
    return None


def test_vehicle_holds_at_red_then_crosses_on_green():
    net = make_signal_line_net()  # phase 0 greens s0 for 30 s, then x0 for 30
    seg_ids = sorted(net.segments)  # -> ["s0", "s1", "x0"]
    res, trace = traced_run(net, one_spawn(15, "a0", "a2", 150),
                            cfg=SimConfig(**NO_NOISE), audit=True)
    assert res.audit.ok
    assert res.arrived == 1
    tr = linear_trace(trace, 0, 200.0)

    crossed = first_step_on(trace, 0, seg_ids.index("s1"))
    assert crossed is not None and crossed >= 60  # red during [30, 60)
    for t in range(45, 60):
        lin, v = tr[t]
        assert v == 0.0
        assert 180.0 <= lin <= 200.0  # parked at the stop line, not past it


def test_cross_street_released_by_its_own_phase():
    net = make_signal_line_net()
    seg_ids = sorted(net.segments)
    res, trace = traced_run(net, one_spawn(0, "b0", "a2", 120),
                            cfg=SimConfig(**NO_NOISE), audit=True)
    assert res.audit.ok
    crossed = first_step_on(trace, 0, seg_ids.index("s1"))
    assert crossed is not None
    assert 30 <= crossed <= 36  # x0 is red until its phase starts at t=30


# -- bookkeeping -----------------------------------------------------------------


def test_run_is_deterministic(flat_params):
    net = make_line_net()
    sched = spawn_schedule(flat_params, net, 600.0, seed=5,
                           bin_duration=100.0)
    placement = SensorPlacement(("a1", "a2"), range_m=60.0)
    kw = dict(placement=placement, cfg=SimConfig(seed=9))
    a, trace_a = traced_run(net, sched, **kw)
    b, trace_b = traced_run(net, sched, **kw)
    assert a.raw.data_equal(b.raw)
    assert (a.spawned, a.arrived) == (b.spawned, b.arrived)
    for (ta, sa, ga, pa, va), (tb, sb, gb, pb, vb) in zip(trace_a, trace_b):
        assert ta == tb
        assert np.array_equal(sa, sb) and np.array_equal(ga, gb)
        assert np.array_equal(pa, pb) and np.array_equal(va, vb)

    c = run(net, sched, placement=placement, cfg=SimConfig(seed=10))
    assert not a.raw.data_equal(c.raw)  # driver noise seed changes speeds


def test_audits_stay_clean_on_seeded_runs(flat_params, grid_net):
    for seed in range(3):
        sched = spawn_schedule(flat_params, make_line_net(), 600.0,
                               seed=seed, bin_duration=100.0)
        res = run(make_line_net(), sched, cfg=SimConfig(seed=seed),
                  audit=True)
        assert res.audit.ok, res.audit.violations[:5]
        assert res.audit.checked_steps == 600

    sched = spawn_schedule(flat_params, grid_net, 600.0, seed=1,
                           bin_duration=100.0)
    res = run(grid_net, sched, cfg=SimConfig(seed=1), audit=True)
    assert res.audit.ok, res.audit.violations[:5]


def place(sim, slot, seg, pos, speed):
    """Put vehicle `slot` on lane 0 of segment index `seg`, as though it
    had spawned and driven there; its spawn event counts as consumed."""
    st = sim.state
    qi = int(sim.tables.queue_base[seg])
    st.pos[slot] = pos
    st.speed[slot] = speed
    st.cur_seg[slot] = seg
    st.route_step[slot] = sim.routes[slot].index(seg)
    st.queue_of[slot] = qi
    st.queues[qi].append(slot)
    st.due += 1
    st.spawned += 1
    sim._next_event = max(sim._next_event, slot + 1)


def test_crossing_head_waits_behind_a_tail_near_the_segment_start():
    net = make_line_net()  # s0 -> s1 -> s2, one lane each: queues 0, 1, 2
    sched = SpawnSchedule((SpawnEvent(0.0, "a0", "a3"),
                           SpawnEvent(0.0, "a0", "a3")), 60.0)
    # keeps vehicle 1 standing 2 m into s1: its lane's entry space is 2 - 5
    # = -3 m, so there is no room to cross into s1
    halt = stall(onset=0, duration=50, seg="s1", offset=2.0, radius=0.0)
    sim = Simulation(net, sched, [halt], cfg=SimConfig(**NO_NOISE))
    place(sim, 1, seg=1, pos=2.0, speed=0.0)
    place(sim, 0, seg=0, pos=199.0, speed=0.0)
    st = sim.state
    report = AuditReport()
    for _ in range(halt.end - 1):
        sim.step(report)
        assert st.halted_by[1] == halt.id
        assert list(st.queues[0]) == [0] and list(st.queues[1]) == [1]
        assert not st.queues[2]
        assert st.queue_of[0] == 0 and st.cur_seg[0] == 0
        assert st.pos[0] == 199.0 and st.speed[0] == 0.0
    assert report.ok, report.violations[:5]


def test_audit_flags_queue_membership():
    net = make_line_net()
    sim = Simulation(net, one_spawn(0, "a0", "a3", 100),
                     cfg=SimConfig(**NO_NOISE))
    report = AuditReport()
    for _ in range(3):
        sim.step(report)
    assert report.ok
    st = sim.state
    assert list(st.queues[0]) == [0]

    st.queue_of[0] = 2  # listed in queue 0, claims the queue of s2
    sim.step(report)
    assert [(k, d) for _t, k, d in report.violations] == [
        ("queue-membership",
         "vehicle 0 in queue 0 has queue_of 2, cur_seg 0")]

    st.queue_of[0] = 0
    st.cur_seg[0] = 1  # right queue, segment of another one
    wrong_seg = AuditReport()
    sim._audit_step(st.time, wrong_seg)
    assert [(k, d) for _t, k, d in wrong_seg.violations] == [
        ("queue-membership",
         "vehicle 0 in queue 0 has queue_of 0, cur_seg 1")]


def test_oversaturated_entry_defers_spawns():
    net = make_line_net()
    # two vehicles per second into a single-lane entry cannot all fit
    events = tuple(SpawnEvent(float(t // 2), "a0", "a3") for t in range(600))
    res = run(net, SpawnSchedule(events, 300.0), cfg=SimConfig(**NO_NOISE),
              audit=True)
    assert res.audit.ok, res.audit.violations[:5]
    assert res.deferred_at_end > 0
    assert res.spawned + res.deferred_at_end == 600


def test_open_line_clears_given_slack():
    net = make_line_net()
    events = tuple(SpawnEvent(float(12 * i), "a0", "a3") for i in range(10))
    res = run(net, SpawnSchedule(events, 400.0), cfg=SimConfig(seed=2),
              audit=True)
    assert res.audit.ok
    assert res.spawned == 10 and res.arrived == 10
    assert res.deferred_at_end == 0


# -- incidents -------------------------------------------------------------------


def stall(onset, duration, seg, offset, radius):
    return IncidentSpec(0, IncidentType.STALLED_VEHICLE, SeverityClass.MINOR,
                        onset, duration, seg, offset, 1, radius)


def test_designated_vehicle_halts_and_resumes():
    net = make_line_net()
    spec = stall(onset=25, duration=40, seg="s1", offset=100.0, radius=50.0)
    res, trace = traced_run(net, one_spawn(0, "a0", "a3", 200),
                            incident_plan=[spec], cfg=SimConfig(**NO_NOISE),
                            audit=True)
    assert res.audit.ok
    assert res.arrived == 1
    tr = linear_trace(trace, 0, 200.0)

    # full stop through the incident window, frozen in place
    frozen = [tr[t] for t in range(30, spec.end)]
    assert all(v == 0.0 for _lin, v in frozen)
    assert len({lin for lin, _v in frozen}) == 1
    # moving again shortly after release, and still finishing the route
    assert tr[spec.end + 3][1] > 0.0
    slower = max(tr)  # last step the vehicle is active
    _, no_incident = traced_run(net, one_spawn(0, "a0", "a3", 200),
                                cfg=SimConfig(**NO_NOISE))
    assert slower > max(linear_trace(no_incident, 0, 200.0))


def test_phantom_incident_caps_zone_speed():
    net = make_line_net()
    # nobody is on s1 at onset, so nothing halts; the zone spans all of s1
    spec = stall(onset=10, duration=80, seg="s1", offset=100.0, radius=100.0)
    cfg = IncidentPlanConfig(slowdown_factor=0.3)
    res, trace = traced_run(net, one_spawn(0, "a0", "a3", 200),
                            incident_plan=[spec], cfg=SimConfig(**NO_NOISE),
                            incident_cfg=cfg, audit=True)
    assert res.audit.ok
    assert res.arrived == 1
    cap = 0.3 * 10.0

    free_speeds = []
    zone_speeds = []
    for t, slots, segs, pos, speed in trace:
        if not slots.size:
            continue
        seg = sorted(net.segments)[segs[0]] if segs[0] >= 0 else None
        if seg == "s0" and t < spec.onset:
            free_speeds.append(speed[0])
        # allow two deceleration steps after entering the capped segment
        if seg == "s1" and spec.onset < t < spec.end and speed[0] <= 10.0:
            zone_speeds.append((t, float(speed[0])))
    assert max(free_speeds) == 10.0
    settled = [v for t, v in zone_speeds if t >= zone_speeds[0][0] + 2]
    assert settled and max(settled) <= cap + 1e-9

    _, twin = traced_run(net, one_spawn(0, "a0", "a3", 200),
                         cfg=SimConfig(**NO_NOISE))
    assert (max(linear_trace(trace, 0, 200.0))
            > max(linear_trace(twin, 0, 200.0)))


def test_incident_plan_validation():
    net = make_line_net()
    with pytest.raises(SimError, match="past the horizon"):
        run(net, one_spawn(0, "a0", "a3", 100),
            incident_plan=[stall(50, 100, "s1", 10.0, 50.0)])
    with pytest.raises(SimError, match="unknown segment"):
        run(net, one_spawn(0, "a0", "a3", 100),
            incident_plan=[stall(10, 20, "s9", 10.0, 50.0)])


# -- tables ----------------------------------------------------------------------


def loop_greens_at(net, seg_index, t):
    """Reference: the per-second signal lookup the table replaces."""
    mask = np.ones(len(seg_index), dtype=bool)
    for plan in net.signal_plans.values():
        for phase in plan:
            for sid in phase.permitted:
                mask[seg_index[sid]] = False
    for nid in sorted(net.signal_plans):
        plan = net.signal_plans[nid]
        starts = np.cumsum([0.0] + [p.duration for p in plan])
        idx = int(np.searchsorted(starts[1:-1], t % float(starts[-1]),
                                  side="right"))
        for sid in plan[idx].permitted:
            mask[seg_index[sid]] = True
    return mask


def loop_observe(rig, state, t):
    """Reference: capture through slots_on_segment, one vehicle at a
    time."""
    net = rig.network
    readings = []
    for sid in rig.sensor_ids:
        seen = []
        watch = ([(s, True) for s in net.incoming(sid)]
                 + [(s, False) for s in net.outgoing(sid)])
        for seg_id, approaching in watch:
            seg_len = net.segments[seg_id].length
            for slot in state.slots_on_segment(seg_id):
                pos = state.pos[slot]
                dist = seg_len - pos if approaching else pos
                if dist <= rig.range_m:
                    seen.append(slot)
        seen.sort()
        count = len(seen)
        mean_speed = (float(np.mean(np.asarray(state.speed)[seen])) if seen
                      else 0.0)
        occupancy = count * state.cfg.vehicle_length / rig.monitored[sid]
        readings.append(SensorReading(sid, int(t), tuple(seen), count,
                                      mean_speed, occupancy))
    return readings


def loop_apply_effects(state, specs, cfg, seg_ids):
    """Reference: zones recomputed for every incident on every call, then
    one pass over every active vehicle, found by its cur_seg; returns the
    caps of the capped slots by slot."""
    net = state.network
    caps = {}
    zone_map = {}
    for spec in specs:
        for sid, lo, hi in compute_impact_zones(net, spec):
            cap = cfg.slowdown_factor * net.segments[sid].speed_limit
            zone_map.setdefault(sid, []).append((lo, hi, cap))
    active_ids = {spec.id for spec in specs}
    for slot in (s for q in state.queues for s in q):
        if state.halted_by[slot] in active_ids:
            caps[slot] = 0.0
            continue
        pos = state.pos[slot]
        for lo, hi, cap in zone_map.get(seg_ids[state.cur_seg[slot]], ()):
            if lo <= pos <= hi and cap < caps.get(slot, math.inf):
                caps[slot] = cap
    return caps


def cap_bits(caps):
    """A caps dict as sorted (slot, exact bits) pairs; float.hex rejects
    a cap that is not a float and tells -0.0 from 0.0."""
    return sorted((slot, float.hex(cap)) for slot, cap in caps.items())


def lane_table_caps(sim, lanes):
    """Each queued vehicle's cap as the kernel's lane rows give it, by
    slot, a vehicle without a cap absent: 0.0 when halted, the lane's cap
    inside one of its zones, and the lane's limit where a zone over the
    whole segment brought it below the segment's limit."""
    st, tb = sim.state, sim.tables
    caps = {}
    for q, _fr, _vl, lim, cap, zones in lanes:
        for slot in q:
            p = st.pos[slot]
            if st.halted_by[slot] >= 0:
                caps[slot] = 0.0
            elif any(lo <= p <= hi for lo, hi in zones):
                caps[slot] = cap
            elif lim != tb.limit[st.cur_seg[slot]]:
                caps[slot] = lim
    return caps


def check_lane_caps(monkeypatch, sim, icfg):
    """Make every kernel call of `sim` first check the cap its lane rows
    give each queued vehicle, on the pre-step state, against
    loop_apply_effects; returns the counters it fills: calls, capped and
    halted vehicle-seconds, and whole-lane caps (folded into a limit)."""
    seen = {"calls": 0, "capped": 0, "halted": 0, "folded": 0}
    move = kernels.follow_speeds

    def checked(noise, lanes, *args):
        st = sim.state
        got = lane_table_caps(sim, lanes)
        want = loop_apply_effects(st, [a.spec for a in st.active_incidents],
                                  icfg, sim.tables.seg_ids)
        assert cap_bits(got) == cap_bits(want), st.time
        seen["calls"] += 1
        seen["capped"] += sum(cap > 0 for cap in want.values())
        seen["halted"] += sum(cap == 0.0 for cap in want.values())
        seen["folded"] += sum(len(lane[0]) for lane in lanes
                              if lane[3] != sim.tables.limit[
                                  st.cur_seg[lane[0][0]]])
        return move(noise, lanes, *args)

    monkeypatch.setattr(kernels, "follow_speeds", checked)
    return seen


def change_seconds(plan, horizon):
    """The seconds on which the active incident set changes: every onset
    and every end inside the horizon."""
    return ({s.onset for s in plan}
            | {s.end for s in plan if s.end < horizon})


def test_signal_table_matches_per_second_lookup(grid_net):
    # non-integer durations: phase edges fall between whole seconds
    line = make_signal_line_net(green_s=17.3, red_s=12.9)
    for net, horizon in ((line, 700), (grid_net, 2000)):
        sim = Simulation(net, SpawnSchedule((), float(horizon)))
        tb = sim.tables
        assert len(tb.green_masks) > 1
        for t in range(horizon):
            assert np.array_equal(tb.greens_at(t),
                                  loop_greens_at(net, tb.seg_index, t)), t


def test_zone_caps_include_interval_edges():
    net = make_line_net()  # s0 -> s1 -> s2, limit 10
    spec = stall(onset=0, duration=50, seg="s1", offset=100.0, radius=40.0)
    icfg = IncidentPlanConfig(slowdown_factor=0.5)
    sched = SpawnSchedule(tuple(SpawnEvent(0.0, "a0", "a3")
                                for _ in range(5)), 60.0)
    sim = Simulation(net, sched, [spec], incident_cfg=icfg)
    for slot, pos in enumerate((150.0, 140.0, 100.0, 60.0, 50.0)):
        place(sim, slot, seg=1, pos=pos, speed=5.0)
    st = sim.state
    active = [activate(st, spec)]
    assert active[0].halted == [2] and st.halted_by == [-1, -1, 0, -1, -1]
    # one row per zone interval
    assert active[0].zone == (("s1", 60.0, 140.0),)
    # one row per lane queue (s0, s1, s2): s1's limit, cap and interval
    rows = apply_effects(st, active, icfg.slowdown_factor)
    assert rows == [(10.0, math.inf, ()), (10.0, 5.0, ((60.0, 140.0),)),
                    (10.0, math.inf, ())]
    lanes = [(q, 0.0, 0.0) + row for q, row in zip(st.queues, rows) if q]
    caps = lane_table_caps(sim, lanes)
    # both interval ends are inside; the designated vehicle stops
    assert caps == {1: 5.0, 2: 0.0, 3: 5.0}
    assert cap_bits(caps) == cap_bits(loop_apply_effects(
        st, [spec], icfg, sim.tables.seg_ids))


def test_capture_and_caps_match_per_second_loops(grid_net, monkeypatch):
    sites = tuple(sorted(n for n, node in grid_net.nodes.items()
                         if node.sensor_site))
    assert len(sites) == 16
    busy = FlowModelParams(a1=0.0, b1=1.0, c1=0.0, a2=0.0, b2=2.0, c2=0.0,
                           d=20.0, alpha_sigma=0.0)
    sched = spawn_schedule(busy, grid_net, 1500.0, seed=4,
                           bin_duration=100.0)
    icfg = IncidentPlanConfig(p_incident=0.03, p_severe=0.5,
                              minor_duration_s=(200.0, 400.0),
                              severe_duration_s=(400.0, 800.0),
                              base_radius_m=150.0, slowdown_factor=0.2)
    plan = plan_incidents(sched, icfg, grid_net, seed=4)
    assert len(plan) >= 3
    sim = Simulation(grid_net, sched, plan, SensorPlacement(sites, 60.0),
                     SimConfig(seed=4), icfg)

    seen = check_lane_caps(monkeypatch, sim, icfg)
    resolved = []

    def counted_apply_effects(state, active, slowdown):
        resolved.append(state.time)
        return apply_effects(state, active, slowdown)

    monkeypatch.setattr(microsim, "apply_effects", counted_apply_effects)
    sightings = 0
    for t in range(sim.horizon):
        sim.step()
        got = sim.rig.observe(sim.state, t)
        assert got == loop_observe(sim.rig, sim.state, t), t
        sightings += sum(r.count for r in got)
    # the lane caps are resolved once per change of the active set, and
    # every second checks them
    assert resolved == sorted(change_seconds(plan, sim.horizon))
    assert seen["calls"] > 1000
    assert seen["capped"] > 100 and seen["halted"] > 100
    assert sightings > 1000


def test_run_builds_its_table_without_observe_or_add_step(grid_net,
                                                         monkeypatch):
    # run writes the raw columns through SensorRig.capture alone; its table
    # equals one stacked from the per-second reference readings
    sites = tuple(sorted(n for n, node in grid_net.nodes.items()
                         if node.sensor_site))
    assert len(sites) == 16
    busy = FlowModelParams(a1=0.0, b1=1.0, c1=0.0, a2=0.0, b2=2.0, c2=0.0,
                           d=20.0, alpha_sigma=0.0)
    sched = spawn_schedule(busy, grid_net, 900.0, seed=5,
                           bin_duration=100.0)
    icfg = IncidentPlanConfig(p_incident=0.03, p_severe=0.5,
                              minor_duration_s=(200.0, 400.0),
                              severe_duration_s=(400.0, 600.0),
                              base_radius_m=150.0, slowdown_factor=0.2)
    plan = plan_incidents(sched, icfg, grid_net, seed=5)
    assert plan
    placement = SensorPlacement(sites, 60.0)
    cfg = SimConfig(seed=5)
    sim = Simulation(grid_net, sched, plan, placement, cfg, icfg)
    count, speed, occupancy, ids = [], [], [], []
    for t in range(sim.horizon):
        sim.step()
        for r in loop_observe(sim.rig, sim.state, t):
            count.append(r.count)
            speed.append(r.mean_speed)
            occupancy.append(r.occupancy)
            ids.append(r.vehicle_ids)
    want = RawDataset(sim.horizon, sites, np.asarray(count, dtype=np.int32),
                      np.asarray(speed), np.asarray(occupancy), ids)

    def refuse(*args, **kwargs):
        raise AssertionError("run went through the per-reading path")

    monkeypatch.setattr(SensorRig, "observe", refuse)
    monkeypatch.setattr(RawDatasetBuilder, "add_step", refuse)
    raw = run(grid_net, sched, plan, placement, cfg, icfg).raw
    assert raw.data_equal(want)
    assert sum(count) > 500


def test_capture_when_both_end_sensors_see_one_vehicle():
    net = make_line_net()  # a0 -s0-> a1 -s1-> a2 -s2-> a3, 200 m each
    sched = SpawnSchedule(tuple(SpawnEvent(0.0, "a0", "a3")
                                for _ in range(3)), 60.0)
    # a range of half a segment: s1's midpoint is in range of both ends
    sim = Simulation(net, sched, placement=SensorPlacement(("a1", "a2"),
                                                           100.0))
    rig, st = sim.rig, sim.state
    # each watched segment once: (id, length, approached, departed column)
    assert rig.plan == (("s0", 200.0, 0, None), ("s1", 200.0, 1, 0),
                        ("s2", 200.0, None, 1))
    empty = RawDatasetBuilder(rig.sensor_ids)
    rig.capture(st, empty)
    rig.finish(empty, st.cfg.vehicle_length)
    raw = empty.build(1)
    assert list(zip(raw.count.tolist(), raw.mean_speed.tolist(),
                    raw.occupancy.tolist(),
                    raw.vehicle_ids)) == [(0, 0.0, 0.0, ())] * 2
    assert rig.observe(st, 0) == loop_observe(rig, st, 0)

    place(sim, 0, seg=1, pos=100.0, speed=4.0)  # 100 m from a1 and a2
    place(sim, 1, seg=0, pos=110.0, speed=6.0)  # 90 m before a1
    place(sim, 2, seg=2, pos=100.0, speed=3.0)  # 100 m past a2
    got = rig.observe(st, 5)
    assert got == loop_observe(rig, st, 5)
    assert [r.vehicle_ids for r in got] == [(0, 1), (0, 2)]
    assert [r.mean_speed for r in got] == [5.0, 3.5]


# -- step --------------------------------------------------------------------------


def vector_best_entry_queue(sim, seg_idx):
    """Reference: the lane with the most entry space, read from the state
    arrays one numpy scalar at a time."""
    tb, st = sim.tables, sim.state
    base = tb.queue_base[seg_idx]
    best_q, best_space = -1, -np.inf
    for lane in range(tb.lanes[seg_idx]):
        q = st.queues[base + lane]
        space = (tb.length[seg_idx] if not q
                 else st.pos[q[-1]] - sim.cfg.vehicle_length)
        if space > best_space:
            best_q, best_space = base + lane, space
    return best_q, best_space


def vector_insert_spawns(sim):
    st = sim.state
    while (sim._next_event < sim.capacity
           and sim.events[sim._next_event].time < st.time + microsim.DT):
        st.pending[sim.events[sim._next_event].entry].append(sim._next_event)
        sim._next_event += 1
        st.due += 1
    vlen = sim.cfg.vehicle_length
    for entry in sim.network.entry_nodes:
        queue = st.pending[entry]
        while queue:
            slot = queue[0]
            first_seg = sim.routes[slot][0]
            qi, space = vector_best_entry_queue(sim, first_seg)
            if space < vlen + sim.cfg.min_gap:
                break
            queue.popleft()
            st.pos[slot] = vlen
            st.speed[slot] = 0.0
            st.cur_seg[slot] = first_seg
            st.route_step[slot] = 0
            st.queue_of[slot] = qi
            st.queues[qi].append(slot)
            st.spawned += 1


def vector_head_lookahead(sim, slot, greens):
    tb, st, cfg = sim.tables, sim.state, sim.cfg
    v_next = st.speed[slot] + cfg.accel * microsim.DT
    need = v_next * microsim.DT + (v_next * v_next) / (2.0 * cfg.decel) \
        + cfg.min_gap + 1.0
    seg = st.cur_seg[slot]
    route = sim.routes[slot]
    step = st.route_step[slot]
    dist = tb.length[seg] - st.pos[slot]
    while True:
        if dist >= need or not greens[seg]:
            return dist, 0.0
        if step + 1 >= len(route):
            return np.inf, 0.0
        nxt = route[step + 1]
        q = st.queues[vector_best_entry_queue(sim, nxt)[0]]
        if q:
            tail = q[-1]
            return (dist + st.pos[tail] - cfg.vehicle_length - cfg.min_gap,
                    st.speed[tail])
        dist += tb.length[nxt]
        seg = nxt
        step += 1


def vector_advance_head(sim, qi, slot, greens, audit):
    tb, st = sim.tables, sim.state
    seg = st.cur_seg[slot]
    hpos = st.pos[slot]
    route = sim.routes[slot]
    while hpos > tb.length[seg]:
        step = st.route_step[slot]
        if step + 1 >= len(route):
            st.queues[qi].popleft()
            st.queue_of[slot] = -1
            st.cur_seg[slot] = -1
            st.pos[slot] = 0.0
            st.arrived += 1
            return
        if not greens[seg]:
            audit.flag(st.time, "red-cross-attempt", f"vehicle {slot}")
            hpos = tb.length[seg]
            break
        nxt = route[step + 1]
        tqi, space = vector_best_entry_queue(sim, nxt)
        entry_cap = (tb.length[nxt] if not st.queues[tqi]
                     else space - sim.cfg.min_gap)
        over = hpos - tb.length[seg]
        if entry_cap < 0.0:
            hpos = tb.length[seg]
            break
        st.queues[qi].popleft()
        st.queues[tqi].append(slot)
        st.queue_of[slot] = tqi
        st.cur_seg[slot] = nxt
        st.route_step[slot] = step + 1
        hpos = min(over, entry_cap)
        seg = nxt
        qi = tqi
        if hpos < over:
            break
    st.pos[slot] = hpos


def vector_step(sim, audit):
    """Reference: the step as it was before the per-queue walk.  Vehicles
    are listed in canonical order with order/leader lists, gathered into
    arrays, moved by the vectorized speed rule and scattered back; caps
    come from loop_apply_effects."""
    st, tb, cfg = sim.state, sim.tables, sim.cfg
    dt = microsim.DT
    t = st.time
    while (sim._next_incident < len(sim.incident_plan)
           and sim.incident_plan[sim._next_incident].onset <= t):
        spec = sim.incident_plan[sim._next_incident]
        st.active_incidents.append(activate(st, spec))
        sim._next_incident += 1
    still = []
    for inc in st.active_incidents:
        if inc.spec.end <= t:
            release_vehicles(st, inc)
        else:
            still.append(inc)
    st.active_incidents = still
    vector_insert_spawns(sim)

    greens = tb.greens_at(t)
    caps = {}
    if st.active_incidents:
        caps = loop_apply_effects(st, [a.spec for a in st.active_incidents],
                                  sim.incident_cfg, tb.seg_ids)
    order, leader, head_free, head_lead, snapshots = [], [], [], [], []
    for qi in range(tb.n_queues):
        members = list(st.queues[qi])
        if not members:
            continue
        snapshots.append((qi, members))
        for j, slot in enumerate(members):
            if j == 0:
                fr, vl = vector_head_lookahead(sim, slot, greens)
                leader.append(-1)
                head_free.append(fr)
                head_lead.append(vl)
            else:
                leader.append(len(order) - 1)
                head_free.append(0.0)
                head_lead.append(0.0)
            order.append(slot)
    n = len(order)
    if n:
        order_np = np.asarray(order, dtype=np.intp)
        pos_a = np.asarray(st.pos)[order_np]
        speed_a = np.asarray(st.speed)[order_np]
        limit_a = np.asarray(tb.limit)[np.asarray(st.cur_seg)[order_np]]
        cap_a = np.asarray([caps.get(slot, np.inf) for slot in order])
        noise = sim.rng.random(n) * (cfg.driver_imperfection * cfg.accel
                                     * dt)
        v_new = np.empty(n)
        vector_follow_speeds(
            pos_a, speed_a, np.asarray(leader, dtype=np.int32),
            np.asarray(head_free), np.asarray(head_lead), limit_a, cap_a,
            noise, cfg.accel, cfg.decel, cfg.min_gap, cfg.vehicle_length,
            dt, v_new)
        bad = (v_new < 0) | (v_new > np.minimum(
            limit_a, speed_a + cfg.accel * dt) + 1e-9)
        for i in np.nonzero(bad)[0]:
            audit.flag(t, "speed-bounds", f"vehicle {order[i]} v={v_new[i]}")
        for slot, v, p in zip(order, v_new.tolist(),
                              (pos_a + v_new * dt).tolist()):
            st.speed[slot] = v
            st.pos[slot] = p
        for qi, members in snapshots:
            vector_advance_head(sim, qi, members[0], greens, audit)
    st.time = t + 1
    sim._audit_step(t, audit)


STATE_FIELDS = ("pos", "speed", "cur_seg", "route_step", "queue_of",
                "halted_by")


def assert_steps_match_vector_step(make_sim):
    """Step two identical simulations, one with Simulation.step and one
    with vector_step, both audited, and compare their state bitwise after
    every second."""
    fused, ref = make_sim(), make_sim()
    audits = (AuditReport(), AuditReport())
    moved = halted = 0
    for t in range(fused.horizon):
        fused.step(audits[0])
        vector_step(ref, audits[1])
        a, b = fused.state, ref.state
        for name in STATE_FIELDS:
            got, want = getattr(a, name), getattr(b, name)
            assert got == want, (name, t)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (
                name, t)
        assert [list(q) for q in a.queues] == [list(q) for q in b.queues], t
        assert (a.spawned, a.arrived, a.due) == (b.spawned, b.arrived, b.due)
        moved += a.spawned - a.arrived
        halted += sum(h >= 0 for h in a.halted_by)
    for report in audits:
        assert report.checked_steps == fused.horizon
        assert report.ok, report.violations[:5]
    return fused, moved, halted


def test_step_matches_vector_step_on_grid_with_incidents(grid_net):
    """The seeded 16-sensor grid run of the capture check: busy demand,
    signals, and incidents that halt and cap vehicles."""
    busy = FlowModelParams(a1=0.0, b1=1.0, c1=0.0, a2=0.0, b2=2.0, c2=0.0,
                           d=20.0, alpha_sigma=0.0)
    sched = spawn_schedule(busy, grid_net, 1500.0, seed=4,
                           bin_duration=100.0)
    icfg = IncidentPlanConfig(p_incident=0.03, p_severe=0.5,
                              minor_duration_s=(200.0, 400.0),
                              severe_duration_s=(400.0, 800.0),
                              base_radius_m=150.0, slowdown_factor=0.2)
    plan = plan_incidents(sched, icfg, grid_net, seed=4)
    assert len(plan) >= 3
    sim, moved, halted = assert_steps_match_vector_step(lambda: Simulation(
        grid_net, sched, plan, None, SimConfig(seed=4), icfg))
    assert moved > 20000 and halted > 100 and sim.state.arrived > 100


def test_step_matches_vector_step_on_a_highway_day():
    """One highway8 day of the benchmark's length (5400 s): ramp entries,
    several lanes, incidents, no signals."""
    net = load_network(str(bundled_path("highway8.net")))
    params = FlowModelParams(a1=0.0, b1=1.0, c1=0.0, a2=0.0, b2=2.0, c2=0.0,
                             d=80.0, alpha_sigma=0.0)
    sched = spawn_schedule(params, net, 5400.0, seed=7, bin_duration=300.0)
    icfg = IncidentPlanConfig(p_incident=0.01, p_crash_given_incident=0.3,
                              minor_duration_s=(300.0, 600.0),
                              severe_duration_s=(600.0, 900.0),
                              base_radius_m=150.0, slowdown_factor=0.2)
    plan = plan_incidents(sched, icfg, net, seed=7)
    assert len(plan) >= 5
    sim, moved, halted = assert_steps_match_vector_step(lambda: Simulation(
        net, sched, plan, None, SimConfig(seed=7), icfg))
    assert moved > 100000 and halted > 1000 and sim.state.arrived > 1000


def test_step_matches_vector_step_on_a_line_with_partial_and_whole_zones(
        monkeypatch):
    """Two lanes per segment; two zones that leave a gap on s1, a third
    that covers all of s2 and reaches back onto s1's end; the first
    incident is released partway through.  The two stalls block both of
    s1's lanes, so the crash finds s2 empty and only caps."""
    net = make_line_net(lanes=2)  # s0 -> s1 -> s2, 200 m, limit 10
    icfg = IncidentPlanConfig(slowdown_factor=0.3)
    plan = [IncidentSpec(0, IncidentType.STALLED_VEHICLE,
                         SeverityClass.MINOR, 60, 120, "s1", 50.0, 1, 30.0),
            IncidentSpec(1, IncidentType.STALLED_VEHICLE,
                         SeverityClass.MINOR, 90, 300, "s1", 160.0, 1, 20.0),
            IncidentSpec(2, IncidentType.MULTI_VEHICLE_CRASH,
                         SeverityClass.SEVERE, 100, 280, "s2", 100.0, 2,
                         120.0)]
    sched = SpawnSchedule(tuple(SpawnEvent(float(t), "a0", "a3")
                                for t in range(0, 330, 3)), 420.0)

    def make():
        return Simulation(net, sched, plan, None, SimConfig(seed=3), icfg)

    sim = make()
    seen = check_lane_caps(monkeypatch, sim, icfg)
    free = (10.0, math.inf, ())
    cap = 0.3 * 10.0
    rows_at = {}
    gap = 0
    for t in range(sim.horizon):
        sim.step()
        rows_at[t] = sim.lane_caps
        st = sim.state
        gap += sum(80.0 < st.pos[s] < 140.0 for q in st.queues[2:4]
                   for s in q)
    # queues 0-1 on s0, 2-3 on s1, 4-5 on s2; [180, 200] on s1 touches
    # the second zone and merges with it
    assert rows_at[59] == [free] * 6
    assert rows_at[150] == ([free] * 2
                            + [(10.0, cap, ((20.0, 80.0), (140.0, 200.0)))] * 2
                            + [(cap, cap, ())] * 2)
    assert rows_at[180][2:4] == [(10.0, cap, ((140.0, 200.0),))] * 2
    assert rows_at[390] == [free] * 6
    assert seen["capped"] > 500 and seen["halted"] > 200
    assert seen["folded"] > 100 and gap > 100

    monkeypatch.undo()
    fused, moved, halted = assert_steps_match_vector_step(make)
    assert moved > 2000 and halted > 200 and fused.state.arrived > 50


def head_is_far(sim, slot):
    """The lookahead's far test on the current state: the head is at least
    one step's move plus its braking distance, min_gap and 1 m short of
    its segment end."""
    st, cfg = sim.state, sim.cfg
    v_next = st.speed[slot] + cfg.accel * microsim.DT
    need = v_next * microsim.DT + (v_next * v_next) / (2.0 * cfg.decel) \
        + cfg.min_gap + 1.0
    return sim.tables.length[st.cur_seg[slot]] - st.pos[slot] >= need


def test_far_heads_skip_the_lookahead_and_the_crossing(grid_net):
    """On an audited grid run with incidents, only heads that fail the far
    test on the state the queue walk reads (after spawning) take the
    lookahead or reach _advance_head; every head that skips them ends its
    second on its segment, inside it."""
    busy = FlowModelParams(a1=0.0, b1=1.0, c1=0.0, a2=0.0, b2=2.0, c2=0.0,
                           d=20.0, alpha_sigma=0.0)
    sched = spawn_schedule(busy, grid_net, 3600.0, seed=4,
                           bin_duration=100.0)
    icfg = IncidentPlanConfig(p_incident=0.03, p_severe=0.5,
                              minor_duration_s=(200.0, 400.0),
                              severe_duration_s=(400.0, 800.0),
                              base_radius_m=150.0, slowdown_factor=0.2)
    plan = plan_incidents(sched, icfg, grid_net, seed=4)
    assert len(plan) >= 3
    sim = Simulation(grid_net, sched, plan, None, SimConfig(seed=4), icfg)
    st, tb = sim.state, sim.tables
    far, near, looked, advanced = {}, set(), [], []
    insert, lookahead, advance = (sim._insert_spawns, sim._head_lookahead,
                                  sim._advance_head)

    def classify_after_spawns():
        insert()
        far.clear()
        near.clear()
        for q in st.queues:
            if q:
                if head_is_far(sim, q[0]):
                    far[q[0]] = st.cur_seg[q[0]]
                else:
                    near.add(q[0])

    def counted_lookahead(slot, *args):
        looked.append(slot)
        return lookahead(slot, *args)

    def counted_advance(qi, slot, *args):
        advanced.append(slot)
        return advance(qi, slot, *args)

    sim._insert_spawns = classify_after_spawns
    sim._head_lookahead = counted_lookahead
    sim._advance_head = counted_advance
    report = AuditReport()
    far_seconds = head_seconds = crossings = 0
    for _ in range(sim.horizon):
        looked.clear()
        advanced.clear()
        sim.step(report)
        assert sorted(looked) == sorted(near), st.time
        assert set(advanced) <= near, st.time
        for slot, seg in far.items():
            assert st.cur_seg[slot] == seg, (st.time, slot)
            assert st.pos[slot] <= tb.length[seg], (st.time, slot)
        far_seconds += len(far)
        head_seconds += len(far) + len(near)
        crossings += len(advanced)
    assert report.ok, report.violations[:5]
    assert far_seconds > head_seconds / 2
    assert crossings > 1000 and st.arrived > 100


def test_step_matches_vector_step_with_a_spawn_backlog():
    """The oversaturated single-lane entry of
    test_oversaturated_entry_defers_spawns: a backlog on every second
    after the first, so every step walks the entry."""
    net = make_line_net()
    events = tuple(SpawnEvent(float(t // 2), "a0", "a3") for t in range(600))
    sched = SpawnSchedule(events, 300.0)
    sims, backlog = [], []

    def make():
        sim = Simulation(net, sched, cfg=SimConfig(**NO_NOISE))
        if not sims:
            insert = sim._insert_spawns

            def recorded():
                insert()
                backlog.append(sim.state.due - sim.state.spawned)

            sim._insert_spawns = recorded
        sims.append(sim)
        return sim

    fused, moved, _halted = assert_steps_match_vector_step(make)
    assert len(backlog) == fused.horizon and max(backlog) > 0
    assert fused.state.deferred_count == sims[1].state.deferred_count > 0
    assert moved > 1000


def test_step_matches_vector_step_on_incident_change_seconds(monkeypatch):
    """Incidents start at t = 0, one ends on the second another starts and
    one ends at the horizon (never released): the activation and release
    block does its work on the change seconds alone."""
    net = make_line_net(lanes=2)  # s0 -> s1 -> s2, 200 m, limit 10
    icfg = IncidentPlanConfig(slowdown_factor=0.3)
    horizon = 420
    plan = [IncidentSpec(0, IncidentType.STALLED_VEHICLE,
                         SeverityClass.MINOR, 0, 100, "s1", 50.0, 1, 30.0),
            IncidentSpec(1, IncidentType.STALLED_VEHICLE,
                         SeverityClass.MINOR, 100, 150, "s1", 160.0, 1, 20.0),
            IncidentSpec(2, IncidentType.MULTI_VEHICLE_CRASH,
                         SeverityClass.SEVERE, 180, horizon - 180, "s2",
                         100.0, 2, 60.0)]
    sched = SpawnSchedule(tuple(SpawnEvent(float(t), "a0", "a3")
                                for t in range(0, 330, 3)), float(horizon))
    calls = []

    def wrap(name, fn):
        def recorded(state, *args):
            calls.append((state.time, name))
            return fn(state, *args)
        return recorded

    for name in ("activate", "release_vehicles", "apply_effects"):
        monkeypatch.setattr(microsim, name, wrap(name, getattr(microsim,
                                                               name)))

    fused, moved, halted = assert_steps_match_vector_step(
        lambda: Simulation(net, sched, plan, None, SimConfig(seed=3), icfg))
    changes = change_seconds(plan, horizon)
    assert changes == {0, 100, 180, 250}
    # two simulations were built, each resolving the empty set once
    assert [c for c in calls if c[1] == "apply_effects"][:2] == [
        (0, "apply_effects")] * 2
    calls = calls[2:]
    assert {t for t, _name in calls} == changes
    assert sorted(t for t, name in calls if name == "activate") == [
        s.onset for s in plan]
    assert sorted(t for t, name in calls if name == "release_vehicles") == [
        100, 250]
    assert sorted(t for t, name in calls if name == "apply_effects") == (
        sorted(changes))
    assert halted > 100 and moved > 2000 and fused.state.arrived > 20


INCIDENT_PATTERNS = ("none", "onset_at_zero", "back_to_back", "same_onset",
                     "end_at_horizon", "three_random")


def generated_incident(rng, iid, net, onset, duration, point=None):
    """A stall or a crash at `point` (segment id, offset), by default a
    random point of a random segment, whose zone covers that whole segment
    or a part of it."""
    sid, offset = point or (
        sorted(net.segments)[rng.integers(len(net.segments))], None)
    seg = net.segments[sid]
    if offset is None:
        offset = float(rng.uniform(0.0, seg.length))
    if rng.random() < 0.5:  # reaches past both ends of its segment
        radius = max(offset, seg.length - offset) + float(rng.uniform(0, 80))
    else:
        radius = float(rng.uniform(5.0, 60.0))
    n = int(rng.integers(1, 4))
    itype = (IncidentType.STALLED_VEHICLE if n == 1
             else IncidentType.MULTI_VEHICLE_CRASH)
    return IncidentSpec(iid, itype, SeverityClass.MINOR, int(onset),
                        int(duration), seg.id, offset, n, radius)


def generated_scenario(rng, pattern, signals, saturated):
    """(network, schedule, plan) of one small seeded scenario: the
    signalized line or a line of 2-4 segments with 1-3 lanes; a spawn
    every second at one entry, or a few spread over the first half of
    the horizon at every entry; incidents of the given pattern, each on a
    random segment except the second of a back-to-back pair."""
    net = (make_signal_line_net() if signals else make_line_net(
        int(rng.integers(2, 5)), lanes=int(rng.integers(1, 4))))
    horizon = int(rng.integers(120, 200))
    exit_ = net.exit_nodes[0]
    if saturated:
        events = [SpawnEvent(float(t), net.entry_nodes[0], exit_)
                  for t in range(horizon)]
    else:
        events = sorted(
            (SpawnEvent(float(rng.uniform(0, horizon / 2)), entry, exit_)
             for entry in net.entry_nodes
             for _ in range(int(rng.integers(5, 20)))),
            key=lambda ev: ev.time)
    sched = SpawnSchedule(tuple(events), float(horizon))

    def span(lo, hi):  # an onset in [lo, hi) and a duration that fits
        onset = int(rng.integers(lo, hi))
        return onset, int(rng.integers(1, horizon - onset + 1))

    if pattern == "none":
        windows = []
    elif pattern == "onset_at_zero":
        windows = [(0, int(rng.integers(10, horizon // 2)))]
    elif pattern == "back_to_back":
        first = (int(rng.integers(horizon // 4, horizon // 2)),
                 int(rng.integers(1, horizon // 4)))
        end = sum(first)
        windows = [first, (end, int(rng.integers(1, horizon - end)))]
    elif pattern == "same_onset":
        onset = int(rng.integers(0, horizon // 2))
        windows = [(onset, int(rng.integers(1, horizon - onset)))
                   for _ in range(2)]
    elif pattern == "end_at_horizon":
        onset = int(rng.integers(0, horizon - 30))
        windows = [span(0, horizon // 2), (onset, horizon - onset)]
    else:
        windows = [span(0, horizon - 1) for _ in range(3)]
    plan = []
    for i, (onset, duration) in enumerate(windows):
        # back to back on the same point: the second incident's nearest
        # vehicle is the one the first still halts
        point = ((plan[0].segment_id, plan[0].offset)
                 if pattern == "back_to_back" and i else None)
        plan.append(generated_incident(rng, i, net, onset, duration, point))
    return net, sched, plan


def test_step_matches_vector_step_on_generated_scenarios(monkeypatch):
    """24 seeded small scenarios, each incident pattern on the signalized
    line and on three random lines, one in four with an oversaturated
    entry: the step matches vector_step, and apply_effects runs on the
    change seconds alone."""
    rng = np.random.default_rng(2024)
    resolved = []

    def recorded(state, active, slowdown):
        rows = apply_effects(state, active, slowdown)
        resolved.append((state.time, rows))
        return rows

    monkeypatch.setattr(microsim, "apply_effects", recorded)
    rows_seen, halted_total, backlog = [], 0, 0
    for i in range(24):
        net, sched, plan = generated_scenario(
            rng, INCIDENT_PATTERNS[i % 6], signals=i < 6,
            saturated=i % 4 == 0)

        def make():
            sim = Simulation(net, sched, plan, None, SimConfig(seed=i),
                             IncidentPlanConfig(slowdown_factor=0.3))
            resolved.clear()  # the resolve of the empty set on building
            return sim

        fused, _moved, halted = assert_steps_match_vector_step(make)
        assert [t for t, _rows in resolved] == sorted(
            change_seconds(plan, fused.horizon)), i
        rows_seen += [row for _t, rows in resolved for row in rows]
        halted_total += halted
        backlog += fused.state.deferred_count
    # whole-segment caps folded into the limit, partly zoned lanes, halted
    # vehicles and a spawn backlog all occur
    assert any(cap != math.inf and lim == cap for lim, cap, _z in rows_seen)
    assert any(zones for _lim, _cap, zones in rows_seen)
    assert halted_total > 100 and backlog > 0
