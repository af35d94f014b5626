"""Microscopic simulation tests.

Index:
  config       parameter validation
  trajectory   free-run motion against a closed-form oracle
  signals      red-line holds and per-phase release
  bookkeeping  determinism, conservation, spawn backpressure, audits
  incidents    designated halts and impact-zone speed caps in motion
"""
import math

import numpy as np
import pytest

from trafficlab.demand import SpawnEvent, SpawnSchedule, spawn_schedule
from trafficlab.incidents import (IncidentSpec, IncidentType,
                                  SeverityClass, IncidentPlanConfig)
from trafficlab.microsim import RunResult, SimConfig, SimError, run
from trafficlab.roadnet import SensorPlacement

from conftest import make_line_net, make_signal_line_net

NO_NOISE = dict(driver_imperfection=0.0)


def one_spawn(t, entry, exit_, horizon):
    return SpawnSchedule((SpawnEvent(float(t), entry, exit_),),
                         float(horizon))


def linear_trace(result: RunResult, slot: int, seg_length: float):
    """Per-step (linear position, speed) for one vehicle, segment offsets
    unrolled onto the route axis; entries stop at arrival."""
    out = {}
    for t, slots, segs, pos, speed in result.trace:
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
    with pytest.raises(SimError, match="geometry"):
        SimConfig(vehicle_length=0.0)


# -- trajectory ----------------------------------------------------------------


def test_free_run_matches_closed_form_oracle():
    net = make_line_net()  # 3 x 200 m, limit 10
    cfg = SimConfig(**NO_NOISE)
    res = run(net, one_spawn(0, "a0", "a3", 120), cfg=cfg,
              collect_trace=True, audit=True)
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

    got = linear_trace(res, 0, 200.0)
    assert sorted(got) == sorted(want)
    for step, (lin, v) in want.items():
        assert got[step][0] == pytest.approx(lin, abs=1e-9)
        assert got[step][1] == pytest.approx(v, abs=1e-9)


def test_platoon_preserves_spawn_order_and_gaps():
    net = make_line_net()
    events = tuple(SpawnEvent(float(3 * i), "a0", "a3") for i in range(6))
    res = run(net, SpawnSchedule(events, 200.0), cfg=SimConfig(**NO_NOISE),
              collect_trace=True, audit=True)
    assert res.audit.ok
    assert res.arrived == 6
    # single-lane line, no overtaking: within each segment the front-to-back
    # listing must be ascending spawn order with descending positions
    for _t, slots, segs, pos, _speed in res.trace:
        for seg in np.unique(segs):
            member = segs == seg
            assert np.array_equal(slots[member], np.sort(slots[member]))
            assert np.all(np.diff(pos[member]) < 0) or member.sum() == 1


# -- signals -------------------------------------------------------------------


def first_step_on(res: RunResult, slot: int, seg_idx: int):
    for t, slots, segs, _pos, _speed in res.trace:
        where = np.nonzero(slots == slot)[0]
        if where.size and segs[int(where[0])] == seg_idx:
            return t
    return None


def test_vehicle_holds_at_red_then_crosses_on_green():
    net = make_signal_line_net()  # phase 0 greens s0 for 30 s, then x0 for 30
    seg_ids = sorted(net.segments)  # -> ["s0", "s1", "x0"]
    res = run(net, one_spawn(15, "a0", "a2", 150), cfg=SimConfig(**NO_NOISE),
              collect_trace=True, audit=True)
    assert res.audit.ok
    assert res.arrived == 1
    tr = linear_trace(res, 0, 200.0)

    crossed = first_step_on(res, 0, seg_ids.index("s1"))
    assert crossed is not None and crossed >= 60  # red during [30, 60)
    for t in range(45, 60):
        lin, v = tr[t]
        assert v == 0.0
        assert 180.0 <= lin <= 200.0  # parked at the stop line, not past it


def test_cross_street_released_by_its_own_phase():
    net = make_signal_line_net()
    seg_ids = sorted(net.segments)
    res = run(net, one_spawn(0, "b0", "a2", 120), cfg=SimConfig(**NO_NOISE),
              collect_trace=True, audit=True)
    assert res.audit.ok
    crossed = first_step_on(res, 0, seg_ids.index("s1"))
    assert crossed is not None
    assert 30 <= crossed <= 36  # x0 is red until its phase starts at t=30


# -- bookkeeping -----------------------------------------------------------------


def test_run_is_deterministic(flat_params):
    net = make_line_net()
    sched = spawn_schedule(flat_params, net, 600.0, seed=5,
                           bin_duration=100.0)
    placement = SensorPlacement(("a1", "a2"), range_m=60.0)
    kw = dict(placement=placement, cfg=SimConfig(seed=9), collect_trace=True)
    a = run(net, sched, **kw)
    b = run(net, sched, **kw)
    assert a.raw.data_equal(b.raw)
    assert (a.spawned, a.arrived) == (b.spawned, b.arrived)
    for (ta, sa, ga, pa, va), (tb, sb, gb, pb, vb) in zip(a.trace, b.trace):
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
        assert res.spawned == res.arrived + res.active_at_end

    sched = spawn_schedule(flat_params, grid_net, 600.0, seed=1,
                           bin_duration=100.0)
    res = run(grid_net, sched, cfg=SimConfig(seed=1), audit=True)
    assert res.audit.ok, res.audit.violations[:5]
    assert res.spawned == res.arrived + res.active_at_end


def test_oversaturated_entry_defers_spawns():
    net = make_line_net()
    # two vehicles per second into a single-lane entry cannot all fit
    events = tuple(SpawnEvent(float(t // 2), "a0", "a3") for t in range(600))
    res = run(net, SpawnSchedule(events, 300.0), cfg=SimConfig(**NO_NOISE),
              audit=True)
    assert res.audit.ok, res.audit.violations[:5]
    assert res.deferred_at_end > 0
    assert res.spawned == res.arrived + res.active_at_end
    assert res.spawned + res.deferred_at_end == 600


def test_open_line_clears_given_slack():
    net = make_line_net()
    events = tuple(SpawnEvent(float(12 * i), "a0", "a3") for i in range(10))
    res = run(net, SpawnSchedule(events, 400.0), cfg=SimConfig(seed=2),
              audit=True)
    assert res.audit.ok
    assert res.spawned == 10 and res.arrived == 10
    assert res.deferred_at_end == 0 and res.active_at_end == 0


# -- incidents -------------------------------------------------------------------


def stall(onset, duration, seg, offset, radius):
    return IncidentSpec(0, IncidentType.STALLED_VEHICLE, SeverityClass.MINOR,
                        onset, duration, seg, offset, 1, radius)


def test_designated_vehicle_halts_and_resumes():
    net = make_line_net()
    spec = stall(onset=25, duration=40, seg="s1", offset=100.0, radius=50.0)
    res = run(net, one_spawn(0, "a0", "a3", 200), incident_plan=[spec],
              cfg=SimConfig(**NO_NOISE), collect_trace=True, audit=True)
    assert res.audit.ok
    assert res.arrived == 1
    tr = linear_trace(res, 0, 200.0)

    # full stop through the incident window, frozen in place
    frozen = [tr[t] for t in range(30, spec.end)]
    assert all(v == 0.0 for _lin, v in frozen)
    assert len({lin for lin, _v in frozen}) == 1
    # moving again shortly after release, and still finishing the route
    assert tr[spec.end + 3][1] > 0.0
    slower = max(tr)  # last step the vehicle is active
    no_incident = run(net, one_spawn(0, "a0", "a3", 200),
                      cfg=SimConfig(**NO_NOISE), collect_trace=True)
    assert slower > max(linear_trace(no_incident, 0, 200.0))


def test_phantom_incident_caps_zone_speed():
    net = make_line_net()
    # nobody is on s1 at onset, so nothing halts; the zone spans all of s1
    spec = stall(onset=10, duration=80, seg="s1", offset=100.0, radius=100.0)
    cfg = IncidentPlanConfig(slowdown_factor=0.3)
    res = run(net, one_spawn(0, "a0", "a3", 200), incident_plan=[spec],
              cfg=SimConfig(**NO_NOISE), incident_cfg=cfg,
              collect_trace=True, audit=True)
    assert res.audit.ok
    assert res.arrived == 1
    cap = 0.3 * 10.0

    free_speeds = []
    zone_speeds = []
    for t, slots, segs, pos, speed in res.trace:
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

    twin = run(net, one_spawn(0, "a0", "a3", 200),
               cfg=SimConfig(**NO_NOISE), collect_trace=True)
    assert max(linear_trace(res, 0, 200.0)) > max(linear_trace(twin, 0, 200.0))


def test_incident_plan_validation():
    net = make_line_net()
    with pytest.raises(SimError, match="past the horizon"):
        run(net, one_spawn(0, "a0", "a3", 100),
            incident_plan=[stall(50, 100, "s1", 10.0, 50.0)])
    with pytest.raises(SimError, match="unknown segment"):
        run(net, one_spawn(0, "a0", "a3", 100),
            incident_plan=[stall(10, 20, "s9", 10.0, 50.0)])
