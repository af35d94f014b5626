"""Deterministic 1 Hz microscopic traffic simulation.

Safe-speed car-following on a queue-per-lane road network: each second every
vehicle picks the largest speed that (a) respects acceleration and the
segment limit, (b) can still brake behind its leader or a red stop line,
(c) never advances past the remaining free run within one step, and
(d) honors incident caps; minus a seeded uniform imperfection term.  Queue
discipline is strict FIFO per lane with no overtaking; the only cross-lane
choice happens on segment entry (spawn or crossing), which picks the lane
with the most entry space.

Safety argument: a follower's step is capped by its leader's pre-step
position minus vehicle length and min_gap, and leaders only move forward,
so by induction every same-lane pair keeps a gap of at least min_gap at
every step boundary.  Queue heads are capped the same way against the best
target lane's tail (or the stop line), and entry positions are re-clamped
against the live tail position at crossing time, so cross-segment moves
preserve the invariant too.

Vehicle state (per slot) and the network tables are Python lists, read and
written one value at a time.  A step does its bookkeeping only when some is
due.  Incidents start and end on the seconds of one set, the plan's onsets
and ends, built once per run.  On such a second the step activates the
onsets in plan order, releases the ended incidents and resolves the
active zones (`incidents.apply_effects`) to one row per lane queue: its
limit, which is the cap where a zone covers the whole segment, and the
intervals of the zones that cover part of it.  The entry nodes are walked
only while a spawn is pending.  Every head's lookahead is taken first, on
the pre-step state; a head too far from its segment end for anything
beyond it to matter this second takes that distance as its free run, with
no route walk, and cannot cross.  Then `kernels.follow_speeds` moves each
lane queue once, front to back, by one 1 s step, capping each vehicle from
its lane's row, and the heads that may cross do so in queue order.  Driver
noise is one draw per step in that canonical order.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import kernels
from .incidents import (IncidentPlanConfig, activate, apply_effects,
                        release_vehicles)
from .roadnet import RoadNetwork, shortest_route
from .sensors import RawDatasetBuilder, SensorRig


DT = 1.0  # s per step; capture, the model and kernels.follow_speeds are 1 Hz


class SimError(ValueError):
    pass


@dataclass
class SimConfig:
    accel: float = 2.6
    decel: float = 4.5
    driver_imperfection: float = 0.1
    min_gap: float = 2.5
    vehicle_length: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("accel", "decel", "vehicle_length"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN included
                raise SimError(f"{name} must be positive and finite")
        if not 0.0 <= self.min_gap < math.inf:
            raise SimError("min_gap must be non-negative and finite")
        if not 0.0 <= self.driver_imperfection < 1.0:
            raise SimError("driver imperfection must lie in [0, 1)")


@dataclass
class AuditReport:
    checked_steps: int = 0
    violations: list = field(default_factory=list)

    def flag(self, t: int, kind: str, detail: str):
        self.violations.append((t, kind, detail))

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class RunResult:
    raw: object
    incident_log: list
    spawned: int
    arrived: int
    deferred_at_end: int
    audit: AuditReport | None = None


class _NetTables:
    """Per-segment and per-queue tables of the network, held as lists
    because the step reads them one value at a time, with the signal
    state of every second of the horizon precomputed."""

    def __init__(self, net: RoadNetwork, horizon: int):
        self.seg_ids = sorted(net.segments)
        self.seg_index = {sid: i for i, sid in enumerate(self.seg_ids)}
        n = len(self.seg_ids)
        segs = [net.segments[sid] for sid in self.seg_ids]
        self.length = [float(seg.length) for seg in segs]
        self.limit = [float(seg.speed_limit) for seg in segs]
        self.lanes = [seg.lanes for seg in segs]
        # queues are numbered by segment, then lane
        self.queue_base = list(accumulate(self.lanes, initial=0))[:n]
        self.queue_seg = [i for i in range(n) for _ in range(self.lanes[i])]
        self.n_queues = len(self.queue_seg)

        # signal plans resolved to segment indices; segments whose end node
        # has no plan are always permitted
        always_green = np.ones(n, dtype=bool)
        signal_nodes = []
        for nid in sorted(net.signal_plans):
            plan = net.signal_plans[nid]
            starts = np.cumsum([0.0] + [p.duration for p in plan])
            phases = []
            for p in plan:
                idxs = [self.seg_index[s] for s in sorted(p.permitted)]
                phases.append(np.asarray(idxs, dtype=np.int32))
                always_green[idxs] = False
            signal_nodes.append((float(starts[-1]), starts[1:-1], phases))

        # one mask per distinct combination of node phases, and the index of
        # each second's mask; nodes are folded in one at a time
        self.green_index = np.zeros(horizon, dtype=np.intp)
        self.green_masks = [always_green]
        for cycle, bounds, phases in signal_nodes:
            # float t % cycle, as a scalar lookup at time t would compute it
            phase = np.searchsorted(bounds, np.arange(horizon) % cycle,
                                    side="right")
            _, first, index = np.unique(
                self.green_index * len(phases) + phase,
                return_index=True, return_inverse=True)
            masks = []
            for t in first:
                mask = self.green_masks[self.green_index[t]].copy()
                mask[phases[phase[t]]] = True
                masks.append(mask)
            self.green_index, self.green_masks = index.reshape(-1), masks
        self.green_masks = [tuple(mask.tolist()) for mask in self.green_masks]

    def greens_at(self, t: int) -> tuple:
        """Per-segment flags (a tuple of bools) for the segments whose end
        may be crossed in second t (0 <= t < horizon)."""
        return self.green_masks[self.green_index[t]]


class SimState:
    """Mutable per-run state; exposes the read access other modules need."""

    def __init__(self, sim: "Simulation"):
        n = sim.capacity
        self.network = sim.network
        self.cfg = sim.cfg
        self.time = 0
        self.pos = [0.0] * n
        self.speed = [0.0] * n
        self.cur_seg = [-1] * n
        self.route_step = [0] * n
        self.queue_of = [-1] * n
        self.halted_by = [-1] * n
        tb = sim.tables
        self.queues = [deque() for _ in range(tb.n_queues)]
        # the same deques grouped by segment id, in queue order
        self.lane_queues = {
            sid: tuple(self.queues[tb.queue_base[i]:
                                   tb.queue_base[i] + tb.lanes[i]])
            for i, sid in enumerate(tb.seg_ids)}
        self.pending = {e: deque() for e in sim.network.entry_nodes}
        self.due = 0
        self.spawned = 0
        self.arrived = 0
        self.active_incidents: list = []  # incidents.ActiveIncident

    @property
    def deferred_count(self) -> int:
        return sum(len(q) for q in self.pending.values())

    def slots_on_segment(self, segment_id: str) -> list:
        return [slot for q in self.lane_queues[segment_id] for slot in q]


class Simulation:
    def __init__(self, network: RoadNetwork, schedule, incident_plan=None,
                 placement=None, cfg: SimConfig | None = None,
                 incident_cfg: IncidentPlanConfig | None = None):
        self.network = network
        self.cfg = cfg or SimConfig()
        self.incident_cfg = incident_cfg or IncidentPlanConfig()
        self.horizon = int(schedule.horizon)
        self.tables = _NetTables(network, self.horizon)
        self.incident_plan = sorted(incident_plan or [],
                                    key=lambda s: (s.onset, s.id))
        for spec in self.incident_plan:
            if spec.end > self.horizon:
                raise SimError(f"incident {spec.id} runs past the horizon")
            if spec.segment_id not in self.tables.seg_index:
                raise SimError(
                    f"incident {spec.id} on unknown segment "
                    f"{spec.segment_id!r}")
        self.rig = (SensorRig(network, placement)
                    if placement is not None else None)

        self.capacity = len(schedule.events)
        self.events = schedule.events
        # one shared route per OD pair, as segment-index tuples
        route_cache: dict = {}
        self.routes: list = []
        for ev in self.events:
            key = (ev.entry, ev.exit)
            r = route_cache.get(key)
            if r is None:
                seg_route = shortest_route(network, ev.entry, ev.exit)
                if not seg_route:
                    raise SimError(
                        f"degenerate empty route for OD pair {key}")
                r = tuple(self.tables.seg_index[s] for s in seg_route)
                route_cache[key] = r
            self.routes.append(r)

        self.rng = np.random.default_rng(self.cfg.seed)
        self.state = SimState(self)
        # (limit, cap, zones) per lane queue for the active incidents
        self.lane_caps = apply_effects(self.state, (),
                                       self.incident_cfg.slowdown_factor)
        self._next_event = 0
        self._next_incident = 0
        # the seconds on which the active incident set changes
        self._changes = frozenset(
            t for spec in self.incident_plan for t in (spec.onset, spec.end))

    # -- spawn / crossing helpers -------------------------------------------

    def _best_entry_queue(self, seg_idx: int):
        """(queue index, entry space) for the lane with the most room.

        Entry space is measured from the segment start to the tail's rear
        bumper (full length when empty).  Ties go to the lowest lane.
        """
        tb = self.tables
        queues = self.state.queues
        pos = self.state.pos
        base = tb.queue_base[seg_idx]
        best_q, best_space = -1, -math.inf
        for qi in range(base, base + tb.lanes[seg_idx]):
            q = queues[qi]
            space = (tb.length[seg_idx] if not q
                     else pos[q[-1]] - self.cfg.vehicle_length)
            if space > best_space:
                best_q, best_space = qi, space
        return best_q, best_space

    def _insert_spawns(self):
        st = self.state
        t = st.time
        while (self._next_event < self.capacity
               and self.events[self._next_event].time < t + DT):
            ev = self.events[self._next_event]
            st.pending[ev.entry].append(self._next_event)
            self._next_event += 1
            st.due += 1
        if st.due == st.spawned:
            return  # no vehicle waits at any entry
        vlen = float(self.cfg.vehicle_length)
        need = vlen + self.cfg.min_gap
        for entry in self.network.entry_nodes:
            queue = st.pending[entry]
            while queue:
                slot = queue[0]
                first_seg = self.routes[slot][0]
                qi, space = self._best_entry_queue(first_seg)
                if space < need:
                    break  # strict FIFO per entry: head blocked, all wait
                queue.popleft()
                st.pos[slot] = vlen
                st.speed[slot] = 0.0
                st.cur_seg[slot] = first_seg
                st.route_step[slot] = 0
                st.queue_of[slot] = qi
                st.queues[qi].append(slot)
                st.spawned += 1

    def _head_lookahead(self, slot: int, greens: tuple, dist: float,
                        need: float):
        """Free run (m the front may advance) and effective leader speed for
        a queue head ``dist`` m from its segment end, walking its route
        until a blocker or until ``need`` m, beyond which nothing can
        constrain this step's choice (the step has found ``dist < need``)."""
        tb = self.tables
        cfg = self.cfg
        st = self.state
        pos = st.pos
        seg = st.cur_seg[slot]
        route = self.routes[slot]
        step = st.route_step[slot]
        while True:
            if not greens[seg]:
                return dist, 0.0  # red stop line at this segment's end
            if step + 1 >= len(route):
                return math.inf, 0.0  # arrival: nothing beyond the last node
            nxt = route[step + 1]
            qi, space = self._best_entry_queue(nxt)
            q = st.queues[qi]
            if q:
                tail = q[-1]
                return (dist + pos[tail] - cfg.vehicle_length
                        - cfg.min_gap, st.speed[tail])
            dist += tb.length[nxt]
            if dist >= need:
                return dist, 0.0
            seg = nxt
            step += 1

    # -- the step ------------------------------------------------------------

    def step(self, audit: AuditReport | None = None):
        """Advance one DT: incident changes on their seconds, spawning
        while any is pending, one move of every queued vehicle
        (kernels.follow_speeds), segment crossings and arrivals."""
        st = self.state
        tb = self.tables
        cfg = self.cfg
        t = st.time

        # on an onset or end second: activate the onsets in plan order,
        # then release the ended incidents (so no onset designates a
        # vehicle that an incident ending this second still holds), then
        # resolve the lane caps again
        if t in self._changes:
            plan = self.incident_plan
            while (self._next_incident < len(plan)
                   and plan[self._next_incident].onset <= t):
                st.active_incidents.append(
                    activate(st, plan[self._next_incident]))
                self._next_incident += 1
            for inc in st.active_incidents:
                if inc.spec.end <= t:
                    release_vehicles(st, inc)
            st.active_incidents = [inc for inc in st.active_incidents
                                   if inc.spec.end > t]
            self.lane_caps = apply_effects(
                st, st.active_incidents, self.incident_cfg.slowdown_factor)

        self._insert_spawns()

        greens = tb.greens_at(t)

        # canonical order: queues ascending, front to back; every head's
        # lookahead reads the pre-step state, before any vehicle moves.  A
        # head at least `need` m from its segment end is free up to it: no
        # wall beyond can constrain its choice, and its move, at most
        # v + accel*DT, stops min_gap + 1 m short of the end, so it cannot
        # cross this second.
        lanes: list = []  # (queue, head free run, head leader speed,
        #                    limit, cap, zones)
        near: list = []  # (queue index, slot) of heads that may cross
        rows = self.lane_caps
        length = tb.length
        cur_seg = st.cur_seg
        pos = st.pos
        speed = st.speed
        gain = cfg.accel * DT
        two_b = 2.0 * cfg.decel
        min_gap = cfg.min_gap
        n = 0
        for qi, q in enumerate(st.queues):
            if q:
                head = q[0]
                v_next = speed[head] + gain
                need = v_next * DT + (v_next * v_next) / two_b \
                    + min_gap + 1.0
                dist = length[cur_seg[head]] - pos[head]
                if dist >= need:
                    fr, vl = dist, 0.0
                else:
                    fr, vl = self._head_lookahead(head, greens, dist, need)
                    near.append((qi, head))
                lim, cap, zones = rows[qi]
                lanes.append((q, fr, vl, lim, cap, zones))
                n += len(q)

        if n:
            noise = (self.rng.random(n)
                     * (cfg.driver_imperfection * cfg.accel * DT)).tolist()
            before = speed.copy() if audit is not None else None
            kernels.follow_speeds(
                noise, lanes, st.halted_by, pos, speed, cfg.accel,
                cfg.decel, cfg.min_gap, cfg.vehicle_length)
            if audit is not None:
                self._audit_speeds(t, lanes, before, audit)
            # near heads cross in queue order; one still inside its segment
            # has nothing to resolve
            for qi, head in near:
                if pos[head] > length[cur_seg[head]]:
                    self._advance_head(qi, head, greens, audit)

        st.time = t + 1
        if audit is not None:
            self._audit_step(t, audit)

    def _advance_head(self, qi: int, slot: int, greens: tuple,
                      audit: AuditReport | None):
        """Resolve segment crossings for one queue head after the position
        update; followers can never reach their segment end (their step is
        capped by the head's pre-step position)."""
        st = self.state
        tb = self.tables
        queues = st.queues
        seg = st.cur_seg[slot]
        hpos = st.pos[slot]
        route = self.routes[slot]
        while hpos > tb.length[seg]:
            step = st.route_step[slot]
            if step + 1 >= len(route):
                q = queues[qi]
                assert q[0] == slot
                q.popleft()
                st.queue_of[slot] = -1
                st.cur_seg[slot] = -1
                st.pos[slot] = 0.0
                st.arrived += 1
                return
            if not greens[seg]:
                if audit is not None:
                    audit.flag(st.time, "red-cross-attempt",
                               f"vehicle {slot} at {tb.seg_ids[seg]}")
                hpos = tb.length[seg]
                break
            nxt = route[step + 1]
            tqi, space = self._best_entry_queue(nxt)
            entry_cap = (tb.length[nxt] if not queues[tqi]
                         else space - self.cfg.min_gap)
            over = hpos - tb.length[seg]
            if entry_cap < 0.0:
                hpos = tb.length[seg]
                break
            q = queues[qi]
            assert q[0] == slot
            q.popleft()
            queues[tqi].append(slot)
            st.queue_of[slot] = tqi
            st.cur_seg[slot] = nxt
            st.route_step[slot] = step + 1
            hpos = min(over, entry_cap)
            seg = nxt
            qi = tqi
            if hpos < over:
                break  # clamped by the new lane's tail
        st.pos[slot] = hpos

    def _audit_speeds(self, t: int, lanes, before, audit: AuditReport):
        """Flag every new speed below zero or above the lesser of its
        lane's limit and the pre-step speed plus one step of
        acceleration."""
        # the bound uses the limit of the lane governing the decision (the
        # incident cap where a zone covers it whole); crossings may land on
        # a slower segment afterwards
        gain = self.cfg.accel * DT
        speed = self.state.speed
        for q, _fr, _vl, lim, _cap, _zones in lanes:
            for slot in q:
                v = speed[slot]
                if v < 0 or v > min(lim, before[slot] + gain) + 1e-9:
                    audit.flag(t, "speed-bounds", f"vehicle {slot} v={v}")

    def _audit_step(self, t: int, audit: AuditReport):
        st = self.state
        tb = self.tables
        cfg = self.cfg
        audit.checked_steps += 1
        in_queues = sum(len(q) for q in st.queues)
        if (st.spawned != in_queues + st.arrived
                or st.due != st.spawned + st.deferred_count):
            audit.flag(t, "conservation",
                       f"due={st.due} spawned={st.spawned} "
                       f"in_queues={in_queues} arrived={st.arrived} "
                       f"deferred={st.deferred_count}")
        for qi, q in enumerate(st.queues):
            seg = tb.queue_seg[qi]
            prev = None
            for slot in q:
                if st.queue_of[slot] != qi or st.cur_seg[slot] != seg:
                    audit.flag(t, "queue-membership",
                               f"vehicle {slot} in queue {qi} has queue_of "
                               f"{st.queue_of[slot]}, cur_seg "
                               f"{st.cur_seg[slot]}")
                pos = st.pos[slot]
                if not 0.0 <= pos <= tb.length[seg]:
                    audit.flag(t, "offset-bounds",
                               f"vehicle {slot} pos {pos}")
                if prev is not None:
                    gap = st.pos[prev] - cfg.vehicle_length - pos
                    if gap < -1e-9:
                        audit.flag(t, "collision",
                                   f"{prev} and {slot} gap {gap}")
                    elif st.speed[slot] > 0 and gap < cfg.min_gap - 1e-9:
                        audit.flag(t, "min-gap",
                                   f"{prev} and {slot} gap {gap} while moving")
                prev = slot


def run(network: RoadNetwork, schedule, incident_plan=None, placement=None,
        cfg: SimConfig | None = None, incident_cfg=None,
        audit: bool = False) -> RunResult:
    """Simulate the full horizon, capturing sensor readings each second.

    Returns the per-second raw dataset (None when placement is None) and
    the ground-truth incident log, plus bookkeeping counters and, with
    audit, the audit report.  Fully deterministic in
    (schedule, incident_plan, cfg.seed, placement).
    """
    sim = Simulation(network, schedule, incident_plan, placement, cfg,
                     incident_cfg)
    report = AuditReport() if audit else None
    builder = (None if sim.rig is None
               else RawDatasetBuilder(sim.rig.sensor_ids))
    st = sim.state
    for _ in range(sim.horizon):
        sim.step(report)
        if builder is not None:
            sim.rig.capture(st, builder)
    raw = None
    if builder is not None:
        sim.rig.finish(builder, sim.cfg.vehicle_length)
        raw = builder.build(sim.horizon)
    return RunResult(raw=raw, incident_log=list(sim.incident_plan),
                     spawned=st.spawned, arrived=st.arrived,
                     deferred_at_end=st.deferred_count, audit=report)
