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
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .incidents import apply_effects, designate_vehicles, release_vehicles
from .roadnet import RoadNetwork, shortest_route
from .sensors import RawDatasetBuilder, SensorRig


DT = 1.0  # s per step; the capture cadence and model are built around 1 Hz


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
        if self.accel <= 0 or self.decel <= 0:
            raise SimError("accel and decel must be positive")
        if not 0.0 <= self.driver_imperfection < 1.0:
            raise SimError("driver imperfection must lie in [0, 1)")
        if self.min_gap < 0 or self.vehicle_length <= 0:
            raise SimError("bad geometry parameters")


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
    active_at_end: int
    deferred_at_end: int
    trace: list | None = None
    audit: AuditReport | None = None


class _NetTables:
    """Flat-array view of the network used by the inner loop."""

    def __init__(self, net: RoadNetwork):
        self.net = net
        self.seg_ids = sorted(net.segments)
        self.seg_index = {sid: i for i, sid in enumerate(self.seg_ids)}
        n = len(self.seg_ids)
        self.length = np.empty(n)
        self.limit = np.empty(n)
        self.lanes = np.empty(n, dtype=np.int32)
        self.queue_base = np.empty(n, dtype=np.int32)
        qb = 0
        for i, sid in enumerate(self.seg_ids):
            seg = net.segments[sid]
            self.length[i] = seg.length
            self.limit[i] = seg.speed_limit
            self.lanes[i] = seg.lanes
            self.queue_base[i] = qb
            qb += seg.lanes
        self.n_queues = qb
        self.queue_seg = np.empty(qb, dtype=np.int32)
        for i in range(n):
            for l in range(self.lanes[i]):
                self.queue_seg[self.queue_base[i] + l] = i

        # signal plans resolved to segment indices; segments whose end node
        # has no plan are always permitted
        self.always_green = np.ones(n, dtype=bool)
        self.signal_nodes = []
        for nid in sorted(net.signal_plans):
            plan = net.signal_plans[nid]
            starts = np.cumsum([0.0] + [p.duration for p in plan])
            phases = []
            for p in plan:
                idxs = [self.seg_index[s] for s in sorted(p.permitted)]
                phases.append(np.asarray(idxs, dtype=np.int32))
                for i in idxs:
                    self.always_green[i] = False
            self.signal_nodes.append(
                (float(starts[-1]), starts[1:-1], phases))

    def greens_at(self, t: float) -> np.ndarray:
        mask = self.always_green.copy()
        for cycle, bounds, phases in self.signal_nodes:
            idx = int(np.searchsorted(bounds, t % cycle, side="right"))
            mask[phases[idx]] = True
        return mask


class SimState:
    """Mutable per-run state; exposes the read access other modules need."""

    def __init__(self, sim: "Simulation"):
        self._sim = sim
        n = sim.capacity
        self.network = sim.network
        self.cfg = sim.cfg
        self.capacity = n
        self.time = 0
        self.pos = np.zeros(n)
        self.speed = np.zeros(n)
        self.cur_seg = np.full(n, -1, dtype=np.int32)
        self.route_step = np.zeros(n, dtype=np.int32)
        self.queue_of = np.full(n, -1, dtype=np.int32)
        self.halted_by = np.full(n, -1, dtype=np.int64)
        self.queues = [deque() for _ in range(sim.tables.n_queues)]
        self.pending = {e: deque() for e in sim.network.entry_nodes}
        self.due = 0
        self.spawned = 0
        self.arrived = 0
        self.active_incidents: list = []

    @property
    def active_count(self) -> int:
        return self.spawned - self.arrived

    @property
    def deferred_count(self) -> int:
        return sum(len(q) for q in self.pending.values())

    def iter_active_slots(self):
        for q in self.queues:
            yield from q

    def slots_on_segment(self, segment_id: str) -> list:
        tb = self._sim.tables
        si = tb.seg_index[segment_id]
        base = tb.queue_base[si]
        out: list = []
        for l in range(tb.lanes[si]):
            out.extend(self.queues[base + l])
        return out

    def segment_id_of(self, slot: int) -> str:
        return self._sim.tables.seg_ids[self.cur_seg[slot]]


class Simulation:
    def __init__(self, network: RoadNetwork, schedule, incident_plan=None,
                 placement=None, cfg: SimConfig | None = None):
        self.network = network
        self.schedule = schedule
        self.cfg = cfg or SimConfig()
        self.tables = _NetTables(network)
        self.horizon = int(schedule.horizon)
        self.incident_plan = sorted(incident_plan or [],
                                    key=lambda s: (s.onset, s.id))
        for spec in self.incident_plan:
            if spec.end > self.horizon:
                raise SimError(
                    f"incident {spec.id} runs past the horizon")
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
        self._next_event = 0
        self._next_incident = 0
        self._incident_cfg = None  # set by run() for apply_effects

    # -- spawn / crossing helpers -------------------------------------------

    def _best_entry_queue(self, seg_idx: int):
        """(queue index, entry space) for the lane with the most room.

        Entry space is measured from the segment start to the tail's rear
        bumper (full length when empty).  Ties go to the lowest lane.
        """
        tb = self.tables
        st = self.state
        base = tb.queue_base[seg_idx]
        best_q, best_space = -1, -1.0
        for l in range(tb.lanes[seg_idx]):
            q = st.queues[base + l]
            space = (tb.length[seg_idx] if not q
                     else st.pos[q[-1]] - self.cfg.vehicle_length)
            if space > best_space:
                best_q, best_space = base + l, space
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
        vlen = self.cfg.vehicle_length
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

    def _head_lookahead(self, slot: int, greens: np.ndarray):
        """Free run (m the front may advance) and effective leader speed for
        a queue head, walking its route until a blocker or far enough."""
        tb = self.tables
        st = self.state
        cfg = self.cfg
        v_next = st.speed[slot] + cfg.accel * DT
        # distance beyond which a wall cannot constrain this step's choice
        need = v_next * DT + (v_next * v_next) / (2.0 * cfg.decel) \
            + cfg.min_gap + 1.0
        seg = st.cur_seg[slot]
        route = self.routes[slot]
        step = st.route_step[slot]
        dist = tb.length[seg] - st.pos[slot]
        while True:
            if dist >= need:
                return dist, 0.0
            if not greens[seg]:
                return dist, 0.0  # red stop line at this segment's end
            if step + 1 >= len(route):
                return np.inf, 0.0  # arrival: nothing beyond the last node
            nxt = route[step + 1]
            qi, space = self._best_entry_queue(nxt)
            q = st.queues[qi]
            if q:
                tail = q[-1]
                return (dist + st.pos[tail] - cfg.vehicle_length
                        - cfg.min_gap, st.speed[tail])
            dist += tb.length[nxt]
            seg = nxt
            step += 1

    # -- the step ------------------------------------------------------------

    def step(self, audit: AuditReport | None = None):
        """Advance one dt: incident activation, spawning, the speed decision
        kernel, position advance with segment crossings, arrivals."""
        st = self.state
        tb = self.tables
        cfg = self.cfg
        t = st.time

        # incident activation/release at whole-second boundaries
        while (self._next_incident < len(self.incident_plan)
               and self.incident_plan[self._next_incident].onset <= t):
            spec = self.incident_plan[self._next_incident]
            designate_vehicles(st, spec)
            st.active_incidents.append(spec)
            self._next_incident += 1
        still = []
        for spec in st.active_incidents:
            if spec.end <= t:
                release_vehicles(st, spec)
            else:
                still.append(spec)
        st.active_incidents = still

        self._insert_spawns()

        greens = tb.greens_at(t)
        caps_by_slot = None
        if st.active_incidents:
            caps_by_slot = apply_effects(st, st.active_incidents,
                                         self._incident_cfg)

        # canonical order: queues ascending, front to back
        order: list = []
        leader: list = []
        head_free: list = []
        head_lead: list = []
        snapshots: list = []
        for qi in range(tb.n_queues):
            q = st.queues[qi]
            if not q:
                continue
            members = list(q)
            snapshots.append((qi, members))
            for j, slot in enumerate(members):
                if j == 0:
                    fr, vl = self._head_lookahead(slot, greens)
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
            pos_a = st.pos[order_np]
            speed_a = st.speed[order_np]
            limit_a = tb.limit[st.cur_seg[order_np]]
            cap_a = (caps_by_slot[order_np] if caps_by_slot is not None
                     else np.full(n, np.inf))
            noise = self.rng.random(n) * (cfg.driver_imperfection
                                          * cfg.accel * DT)
            v_new = np.empty(n)
            kernels.follow_speeds(
                pos_a, speed_a, np.asarray(leader, dtype=np.int32),
                np.asarray(head_free), np.asarray(head_lead),
                limit_a, cap_a, noise, cfg.accel, cfg.decel, cfg.min_gap,
                cfg.vehicle_length, DT, v_new)
            if audit is not None:
                # the bound uses the limit of the segment governing the
                # decision; crossings may land on a slower segment afterwards
                bad = (v_new < 0) | (v_new > np.minimum(
                    limit_a, speed_a + cfg.accel * DT) + 1e-9)
                for i in np.nonzero(bad)[0]:
                    audit.flag(t, "speed-bounds",
                               f"vehicle {order[i]} v={v_new[i]}")
            st.speed[order_np] = v_new
            st.pos[order_np] = pos_a + v_new * DT

            for qi, members in snapshots:
                self._advance_head(qi, members[0], greens, audit)

        st.time = t + 1
        if audit is not None:
            self._audit_step(t, audit)

    def _advance_head(self, qi: int, slot: int, greens: np.ndarray,
                      audit: AuditReport | None):
        """Resolve segment crossings for one queue head after the position
        update; followers can never reach their segment end (their step is
        capped by the head's pre-step position)."""
        st = self.state
        tb = self.tables
        cfg = self.cfg
        seg = st.cur_seg[slot]
        hpos = st.pos[slot]
        route = self.routes[slot]
        while hpos > tb.length[seg]:
            step = st.route_step[slot]
            if step + 1 >= len(route):
                q = st.queues[qi]
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
            entry_cap = (tb.length[nxt] if not st.queues[tqi]
                         else space - cfg.min_gap)
            over = hpos - tb.length[seg]
            if entry_cap < 0.0:
                hpos = tb.length[seg]
                break
            q = st.queues[qi]
            assert q[0] == slot
            q.popleft()
            st.queues[tqi].append(slot)
            st.queue_of[slot] = tqi
            st.cur_seg[slot] = nxt
            st.route_step[slot] = step + 1
            hpos = min(over, entry_cap)
            seg = nxt
            qi = tqi
            if hpos < over:
                break  # clamped by the new lane's tail
        st.pos[slot] = hpos

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
                pos = st.pos[slot]
                if not 0.0 <= pos <= tb.length[seg] + 1e-9:
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
        collect_trace: bool = False, audit: bool = False) -> RunResult:
    """Simulate the full horizon, capturing sensor readings each second.

    Returns the per-second raw dataset (empty sensors tuple when placement is
    None) and the ground-truth incident log, plus bookkeeping counters and
    the optional trace/audit artifacts.  Fully deterministic in
    (schedule, incident_plan, cfg.seed, placement).
    """
    from .incidents import IncidentPlanConfig

    sim = Simulation(network, schedule, incident_plan, placement, cfg)
    sim._incident_cfg = incident_cfg or IncidentPlanConfig()
    report = AuditReport() if audit else None
    builder = (RawDatasetBuilder(sim.rig.sensor_ids, sim.rig.range_m)
               if sim.rig else RawDatasetBuilder((), 0.0))
    trace: list | None = [] if collect_trace else None
    st = sim.state
    for t in range(sim.horizon):
        sim.step(report)
        if sim.rig is not None:
            builder.add_step(sim.rig.observe(st, t))
        if trace is not None:
            slots = np.fromiter(st.iter_active_slots(), dtype=np.intp,
                                count=st.active_count)
            trace.append((t, slots, st.cur_seg[slots].copy(),
                          st.pos[slots].copy(), st.speed[slots].copy()))
    raw = builder.build(sim.horizon) if sim.rig else None
    return RunResult(raw=raw, incident_log=list(sim.incident_plan),
                     spawned=st.spawned, arrived=st.arrived,
                     active_at_end=st.active_count,
                     deferred_at_end=st.deferred_count,
                     trace=trace, audit=report)
