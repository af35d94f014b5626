"""Road graph, fixed-cycle signal plans, and sensor placements.

A RoadNetwork is immutable after load and shared read-only by every other
stage.  The on-disk form is a sectioned comma-separated text file (see
load_network); an optional [endpoints] section pins entry/exit nodes, since
grid-like graphs have no degree-zero boundary to infer them from.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from . import open_text, read_csv, write_lines


class NetworkError(ValueError):
    """Malformed network file or violated network invariant."""


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float
    signalized: bool = False
    sensor_site: bool = False


@dataclass(frozen=True)
class Segment:
    id: str
    from_node: str
    to_node: str
    length: float
    lanes: int = 1
    speed_limit: float = 13.9
    road_label: str = ""

    @property
    def free_flow_time(self) -> float:
        return self.length / self.speed_limit


@dataclass(frozen=True)
class SignalPhase:
    permitted: frozenset
    duration: float


@dataclass
class SensorPlacement:
    sensor_ids: tuple
    range_m: float = 50.0

    def __post_init__(self):
        self.sensor_ids = tuple(sorted(self.sensor_ids))
        if not self.sensor_ids:
            raise NetworkError("sensor placement must contain at least one sensor")
        ids = self.sensor_ids
        dup = sorted({s for s in ids if ids.count(s) > 1})
        if dup:
            raise NetworkError(f"duplicate sensor ids: {', '.join(dup)}")
        if not 0 < self.range_m < math.inf:  # NaN included
            raise NetworkError("sensor range must be positive and finite")


@dataclass
class RoadNetwork:
    nodes: dict
    segments: dict
    signal_plans: dict
    entry_nodes: tuple
    exit_nodes: tuple
    # derived adjacency, rebuilt on construction; excluded from equality
    out_segments: dict = field(default_factory=dict, compare=False, repr=False)
    in_segments: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.entry_nodes = tuple(sorted(self.entry_nodes))
        self.exit_nodes = tuple(sorted(self.exit_nodes))
        self.out_segments = {nid: [] for nid in self.nodes}
        self.in_segments = {nid: [] for nid in self.nodes}
        for sid in sorted(self.segments):
            seg = self.segments[sid]
            if seg.from_node in self.out_segments:
                self.out_segments[seg.from_node].append(sid)
            if seg.to_node in self.in_segments:
                self.in_segments[seg.to_node].append(sid)

    def outgoing(self, node_id: str) -> list:
        return self.out_segments[node_id]

    def incoming(self, node_id: str) -> list:
        return self.in_segments[node_id]


def _parse_bool(token: str) -> bool:
    t = token.lower()
    if t in ("1", "true", "yes"):
        return True
    if t in ("0", "false", "no"):
        return False
    raise ValueError(f"expected boolean flag, got {token!r}")


def _add(table: dict, kind: str, item) -> None:
    if item.id in table:
        raise ValueError(f"duplicate {kind} id {item.id!r}")
    table[item.id] = item


_SECTION_HEADERS = {
    "[nodes]": "id,x,y,signalized,sensor_site",
    "[segments]": "id,from,to,length_m,lanes,speed_limit_mps,road_label",
    "[signals]": "node_id,phase_index,permitted_segment_ids,duration_s",
    "[endpoints]": "kind,node_id",
}


def load_network(path) -> RoadNetwork:
    """Parse and validate a sectioned network file.

    Sections: [nodes], [segments], [signals] (required, possibly empty), and
    an optional [endpoints] section of kind,node_id rows with kind in
    {entry, exit}.  When [endpoints] is absent, nodes with zero in-degree are
    entries and nodes with zero out-degree are exits; if neither exists every
    node serves as both.  Each section is a headed table read by read_csv;
    blank lines and `#` comments are skipped.
    """
    sections: dict = {}
    with open_text(path, NetworkError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            tag = line.lower()
            if not line or line.startswith("#"):
                continue
            if tag in sections:
                raise NetworkError(
                    f"{path}:{lineno}: section {tag} given twice")
            if tag in _SECTION_HEADERS:
                body = sections[tag] = []
            elif not sections:
                raise NetworkError(
                    f"{path}:{lineno}: data before any section header")
            else:  # fields are stripped of the spaces around them
                body.append((lineno, ",".join(
                    f.strip() for f in line.split(","))))

    nodes: dict = {}
    segments: dict = {}

    def segment(f):
        if not f[6]:  # features.csv reads "" back as None
            raise ValueError(f"segment {f[0]!r} has an empty road_label")
        _add(segments, "segment", Segment(f[0], f[1], f[2], float(f[3]),
                                          int(f[4]), float(f[5]), f[6]))

    def endpoint(f):
        if f[0] not in ("entry", "exit"):
            raise ValueError("endpoint kind must be entry or exit")
        return f

    parsers = {
        "[nodes]": lambda f: _add(nodes, "node", Node(
            f[0], float(f[1]), float(f[2]), _parse_bool(f[3]),
            _parse_bool(f[4]))),
        "[segments]": segment,
        "[signals]": lambda f: (f[0], int(f[1]), SignalPhase(
            frozenset(s for s in f[2].split(";") if s), float(f[3]))),
        "[endpoints]": endpoint,
    }
    rows = {tag: read_csv(path, NetworkError, _SECTION_HEADERS[tag],
                          parsers[tag], body)[1]
            for tag, body in sections.items() if body}

    raw_signals: dict = {}
    for nid, idx, phase in rows.get("[signals]", ()):
        raw_signals.setdefault(nid, []).append((idx, phase))
    signal_plans = {}
    for nid, phases in raw_signals.items():
        phases.sort(key=lambda p: p[0])
        indices = [p[0] for p in phases]
        if indices != list(range(len(phases))):
            raise NetworkError(f"{path}: signal plan for node {nid!r}: "
                               "phase indices must be 0..k-1")
        signal_plans[nid] = tuple(p[1] for p in phases)

    if "[endpoints]" in sections:
        ends = rows.get("[endpoints]", ())
        entries = [nid for kind, nid in ends if kind == "entry"]
        exits = [nid for kind, nid in ends if kind == "exit"]
    else:
        has_in = {s.to_node for s in segments.values()}
        has_out = {s.from_node for s in segments.values()}
        entries = [nid for nid in nodes if nid not in has_in]
        exits = [nid for nid in nodes if nid not in has_out]
        if not entries and not exits:
            entries = list(nodes)
            exits = list(nodes)

    net = RoadNetwork(nodes, segments, signal_plans,
                      tuple(entries), tuple(exits))
    try:
        validate_network(net)
    except NetworkError as exc:
        raise NetworkError(f"{path}: {exc}") from None
    return net


def _fmt(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def save_network(net: RoadNetwork, path) -> None:
    """Write `net` as load_network reads it: each section of
    _SECTION_HEADERS in turn, under its tag and header, with a blank line
    between sections."""
    rows = {
        "[nodes]": [f"{n.id},{_fmt(n.x)},{_fmt(n.y)},"
                    f"{int(n.signalized)},{int(n.sensor_site)}"
                    for n in (net.nodes[nid] for nid in sorted(net.nodes))],
        "[segments]": [
            f"{s.id},{s.from_node},{s.to_node},{_fmt(s.length)},"
            f"{s.lanes},{_fmt(s.speed_limit)},{s.road_label}"
            for s in (net.segments[sid] for sid in sorted(net.segments))],
        "[signals]": [f"{nid},{i},{';'.join(sorted(phase.permitted))},"
                      f"{_fmt(phase.duration)}"
                      for nid in sorted(net.signal_plans)
                      for i, phase in enumerate(net.signal_plans[nid])],
        "[endpoints]": ([f"entry,{nid}" for nid in net.entry_nodes]
                        + [f"exit,{nid}" for nid in net.exit_nodes]),
    }
    lines = []
    for tag, header in _SECTION_HEADERS.items():
        lines += [tag, header, *rows[tag], ""]
    write_lines(path, lines[:-1])


def validate_network(net: RoadNetwork) -> None:
    if not net.nodes:
        raise NetworkError("network has no nodes")
    for nid, node in net.nodes.items():
        if not nid:
            raise NetworkError("a node has an empty id")
        if not (math.isfinite(node.x) and math.isfinite(node.y)):
            raise NetworkError(f"node {nid!r} has non-finite coordinates")
    for sid, seg in net.segments.items():
        if not sid:
            raise NetworkError("a segment has an empty id")
        if not seg.road_label:
            raise NetworkError(f"segment {sid!r} has an empty road_label")
        for endpoint in (seg.from_node, seg.to_node):
            if endpoint not in net.nodes:
                raise NetworkError(
                    f"segment {sid!r} references missing node {endpoint!r}")
        if seg.from_node == seg.to_node:
            raise NetworkError(f"segment {sid!r} is a self-loop")
        if not 0 < seg.length < math.inf:
            raise NetworkError(f"segment {sid!r} has length {seg.length}, "
                               "not a positive finite number")
        if seg.lanes < 1:
            raise NetworkError(f"segment {sid!r} has lanes < 1")
        if not 0 < seg.speed_limit < math.inf:
            raise NetworkError(f"segment {sid!r} has speed limit "
                               f"{seg.speed_limit}, not a positive finite "
                               "number")
        a, b = net.nodes[seg.from_node], net.nodes[seg.to_node]
        dist = math.hypot(a.x - b.x, a.y - b.y)
        if dist == 0:
            raise NetworkError(
                f"segment {sid!r} connects coincident node positions")
        if abs(seg.length - dist) > 0.2 * dist:
            raise NetworkError(
                f"segment {sid!r}: length {seg.length} inconsistent with "
                f"endpoint distance {dist:.1f} (>20% off)")

    # weak connectivity over the undirected skeleton
    if net.segments:
        adj: dict = {nid: set() for nid in net.nodes}
        for seg in net.segments.values():
            adj[seg.from_node].add(seg.to_node)
            adj[seg.to_node].add(seg.from_node)
        seen = _closure(min(net.nodes), adj.__getitem__)
        if seen != set(net.nodes):
            missing = sorted(set(net.nodes) - seen)
            raise NetworkError(
                f"network is not weakly connected; unreachable: {missing}")

    for kind, ids in (("entry", net.entry_nodes), ("exit", net.exit_nodes)):
        for nid in ids:
            if nid not in net.nodes:
                raise NetworkError(f"{kind} node {nid!r} does not exist")
    if not net.entry_nodes or not net.exit_nodes:
        raise NetworkError("network needs at least one entry and one exit node")

    exits = set(net.exit_nodes)
    for entry in net.entry_nodes:
        reach = _reachable(net, entry)
        if not (reach & exits):
            raise NetworkError(f"entry node {entry!r} reaches no exit node")

    for nid, plan in net.signal_plans.items():
        if nid not in net.nodes:
            raise NetworkError(f"signal plan references missing node {nid!r}")
        if not net.nodes[nid].signalized:
            raise NetworkError(f"signal plan on unsignalized node {nid!r}")
        if not plan:
            raise NetworkError(f"empty signal plan for node {nid!r}")
        incoming = set(net.incoming(nid))
        covered: set = set()
        for i, phase in enumerate(plan):
            if not 0 < phase.duration < math.inf:
                raise NetworkError(
                    f"node {nid!r} phase {i} has duration {phase.duration}, "
                    "not a positive finite number")
            extra = phase.permitted - incoming
            if extra:
                raise NetworkError(
                    f"node {nid!r} phase {i} permits non-incoming segments "
                    f"{sorted(extra)}")
            covered |= phase.permitted
        never_green = incoming - covered
        if never_green:
            raise NetworkError(
                f"node {nid!r}: incoming segments never permitted "
                f"{sorted(never_green)} (would deadlock)")
    for nid, node in net.nodes.items():
        if node.signalized and net.incoming(nid) and nid not in net.signal_plans:
            raise NetworkError(f"signalized node {nid!r} has no signal plan")


def validate_placement(net: RoadNetwork, placement: SensorPlacement) -> None:
    for sid in placement.sensor_ids:
        if sid not in net.nodes:
            raise NetworkError(f"sensor id {sid!r} is not a network node")
        if not net.nodes[sid].sensor_site:
            raise NetworkError(f"node {sid!r} is not a sensor site")


def _closure(start, neighbours) -> set:
    """start and every node reached from it through neighbours(node)."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in neighbours(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _reachable(net: RoadNetwork, start: str, stop=frozenset()) -> set:
    """Nodes reachable from start along segment directions; a node of stop
    other than start is reached but not passed."""
    return _closure(start, lambda node: (
        () if node != start and node in stop
        else [net.segments[sid].to_node for sid in net.outgoing(node)]))


def contiguous_sensor_pairs(net: RoadNetwork, placement: SensorPlacement) -> list:
    """All ordered sensor pairs (a, b) linked by a directed path whose
    intermediate nodes are all unsensored.  Sorted by (a, b)."""
    validate_placement(net, placement)
    sensors = set(placement.sensor_ids)
    return sorted((a, b) for a in placement.sensor_ids
                  for b in _reachable(net, a, sensors) & sensors if b != a)


def shortest_route(net: RoadNetwork, origin: str, destination: str) -> tuple:
    """Minimal free-flow-time route as a tuple of segment ids.

    Ties broken lexicographically on the segment-id sequence: the heap orders
    entries by (cost, route), so the first settlement of a node carries the
    lexicographically smallest route among minimal-cost ones.
    """
    if origin not in net.nodes or destination not in net.nodes:
        raise NetworkError(f"unknown route endpoint in {(origin, destination)}")
    heap = [(0.0, (), origin)]
    settled = set()
    while heap:
        cost, route, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            return route
        for sid in net.outgoing(node):
            seg = net.segments[sid]
            if seg.to_node not in settled:
                heapq.heappush(
                    heap, (cost + seg.free_flow_time, route + (sid,), seg.to_node))
    raise NetworkError(f"no route from {origin!r} to {destination!r}")
