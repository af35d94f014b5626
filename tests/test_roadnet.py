"""Road network model tests.

Index:
  io           save/load round trip, parse errors
  validation   structural rules reject malformed networks
  sensor pairs contiguous-pair discovery against hand-drawn cases
  routing      shortest routes against exhaustive path enumeration
"""
import copy
import dataclasses
import math
import re

import pytest

from trafficlab.roadnet import (NetworkError, Node, RoadNetwork, Segment,
                                SensorPlacement, SignalPhase,
                                contiguous_sensor_pairs, load_network,
                                save_network, shortest_route,
                                validate_network, validate_placement)
from trafficlab.demand import read_counts_csv
from trafficlab.netgen import bundled_path

from conftest import (make_line_net, make_signal_line_net, mutated_rows,
                      rng_for)


# -- io ------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, grid_net):
    p = tmp_path / "net.txt"
    save_network(grid_net, p)
    back = load_network(p)
    assert back.nodes == grid_net.nodes
    assert back.segments == grid_net.segments
    assert back.signal_plans == grid_net.signal_plans
    assert back.entry_nodes == grid_net.entry_nodes
    assert back.exit_nodes == grid_net.exit_nodes


def test_save_load_round_trip_line(tmp_path):
    net = make_signal_line_net()
    p = tmp_path / "net.txt"
    save_network(net, p)
    back = load_network(p)
    assert back.segments == net.segments
    assert back.signal_plans == net.signal_plans


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("[nodes]\nid,x,y\n")
    with pytest.raises(NetworkError):
        load_network(p)


def test_load_rejects_an_empty_road_label(tmp_path):
    """A road label is a class name, and features.csv writes a missing
    label as an empty field: an empty label would read back as None."""
    net = make_line_net()
    for sid, seg in net.segments.items():
        net.segments[sid] = dataclasses.replace(seg, road_label="")
    p = tmp_path / "net.txt"
    save_network(net, p)
    lineno = p.read_text(encoding="utf-8").splitlines().index(
        "s0,a0,a1,200,1,10,") + 1
    with pytest.raises(NetworkError, match=rf"^{re.escape(str(p))}:{lineno}: "
                       r"segment 's0' has an empty road_label$"):
        load_network(p)


def test_load_names_the_line_of_a_duplicate_id_or_section(tmp_path):
    """A duplicate id or a section tag given twice is refused at its line;
    a second [nodes] block used to be merged into the first."""
    p = tmp_path / "net.txt"
    save_network(make_line_net(), p)
    text = p.read_text(encoding="utf-8")
    for tag, extra, fault in (
            ("[nodes]", "a0,5,5,0,0", "duplicate node id 'a0'"),
            ("[segments]", "s0,a0,a1,200,1,10,line_0",
             "duplicate segment id 's0'")):
        lines = text.splitlines()
        at = lines.index(tag) + 3  # after the section's first row
        p.write_text("\n".join(lines[:at] + [extra] + lines[at:]) + "\n",
                     encoding="utf-8")
        with pytest.raises(NetworkError, match=rf"^{re.escape(str(p))}:"
                           rf"{at + 1}: {re.escape(fault)}$"):
            load_network(p)
    lineno = text.count("\n") + 2
    p.write_text(text + "\n[nodes]\nid,x,y,signalized,sensor_site\n"
                 "z,0,100,0,0\n", encoding="utf-8")
    with pytest.raises(NetworkError, match=rf"^{re.escape(str(p))}:{lineno}: "
                       r"section \[nodes\] given twice$"):
        load_network(p)


def _mutations(text):
    """mutated_rows over the data rows of every section of a network
    file's text."""
    lines = text.splitlines()
    tags = [i for i, line in enumerate(lines) if line.startswith("[")]
    for start, end in zip(tags, tags[1:] + [len(lines)]):
        yield from mutated_rows(
            lines, [i for i in range(start + 2, end) if lines[i]])


@pytest.mark.parametrize("name", ["grid4x4.net", "highway8.net"])
def test_mutated_network_loads_finite_or_is_refused_naming_the_file(
        tmp_path, name):
    """A bad value anywhere in a network file either still makes a network
    whose every number is finite, or is refused naming the file: a NaN
    length or an infinite speed limit or phase duration used to load."""
    p = tmp_path / name
    count = 0
    for text in _mutations(bundled_path(name).read_text(encoding="utf-8")):
        count += 1
        p.write_text(text, encoding="utf-8")
        try:
            net = load_network(p)
        except NetworkError as exc:
            assert str(exc).startswith(f"{p}:"), str(exc)
            continue
        numbers = [v for n in net.nodes.values() for v in (n.x, n.y)]
        numbers += [v for s in net.segments.values()
                    for v in (s.length, s.lanes, s.speed_limit)]
        numbers += [phase.duration for plan in net.signal_plans.values()
                    for phase in plan]
        assert all(math.isfinite(v) for v in numbers), text
    assert count == {"grid4x4.net": 486, "highway8.net": 378}[name]


def test_bundled_networks_validate():
    for name in ("grid4x4.net", "highway8.net"):
        net = load_network(str(bundled_path(name)))
        validate_network(net)


def test_bundled_fixtures_hold_their_scenarios():
    """The committed files are the only source of the bundled scenarios."""
    grid = load_network(str(bundled_path("grid4x4.net")))
    assert len(grid.nodes) == 16
    assert all(n.signalized and n.sensor_site for n in grid.nodes.values())
    assert len(grid.segments) == 48
    assert {s.length for s in grid.segments.values()} == {250.0}
    assert set(grid.signal_plans) == set(grid.nodes)
    for nid, plan in grid.signal_plans.items():
        # horizontal approaches first, vertical second, 30 s each
        assert [p.duration for p in plan] == [30.0, 30.0]
        y = grid.nodes[nid].y
        into = {sid for sid, s in grid.segments.items() if s.to_node == nid}
        assert plan[0].permitted | plan[1].permitted == into
        assert all(grid.nodes[grid.segments[sid].from_node].y == y
                   for sid in plan[0].permitted)
        assert all(grid.nodes[grid.segments[sid].from_node].y != y
                   for sid in plan[1].permitted)
    boundary = {nid for nid in grid.nodes if nid[1] in "03" or nid[2] in "03"}
    assert len(boundary) == 12
    assert set(grid.entry_nodes) == set(grid.exit_nodes) == boundary

    highway = load_network(str(bundled_path("highway8.net")))
    sites = {nid for nid, n in highway.nodes.items() if n.sensor_site}
    assert sites == {f"m{i}" for i in range(1, 8)}
    assert not highway.signal_plans
    mainline = [highway.segments[f"ml_{i}"] for i in range(8)]
    assert [(s.from_node, s.to_node, s.length) for s in mainline] == [
        (f"m{i}", f"m{i + 1}", 800.0) for i in range(8)]
    for i in range(1, 8):
        assert highway.segments[f"on_{i}"].to_node == f"m{i}"
        assert highway.segments[f"off_{i}"].from_node == f"m{i}"

    counts = read_counts_csv(str(bundled_path("city_counts.csv")))
    assert sorted(counts) == [f"road_{r:02d}" for r in range(12)]
    for series in counts.values():
        assert (series.bin_duration, series.counts.size,
                series.start_time) == (900.0, 96, 0.0)


# -- validation ----------------------------------------------------------


def _toy(nodes, segments, plans=None, entries=("a",), exits=("b",)):
    return RoadNetwork(nodes, segments, plans or {}, tuple(entries),
                       tuple(exits))


def test_validate_rejects_dangling_segment_endpoint():
    nodes = {"a": Node("a", 0, 0, False, False),
             "b": Node("b", 100, 0, False, False)}
    segs = {"s": Segment("s", "a", "ghost", 100, 1, 10, "r")}
    with pytest.raises(NetworkError, match="ghost"):
        validate_network(_toy(nodes, segs))


def test_validate_rejects_length_geometry_mismatch():
    nodes = {"a": Node("a", 0, 0, False, False),
             "b": Node("b", 100, 0, False, False)}
    segs = {"s": Segment("s", "a", "b", 400, 1, 10, "r")}
    with pytest.raises(NetworkError, match="length"):
        validate_network(_toy(nodes, segs))


def test_validate_rejects_disconnected_component():
    nodes = {"a": Node("a", 0, 0, False, False),
             "b": Node("b", 100, 0, False, False),
             "c": Node("c", 0, 900, False, False),
             "d": Node("d", 100, 900, False, False)}
    segs = {"s": Segment("s", "a", "b", 100, 1, 10, "r"),
            "t": Segment("t", "c", "d", 100, 1, 10, "r")}
    with pytest.raises(NetworkError, match="connect"):
        validate_network(_toy(nodes, segs))


def test_validate_rejects_unreachable_exit():
    nodes = {"a": Node("a", 0, 0, False, False),
             "b": Node("b", 100, 0, False, False)}
    segs = {"s": Segment("s", "b", "a", 100, 1, 10, "r")}
    with pytest.raises(NetworkError):
        validate_network(_toy(nodes, segs, entries=("a",), exits=("b",)))


def test_validate_rejects_uncovered_approach():
    """A signal plan must give every incoming segment a green somewhere."""
    net = make_signal_line_net()
    plans = {"a1": (SignalPhase(frozenset({"s0"}), 30.0),)}  # x0 never green
    broken = RoadNetwork(net.nodes, net.segments, plans, net.entry_nodes,
                         net.exit_nodes)
    with pytest.raises(NetworkError, match="permitted|deadlock"):
        validate_network(broken)


def _not_positive_finite(what, value):
    return f"{what} {value}, not a positive finite number"


OUT_OF_RANGE = [
    ("length", math.nan,
     _not_positive_finite("segment 's0' has length", "nan")),
    ("length", math.inf,
     _not_positive_finite("segment 's0' has length", "inf")),
    ("length", 0.0, _not_positive_finite("segment 's0' has length", "0.0")),
    ("speed_limit", math.nan,
     _not_positive_finite("segment 's0' has speed limit", "nan")),
    ("speed_limit", float("1e400"),
     _not_positive_finite("segment 's0' has speed limit", "inf")),
    ("speed_limit", -1.0,
     _not_positive_finite("segment 's0' has speed limit", "-1.0")),
    ("duration", math.nan,
     _not_positive_finite("node 'a1' phase 0 has duration", "nan")),
    ("duration", math.inf,
     _not_positive_finite("node 'a1' phase 0 has duration", "inf")),
    ("road_label", "", "segment 's0' has an empty road_label"),
]


@pytest.mark.parametrize("field, value, fault", OUT_OF_RANGE,
                         ids=[f"{f}={v!r}" for f, v, _ in OUT_OF_RANGE])
def test_validate_rejects_a_value_out_of_range(field, value, fault):
    """A network built in code is held to the rules a loaded one is: a NaN
    length or an infinite phase duration used to pass, and an empty road
    label was refused only by load_network."""
    net = make_signal_line_net()
    segments, plans = dict(net.segments), dict(net.signal_plans)
    if field == "duration":
        first, *rest = plans["a1"]
        plans["a1"] = (dataclasses.replace(first, duration=value), *rest)
    else:
        segments["s0"] = dataclasses.replace(segments["s0"], **{field: value})
    with pytest.raises(NetworkError, match=f"^{re.escape(fault)}$"):
        validate_network(RoadNetwork(net.nodes, segments, plans,
                                     net.entry_nodes, net.exit_nodes))


def test_validate_rejects_an_empty_node_or_segment_id():
    net = make_line_net()
    nodes = dict(net.nodes, **{"": Node("", 0.0, 50.0)})
    with pytest.raises(NetworkError, match="^a node has an empty id$"):
        validate_network(RoadNetwork(nodes, net.segments, {},
                                     net.entry_nodes, net.exit_nodes))
    segments = dict(net.segments,
                    **{"": Segment("", "a0", "a1", 200.0, 1, 10.0, "line_0")})
    with pytest.raises(NetworkError, match="^a segment has an empty id$"):
        validate_network(RoadNetwork(net.nodes, segments, {},
                                     net.entry_nodes, net.exit_nodes))


@pytest.mark.parametrize("range_m", [0.0, -50.0, math.nan, math.inf])
def test_placement_range_must_be_positive_and_finite(range_m):
    """A NaN range would see no vehicle and give NaN occupancies."""
    with pytest.raises(NetworkError,
                       match="^sensor range must be positive and finite$"):
        SensorPlacement(("a",), range_m)


def test_validate_placement_unknown_sensor(grid_net):
    with pytest.raises(NetworkError):
        validate_placement(grid_net, SensorPlacement(("nope",), 50.0))


def test_validate_placement_requires_sensor_site():
    net = make_line_net(sensor_sites=["a0"])
    with pytest.raises(NetworkError):
        validate_placement(net, SensorPlacement(("a1",), 50.0))


# -- sensor pairs ---------------------------------------------------------


def test_contiguous_pairs_skip_unsensored_intermediate():
    net = make_line_net(n_segments=3)
    # sensors at the ends only: the middle nodes are pass-through
    pairs = contiguous_sensor_pairs(net, SensorPlacement(("a0", "a3"), 50.0))
    assert pairs == [("a0", "a3")]


def test_contiguous_pairs_blocked_by_sensor_between():
    net = make_line_net(n_segments=2)
    pairs = contiguous_sensor_pairs(
        net, SensorPlacement(("a0", "a1", "a2"), 50.0))
    assert pairs == [("a0", "a1"), ("a1", "a2")]


def test_contiguous_pairs_grid_symmetric(grid_net):
    """On the bidirectional grid every discovered pair exists both ways."""
    placement = SensorPlacement(("n00", "n03", "n30", "n33"), 50.0)
    pairs = contiguous_sensor_pairs(grid_net, placement)
    assert pairs
    as_set = set(pairs)
    for a, b in pairs:
        assert a != b
        assert (b, a) in as_set


# -- routing --------------------------------------------------------------


def _all_simple_routes(net, src, dst):
    """Exhaustive DFS over simple node paths, yielding segment-id tuples."""
    out = []

    def walk(node, seen, segs):
        if node == dst:
            out.append(tuple(segs))
            return
        for sid in net.outgoing(node):
            nxt = net.segments[sid].to_node
            if nxt in seen:
                continue
            walk(nxt, seen | {nxt}, segs + [sid])

    walk(src, {src}, [])
    return out


def _route_time(net, route):
    return sum(net.segments[s].free_flow_time for s in route)


def test_shortest_route_matches_enumeration(grid_net):
    """Dijkstra result equals the exhaustive-minimum with lexicographic
    tie-breaking, across a batch of OD pairs."""
    rng = rng_for("routes")
    nodes = sorted(grid_net.nodes)
    for _ in range(12):
        a, b = rng.choice(nodes, size=2, replace=False)
        got = shortest_route(grid_net, str(a), str(b))
        candidates = _all_simple_routes(grid_net, str(a), str(b))
        best_time = min(_route_time(grid_net, r) for r in candidates)
        ties = sorted(r for r in candidates
                      if _route_time(grid_net, r) <= best_time + 1e-9)
        assert got == ties[0]
        assert _route_time(grid_net, got) == pytest.approx(best_time)


def test_shortest_route_leaves_the_network_unchanged():
    """The network is shared read-only: a search stores nothing in it."""
    net = make_line_net()
    before = copy.deepcopy(vars(net))
    assert shortest_route(net, "a0", "a3") == ("s0", "s1", "s2")
    assert vars(net) == before


def test_shortest_route_unreachable_raises():
    nodes = {"a": Node("a", 0, 0, False, False),
             "b": Node("b", 100, 0, False, False)}
    segs = {"s": Segment("s", "a", "b", 100, 1, 10, "r")}
    net = RoadNetwork(nodes, segs, {}, ("a",), ("b",))
    with pytest.raises(NetworkError):
        shortest_route(net, "b", "a")


def route_length(net: RoadNetwork, route) -> float:
    return sum(net.segments[sid].length for sid in route)


def test_route_length_sums_segments(line_net):
    route = shortest_route(line_net, "a0", "a3")
    assert route == ("s0", "s1", "s2")
    assert route_length(line_net, route) == pytest.approx(600.0)


def test_highway_fixture_shape():
    net = load_network(str(bundled_path("highway8.net")))
    validate_network(net)
    sites = [n.id for n in net.nodes.values() if n.sensor_site]
    assert len(sites) == 7  # one per interior junction with ramps
    assert "m0" in net.entry_nodes
    assert any(x.startswith("r_off") for x in net.exit_nodes)
