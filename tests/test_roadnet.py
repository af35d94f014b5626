"""Road network model tests.

Index:
  io           save/load round trip, parse errors
  validation   structural rules reject malformed networks
  sensor pairs contiguous-pair discovery against hand-drawn cases
  routing      shortest routes against exhaustive path enumeration
"""
import itertools

import pytest

from trafficlab.roadnet import (NetworkError, Node, RoadNetwork, Segment,
                                SensorPlacement, SignalPhase,
                                contiguous_sensor_pairs, load_network,
                                save_network, shortest_route,
                                validate_network, validate_placement)
from trafficlab.demand import read_counts_csv
from trafficlab.netgen import bundled_path

from conftest import make_line_net, make_signal_line_net, rng_for


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
