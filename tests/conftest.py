"""Shared test networks.

Index:
  line_net        three-segment open line, no signals
  signal_line_net line with one signalized middle junction
  grid_net        bundled 4x4 signalized grid
  flat_params     constant-rate flow curve for quick schedules
  traced_run      microsim.run plus the per-second state of every vehicle
  mutated_rows    a text file with one field of a row set to a bad value,
                  each of BAD_VALUES in turn
"""
import itertools
import zlib

import numpy as np
import pytest

from trafficlab import microsim
from trafficlab.demand import FlowModelParams
from trafficlab.roadnet import (Node, RoadNetwork, Segment, SignalPhase,
                                load_network, validate_network)
from trafficlab.netgen import bundled_path


def make_line_net(n_segments: int = 3, length: float = 200.0,
                  speed_limit: float = 10.0, lanes: int = 1,
                  sensor_sites=None) -> RoadNetwork:
    """Open chain a0 -> a1 -> ... with entry at a0 and exit at the end."""
    n_nodes = n_segments + 1
    sites = set(sensor_sites if sensor_sites is not None
                else [f"a{i}" for i in range(n_nodes)])
    nodes = {}
    for i in range(n_nodes):
        nid = f"a{i}"
        nodes[nid] = Node(nid, i * length, 0.0, signalized=False,
                          sensor_site=nid in sites)
    segments = {}
    for i in range(n_segments):
        sid = f"s{i}"
        segments[sid] = Segment(sid, f"a{i}", f"a{i + 1}", length, lanes,
                                speed_limit, road_label=f"line_{i}")
    net = RoadNetwork(nodes, segments, {}, ("a0",), (f"a{n_segments}",))
    validate_network(net)
    return net


def make_signal_line_net(green_s: float = 30.0, red_s: float = 30.0,
                         length: float = 200.0,
                         speed_limit: float = 10.0) -> RoadNetwork:
    """a0 -> a1 -> a2 with a signal at a1: green for the inbound segment
    during phase 0, red (cross-street placeholder) during phase 1."""
    nodes = {
        "a0": Node("a0", 0.0, 0.0, False, True),
        "a1": Node("a1", length, 0.0, True, True),
        "a2": Node("a2", 2 * length, 0.0, False, True),
        "b0": Node("b0", length, length, False, False),
    }
    segments = {
        "s0": Segment("s0", "a0", "a1", length, 1, speed_limit, "main"),
        "s1": Segment("s1", "a1", "a2", length, 1, speed_limit, "main"),
        "x0": Segment("x0", "b0", "a1", length, 1, speed_limit, "cross"),
    }
    plans = {"a1": (SignalPhase(frozenset({"s0"}), green_s),
                    SignalPhase(frozenset({"x0"}), red_s))}
    net = RoadNetwork(nodes, segments, plans, ("a0", "b0"), ("a2",))
    validate_network(net)
    return net


@pytest.fixture
def line_net():
    return make_line_net()


@pytest.fixture
def signal_line_net():
    return make_signal_line_net()


@pytest.fixture(scope="session")
def grid_net():
    net = load_network(str(bundled_path("grid4x4.net")))
    validate_network(net)
    return net


@pytest.fixture
def flat_params():
    # constant 0.05 veh/s when spawned with bin_duration=100
    return FlowModelParams(a1=0.0, b1=1.0, c1=0.0, a2=0.0, b2=2.0, c2=0.0,
                           d=5.0, alpha_sigma=0.0)


def rng_for(name: str, k: int = 0) -> np.random.Generator:
    # crc32, not hash(): string hashing is salted per interpreter run
    return np.random.default_rng(zlib.crc32(f"{name}:{k}".encode()))


def traced_run(*args, **kwargs):
    """(microsim.run(*args, **kwargs), its trace).  The trace holds one
    (t, slots, segs, pos, speed) tuple per second, recorded after the step:
    arrays over every queued vehicle, queues in index order and each front
    to back.  For the length of the call microsim.Simulation is a subclass
    that records the state after each step, so the run itself is the real
    one."""
    trace = []

    class Recording(microsim.Simulation):
        def step(self, audit=None):
            super().step(audit)
            st = self.state
            slots = [slot for q in st.queues for slot in q]
            cols = ((st.cur_seg, np.int32), (st.pos, float), (st.speed, float))
            trace.append((st.time - 1, np.array(slots, dtype=np.intp)) + tuple(
                np.array([c[s] for s in slots], dtype=d) for c, d in cols))

    original = microsim.Simulation
    microsim.Simulation = Recording
    try:
        return microsim.run(*args, **kwargs), trace
    finally:
        microsim.Simulation = original


BAD_VALUES = ("", "nan", "inf", "-inf", "-1", "x", "1e400", "0", "2.5")


def mutated_rows(lines, rows):
    """The texts of `lines` with each comma-separated field of the first,
    middle and last of `rows` (indices of data lines) set in turn to each
    of BAD_VALUES."""
    for i in sorted({rows[0], rows[len(rows) // 2], rows[-1]}
                    if rows else ()):
        fields = lines[i].split(",")
        for j, value in itertools.product(range(len(fields)), BAD_VALUES):
            cut = fields[:j] + [value] + fields[j + 1:]
            yield "\n".join(lines[:i] + [",".join(cut)]
                             + lines[i + 1:]) + "\n"
