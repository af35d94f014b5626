"""Built-in network and count fixtures.

Generators for the two bundled scenarios (a signalized 4-by-4 urban grid and
a linear highway with on/off ramps) plus a 12-road macroscopic count file
shaped like a municipal 15-minute export.  The committed files under
trafficlab/data/ are produced by `python -m trafficlab.netgen <outdir>`.
"""
from __future__ import annotations

import math
import sys
from importlib import resources

import numpy as np

from .roadnet import (Node, RoadNetwork, Segment, SignalPhase,
                      validate_network)


def bundled_path(name: str):
    """Filesystem path of a committed data fixture."""
    return resources.files("trafficlab").joinpath("data").joinpath(name)


def make_grid_network() -> RoadNetwork:
    """4-by-4 signalized grid; every intersection is a candidate sensor site.

    Bidirectional segments between orthogonal neighbors; horizontal segments
    share a per-row road label, vertical a per-column one (these labels are
    the localization classes).  Two-phase plans: horizontal approaches green
    first, vertical second, phase_s seconds each.  All boundary nodes act as
    both entries and exits.
    """
    n, spacing, lanes = 4, 250.0, 1
    speed_limit, phase_s = 13.9, 30.0
    nodes = {}
    for r in range(n):
        for c in range(n):
            nid = f"n{r}{c}"
            nodes[nid] = Node(nid, c * spacing, (n - 1 - r) * spacing,
                              signalized=True, sensor_site=True)
    segments = {}

    def add(a: str, b: str, label: str):
        sid = f"e_{a}_{b}"
        segments[sid] = Segment(sid, a, b, spacing, lanes, speed_limit, label)

    for r in range(n):
        for c in range(n - 1):
            a, b = f"n{r}{c}", f"n{r}{c + 1}"
            add(a, b, f"street_{r}")
            add(b, a, f"street_{r}")
    for c in range(n):
        for r in range(n - 1):
            a, b = f"n{r}{c}", f"n{r + 1}{c}"
            add(a, b, f"avenue_{c}")
            add(b, a, f"avenue_{c}")

    signal_plans = {}
    for r in range(n):
        for c in range(n):
            nid = f"n{r}{c}"
            horiz, vert = [], []
            for sid, seg in segments.items():
                if seg.to_node != nid:
                    continue
                src = nodes[seg.from_node]
                if src.y == nodes[nid].y:
                    horiz.append(sid)
                else:
                    vert.append(sid)
            signal_plans[nid] = (SignalPhase(frozenset(horiz), phase_s),
                                 SignalPhase(frozenset(vert), phase_s))

    boundary = tuple(sorted(
        f"n{r}{c}" for r in range(n) for c in range(n)
        if r in (0, n - 1) or c in (0, n - 1)))
    net = RoadNetwork(nodes, segments, signal_plans, boundary, boundary)
    validate_network(net)
    return net


def make_highway_network() -> RoadNetwork:
    """Linear mainline of n_sections segments with an on- and off-ramp at
    every interior junction; sensor sites sit at the ramp junctions."""
    n_sections, section_m, lanes = 8, 800.0, 2
    speed_limit, ramp_speed = 29.0, 15.0
    nodes = {}
    segments = {}
    signal_plans: dict = {}
    for i in range(n_sections + 1):
        nid = f"m{i}"
        interior = 0 < i < n_sections
        nodes[nid] = Node(nid, i * section_m, 0.0,
                          signalized=False, sensor_site=interior)
    for i in range(n_sections):
        sid = f"ml_{i}"
        segments[sid] = Segment(sid, f"m{i}", f"m{i + 1}", section_m,
                                lanes, speed_limit, f"mainline_{i}")
    ramp_dx, ramp_dy = 90.0, 80.0
    ramp_len = math.hypot(ramp_dx, ramp_dy)
    entries = ["m0"]
    exits = [f"m{n_sections}"]
    for i in range(1, n_sections):
        on_id, off_id = f"r_on{i}", f"r_off{i}"
        nodes[on_id] = Node(on_id, i * section_m - ramp_dx, -ramp_dy)
        nodes[off_id] = Node(off_id, i * section_m + ramp_dx, -ramp_dy)
        segments[f"on_{i}"] = Segment(f"on_{i}", on_id, f"m{i}", ramp_len,
                                      1, ramp_speed, f"onramp_{i}")
        segments[f"off_{i}"] = Segment(f"off_{i}", f"m{i}", off_id, ramp_len,
                                       1, ramp_speed, f"offramp_{i}")
        entries.append(on_id)
        exits.append(off_id)
    net = RoadNetwork(nodes, segments, signal_plans,
                      tuple(entries), tuple(exits))
    validate_network(net)
    return net


# Two bin-aligned harmonics over a 24 h day of 96 x 900 s bins: a diurnal
# component plus a half-day component producing distinct AM/PM peaks.
CITY_CURVE = dict(a1=25.0, b1=2.0 * math.pi / 86400.0, c1=-2.4,
                  a2=12.0, b2=2.0 * math.pi / 43200.0, c2=0.6, d=55.0)


def make_city_counts(path) -> None:
    """Write a 15-minute count export: 12 roads, one day each, sharing
    the CITY_CURVE shape with per-road scale and integer observation noise."""
    n_roads, n_bins, bin_s = 12, 96, 900
    rng = np.random.default_rng(7)
    p = CITY_CURVE
    t = np.arange(n_bins) * bin_s
    base = (p["a1"] * np.sin(p["b1"] * t + p["c1"])
            + p["a2"] * np.sin(p["b2"] * t + p["c2"]) + p["d"])
    lines = ["road_label,start_time_s,bin_s,count"]
    for r in range(n_roads):
        scale = rng.uniform(0.6, 1.4)
        noisy = np.maximum(0.0, base * scale + rng.normal(0.0, 2.0, n_bins))
        counts = np.rint(noisy).astype(int)
        for k in range(n_bins):
            lines.append(f"road_{r:02d},{k * bin_s},{bin_s},{counts[k]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_fixtures(out_dir) -> None:
    from .roadnet import save_network
    import os

    os.makedirs(out_dir, exist_ok=True)
    save_network(make_grid_network(), os.path.join(out_dir, "grid4x4.net"))
    save_network(make_highway_network(), os.path.join(out_dir, "highway8.net"))
    make_city_counts(os.path.join(out_dir, "city_counts.csv"))


if __name__ == "__main__":
    write_fixtures(sys.argv[1] if len(sys.argv) > 1 else ".")
