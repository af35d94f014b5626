"""Built-in network and count fixtures.

The committed files under trafficlab/data/ are the only source of the two
bundled scenarios, a signalized 4-by-4 urban grid (`grid4x4.net`) and a
linear highway with on/off ramps (`highway8.net`), and of a 12-road
macroscopic count file shaped like a municipal 15-minute export
(`city_counts.csv`).
"""
from __future__ import annotations

from importlib import resources


def bundled_path(name: str):
    """Filesystem path of a committed data fixture."""
    return resources.files("trafficlab").joinpath("data").joinpath(name)
