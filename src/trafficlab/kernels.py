"""The two numpy hot loops: the per-step car-following speed update and the
boosted-tree histogram accumulation.

Callers reach them as ``kernels.follow_speeds`` and ``kernels.hist_build``
so that a tracer can wrap the module attributes from outside.
"""
from __future__ import annotations

import numpy as np

# the only backend; perfbench/run.py checks it and records it in its env line
ACTIVE_BACKEND = "python"


def follow_speeds(pos, speed, leader, head_free, head_lead_speed, limit,
                  speed_cap, noise, accel, decel, min_gap, vehicle_length,
                  dt, out):
    """Safe speed for every vehicle, written into ``out`` and returned.

    A vehicle with ``leader >= 0`` brakes behind that index's pre-step
    position and speed; a queue head (``leader == -1``) uses its own free
    run ``head_free`` and ``head_lead_speed``.  The result is capped by
    acceleration, the segment ``limit``, the free run per step and
    ``speed_cap``, minus ``noise``, and clamped at zero.
    """
    has_leader = leader >= 0
    lead = np.where(has_leader, leader, 0)
    fr = np.where(has_leader,
                  pos[lead] - vehicle_length - pos - min_gap,
                  head_free)
    vl = np.where(has_leader, speed[lead], head_lead_speed)
    np.maximum(fr, 0.0, out=fr)
    bt = decel * dt
    vs = -bt + np.sqrt(bt * bt + vl * vl + 2.0 * decel * fr)
    vd = np.minimum(speed + accel * dt, limit)
    np.minimum(vd, vs, out=vd)
    np.minimum(vd, fr / dt, out=vd)
    np.minimum(vd, speed_cap, out=vd)
    vd = vd - noise
    np.maximum(vd, 0.0, out=vd)
    out[:] = vd
    return out


def hist_build(cells, rows, grad, hess, size):
    """Gradient sum, hessian sum and row count of ``rows`` in each of
    ``size`` histogram cells, returned as three flat arrays.

    ``cells[i, f]`` is row i's cell for feature f: its bin code plus f
    times the bins per feature.  One bincount per histogram over the flat
    cells of ``rows``, visited row by row, so every cell sums its rows in
    ascending order and a tree fit is bitwise reproducible.
    """
    cell = cells[rows].ravel()
    n_feat = cells.shape[1]
    return (np.bincount(cell, weights=np.repeat(grad[rows], n_feat),
                        minlength=size),
            np.bincount(cell, weights=np.repeat(hess[rows], n_feat),
                        minlength=size),
            np.bincount(cell, minlength=size))
