"""The two hot loops: the per-step car-following move and the
boosted-tree histogram accumulation.

`follow_speeds` walks the lane queues on Python floats, one vehicle at a
time; `hist_build` is three numpy bincounts.  Callers reach them as
``kernels.follow_speeds`` and ``kernels.hist_build`` so that a tracer can
wrap the module attributes from outside.
"""
from __future__ import annotations

import math

import numpy as np

# the only backend; perfbench/run.py checks it and records it in its env line
ACTIVE_BACKEND = "python"


def follow_speeds(noise, lanes, halted_by, pos, speed, accel, decel,
                  min_gap, vehicle_length, dt):
    """Move every queued vehicle one step: safe speed, then position.

    ``lanes`` holds one ``(queue, head_free, head_lead_speed, limit, cap,
    zones)`` per lane queue to move: the queue's vehicle slots front to
    back, its head's free run and effective leader speed, its speed limit,
    and the incident cap of the vehicles whose pre-step position lies in
    one of the closed ``(lo, hi)`` intervals of ``zones``.  ``noise``
    holds one term per vehicle, in the same order.  Every follower brakes
    behind its leader's pre-step position and speed.  The speed is capped
    by acceleration, the limit, the free run per step and the zone cap,
    is 0.0 for a vehicle whose ``halted_by`` is set (>= 0), then loses
    the noise and is clamped at zero; ``speed[slot]`` and ``pos[slot]``
    (lists of floats) are written in place.

    Every comparison takes the second operand on a tie, as numpy's
    minimum and maximum do, so signed zeros come out as the vectorized
    form gives them.
    """
    sqrt = math.sqrt
    adt = accel * dt
    bt = decel * dt
    neg_bt = -bt
    bt2 = bt * bt
    two_b = 2.0 * decel
    k = 0
    for q, fr, vl, lim, cap, zones in lanes:
        back = None  # the leader's pre-step rear bumper
        for slot in q:
            p = pos[slot]
            v = speed[slot]
            if back is not None:
                fr = back - p - min_gap
            if fr <= 0.0:
                fr = 0.0
            vn = v + adt
            if lim <= vn:
                vn = lim
            x = neg_bt + sqrt(bt2 + vl * vl + two_b * fr)
            if x <= vn:
                vn = x
            x = fr / dt
            if x <= vn:
                vn = x
            if zones:
                for lo, hi in zones:
                    if lo <= p <= hi:
                        if cap <= vn:
                            vn = cap
                        break
            if halted_by[slot] >= 0:
                vn = 0.0
            vn = vn - noise[k]
            k += 1
            if vn <= 0.0:
                vn = 0.0
            speed[slot] = vn
            pos[slot] = p + vn * dt
            back = p - vehicle_length
            vl = v


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
