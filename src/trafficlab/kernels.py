"""The two hot loops: the 1 Hz car-following move, which also sights the
moved vehicles for the sensors, and the boosted-tree histogram
accumulation.

`follow_speeds` walks the lane queues on Python floats, one vehicle at a
time, moves each by one step of the simulator's fixed 1 s (a speed in m/s
is the step's move in m) and appends it to the slot list of each sensor
whose range holds its new position.  `hist_build` is three numpy
bincounts.  Callers reach them as ``kernels.follow_speeds`` and
``kernels.hist_build`` so that a tracer can wrap the module attributes
from outside.
"""
from __future__ import annotations

import math

import numpy as np

# the only backend; perfbench/run.py checks it and records it in its env line
ACTIVE_BACKEND = "python"


def follow_speeds(noise, lanes, halted_by, pos, speed, accel, decel,
                  min_gap, vehicle_length, range_m):
    """Move every queued vehicle one 1 s step: safe speed, then position,
    then the sensors that see it.

    ``lanes`` holds one ``(queue, head_free, head_lead_speed, (limit,
    cap, zones, seg_len, ahead, behind))`` per lane queue to move: the
    queue's vehicle slots front to back, its head's free run and effective
    leader speed, and the lane's row: its speed limit, the incident cap of
    the vehicles whose pre-step position lies in one of the closed
    ``(lo, hi)`` intervals of ``zones``, its segment length, and the slot
    lists of the sensors the lane approaches and departs from (None where
    no sensor watches that end).  ``noise`` holds one term per vehicle,
    in the same order.  Every follower brakes behind its leader's
    pre-step position and speed.  The speed is capped
    by acceleration, the limit, the free run (the whole step's move) and
    the zone cap, is 0.0 for a vehicle whose ``halted_by`` is set (>= 0),
    then loses the noise and is clamped at zero; the position advances by
    the speed.  ``speed[slot]`` and ``pos[slot]`` (lists of floats) are
    written in place.  A moved vehicle at new position p is appended to
    ``ahead`` when ``seg_len - p <= range_m`` and to ``behind`` when
    ``p <= range_m``.

    Every comparison takes the second operand on a tie, as numpy's
    minimum and maximum do, so signed zeros come out as the vectorized
    form gives them.
    """
    sqrt = math.sqrt
    neg_b = -decel
    b2 = decel * decel
    two_b = 2.0 * decel
    k = 0
    for q, fr, vl, (lim, cap, zones, seg_len, ahead, behind) in lanes:
        if fr <= 0.0:
            fr = 0.0
        back = None  # the leader's pre-step rear bumper
        for slot in q:
            p = pos[slot]
            v = speed[slot]
            if back is not None:
                fr = back - p - min_gap
                if fr <= 0.0:
                    fr = 0.0
            vn = v + accel
            if lim <= vn:
                vn = lim
            x = neg_b + sqrt(b2 + vl * vl + two_b * fr)
            if x <= vn:
                vn = x
            if fr <= vn:
                vn = fr
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
            pos[slot] = pn = p + vn
            if ahead is not None and seg_len - pn <= range_m:
                ahead.append(slot)
            if behind is not None and pn <= range_m:
                behind.append(slot)
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
