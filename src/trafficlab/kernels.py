"""Kernel dispatch: compiled extension when available, numpy fallback otherwise.

The two hot loops (per-step car-following update, boosted-tree histogram
accumulation) exist in both a Cython build (_native) and a vectorized numpy
form.  Both forms are kept arithmetically identical, expression by
expression, so a run produces bitwise-equal results on either backend.
Selection order: TRAFFICLAB_PURE=1 forces the numpy path; otherwise the
extension is used when the build produced it.
"""
from __future__ import annotations

import os

import numpy as np

try:
    if os.environ.get("TRAFFICLAB_PURE") == "1":
        raise ImportError("pure-python backend forced by TRAFFICLAB_PURE")
    from . import _native
except ImportError:
    _native = None

HAVE_NATIVE = _native is not None
ACTIVE_BACKEND = "compiled" if HAVE_NATIVE else "python"


def follow_speeds_py(pos, speed, leader, head_free, head_lead_speed, limit,
                     speed_cap, noise, accel, decel, min_gap, vehicle_length,
                     dt, out):
    """Numpy twin of _native.follow_speeds (same op order, see _native.pyx)."""
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


def hist_build_py(codes, rows, grad, hess, hist_g, hist_h, hist_n):
    """Numpy twin of _native.hist_build: one bincount per histogram over the
    flat (feature, bin) cell index, visited row by row, so every cell sums
    its rows in ascending order as the compiled loop does."""
    n_feat, n_bins = hist_g.shape
    cell = codes[rows].astype(np.intp)
    cell += np.arange(n_feat) * n_bins
    cell = cell.ravel()
    size = n_feat * n_bins
    shape = (n_feat, n_bins)
    hist_g += np.bincount(cell, weights=np.repeat(grad[rows], n_feat),
                          minlength=size).reshape(shape)
    hist_h += np.bincount(cell, weights=np.repeat(hess[rows], n_feat),
                          minlength=size).reshape(shape)
    hist_n += np.bincount(cell, minlength=size).reshape(shape)


def follow_speeds(pos, speed, leader, head_free, head_lead_speed, limit,
                  speed_cap, noise, accel, decel, min_gap, vehicle_length,
                  dt, out, backend=None):
    be = _resolve(backend)
    if be == "compiled":
        _native.follow_speeds(pos, speed, leader, head_free, head_lead_speed,
                              limit, speed_cap, noise, accel, decel, min_gap,
                              vehicle_length, dt, out)
    else:
        follow_speeds_py(pos, speed, leader, head_free, head_lead_speed,
                         limit, speed_cap, noise, accel, decel, min_gap,
                         vehicle_length, dt, out)
    return out


def hist_build(codes, rows, grad, hess, hist_g, hist_h, hist_n, backend=None):
    be = _resolve(backend)
    if be == "compiled":
        _native.hist_build(codes, rows, grad, hess, hist_g, hist_h, hist_n)
    else:
        hist_build_py(codes, rows, grad, hess, hist_g, hist_h, hist_n)


def _resolve(backend) -> str:
    be = backend or ACTIVE_BACKEND
    if be not in ("compiled", "python"):
        raise ValueError(f"unknown kernel backend {be!r}")
    if be == "compiled" and not HAVE_NATIVE:
        raise RuntimeError(
            "compiled backend requested but extension is not built")
    return be
