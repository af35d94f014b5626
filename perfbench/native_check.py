"""Backend-equality cross-check for the optional compiled kernels.

When ``trafficlab._native`` is importable, its two kernels must give the
same results as the numpy twins in ``trafficlab.kernels`` on seeded random
inputs: bitwise for the speed update, and to 1e-9 for the histograms, whose
float sums may accumulate in another order.  The benchmark itself always
runs the numpy backend; this check only guards the compiled build against
drifting from it.
"""
from __future__ import annotations

import numpy as np

from trafficlab import kernels


def native_module():
    """The compiled extension, or None when it is not built."""
    try:
        from trafficlab import _native
    except ImportError:
        return None
    return _native


def cross_check(native, seed: int, n: int = 5000) -> list:
    """Names of the kernels whose two backends disagree (empty when both
    agree)."""
    rng = np.random.default_rng(seed)
    bad = []

    # a mixed queue: 80% followers, heads with finite headroom, some caps
    pos = np.sort(rng.uniform(0.0, 5000.0, n))[::-1].copy()
    speed = rng.uniform(0.0, 14.0, n)
    leader = np.arange(-1, n - 1, dtype=np.int32)
    leader[rng.random(n) < 0.2] = -1
    args = (pos, speed, leader, rng.uniform(0.0, 200.0, n),
            rng.uniform(0.0, 14.0, n), np.full(n, 14.0),
            np.where(rng.random(n) < 0.1, 3.0, np.inf),
            rng.uniform(0.0, 0.26, n), 2.6, 4.5, 2.5, 5.0, 1.0)
    out_py, out_c = np.empty(n), np.empty(n)
    kernels.follow_speeds_py(*args, out_py)
    native.follow_speeds(*args, out_c)
    if not np.array_equal(out_py, out_c):
        bad.append("follow_speeds")

    codes = rng.integers(0, 64, (n, 20), dtype=np.uint8)
    rows = np.nonzero(rng.random(n) < 0.8)[0].astype(np.int32)
    grad = rng.normal(0.0, 1.0, n)
    hess = rng.uniform(0.1, 1.0, n)
    acc_py = [np.zeros((20, 64)) for _ in range(3)]
    acc_c = [np.zeros((20, 64)) for _ in range(3)]
    kernels.hist_build_py(codes, rows, grad, hess, *acc_py)
    native.hist_build(codes, rows, grad, hess, *acc_c)
    if not all(np.allclose(a, b, rtol=0, atol=1e-9)
               for a, b in zip(acc_py, acc_c)):
        bad.append("hist_build")
    return bad
