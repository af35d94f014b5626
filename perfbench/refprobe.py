"""The reference probe: a fixed piece of CPU work that owes nothing to
trafficlab, timed between stage calls to gauge how fast the machine runs.

On a shared host the same pipeline can take twice as long from one minute
to the next, as other tenants of the cores come and go, and a run of tens
of seconds cannot average that out.  The probe slows down with the
pipeline, so a stage time divided by the probe's median time in the same
run (a time in probe units) keeps what the program costs and drops much
of the swing.  The probe runs outside every timed stage.  Its work is the
kind the pipeline does, in about equal parts: interpreter-bound loops over
small arrays and dicts (the simulation), weighted histograms with
cumulative sums and argmax over them (the split search), and a sort and
float formatting (the CSV files).
"""
from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_VEC = np.arange(64, dtype=float)
_CODES = _RNG.integers(0, 256, size=(4000, 16))
_GRAD = _RNG.random(4000)
_VALUES = _RNG.random(100_000)


def _kernel() -> float:
    seen: dict = {}
    acc = 0.0
    for i in range(3000):
        row = _VEC * 1.0001 + i
        acc += float(row[i & 63]) + float(row.sum())
        seen[i % 97] = seen.get(i % 97, 0) + 1
    for k in range(40):
        rows = np.nonzero(_CODES[:, k % 16] > 100)[0]
        hist = np.zeros((16, 256))
        for f in range(16):
            hist[f] = np.bincount(_CODES[rows, f], weights=_GRAD[rows],
                                  minlength=256)
        cum = np.cumsum(hist, axis=1)
        acc += float(np.argmax(cum[:, :-1] * (cum[:, -1:] - cum[:, :-1])))
    text = ",".join(f"{v:.3f}" for v in np.sort(_VALUES)[:20000])
    return acc + len(seen) + len(text)


def sample(out: list) -> None:
    """Append the wall time of one probe call to out."""
    t0 = time.perf_counter()
    _kernel()
    out.append(time.perf_counter() - t0)
