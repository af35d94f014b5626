"""Macroscopic demand fitting and per-second spawn synthesis.

Pipeline: read 15-minute road counts, average across roads, initialize a
two-sinusoid flow model from the spectrum's top two non-DC peaks, refine with
damped Gauss-Newton (fixed damping), then synthesize per-second vehicle
spawns as an inhomogeneous Poisson process whose rate follows the fitted
curve plus a per-bin deviation drawn from the residual spread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import read_csv, roadnet, write_lines


class DemandError(ValueError):
    """Demand fitting or synthesis failure."""


@dataclass
class MacroCountSeries:
    bin_duration: float
    counts: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.counts.ndim != 1 or self.counts.size < 8:
            raise DemandError("count series needs at least 8 bins")
        if not np.all(np.isfinite(self.counts)) or np.any(self.counts < 0):
            raise DemandError("counts must be finite and non-negative")
        if not 0 < self.bin_duration < math.inf:  # NaN included
            raise DemandError(f"bin duration {self.bin_duration!r} must be "
                              f"positive and finite")
        if not math.isfinite(self.start_time):
            raise DemandError(f"start time {self.start_time!r} is not finite")

    def times(self) -> np.ndarray:
        """Absolute bin-start times in seconds."""
        return self.start_time + np.arange(self.counts.size) * self.bin_duration


@dataclass
class FlowModelParams:
    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float
    d: float
    alpha_sigma: float = 0.0
    fit_rmse: float = 0.0

    def as_vector(self) -> np.ndarray:
        return np.array([self.a1, self.b1, self.c1,
                         self.a2, self.b2, self.c2, self.d])


# Gauss-Newton refinement: fixed damping (no adaptive schedule), an
# iteration cap, and the relative RMSE change that ends the iteration
LM_DAMPING = 0.01
LM_MAX_ITERS = 200
LM_TOL = 1e-8


@dataclass(frozen=True)
class SpawnEvent:
    time: float
    entry: str
    exit: str


@dataclass
class SpawnSchedule:
    events: tuple
    horizon: float

    def __post_init__(self):
        self.events = tuple(self.events)
        prev = -1.0
        for ev in self.events:
            if not (0.0 <= ev.time < self.horizon):
                raise DemandError(f"spawn time {ev.time} outside [0, horizon)")
            if ev.time < prev:
                raise DemandError("spawn times must be non-decreasing")
            prev = ev.time


COUNTS_HEADER = "road_label,start_time_s,bin_s,count"


def read_counts_csv(path) -> dict:
    """Parse `road_label,start_time_s,bin_s,count` rows into one
    MacroCountSeries per road, bins sorted and contiguity-checked."""
    rows: dict = {}
    for label, rec in read_csv(path, DemandError, COUNTS_HEADER, lambda f: (
            f[0].strip(), (float(f[1]), float(f[2]), float(f[3]))))[1]:
        rows.setdefault(label, []).append(rec)
    if not rows:
        raise DemandError(f"{path}: no count rows")
    out = {}
    for label in sorted(rows):
        try:
            out[label] = _count_series(sorted(rows[label]))
        except DemandError as exc:
            raise DemandError(f"{path}: road {label!r}: {exc}") from None
    return out


def _count_series(recs) -> MacroCountSeries:
    """One road's sorted (start, bin, count) rows as a series."""
    bins = {r[1] for r in recs}
    if len(bins) != 1:
        raise DemandError(f"mixed bin durations {bins}")
    bin_s = bins.pop()
    starts = [r[0] for r in recs]
    series = MacroCountSeries(bin_s, [r[2] for r in recs], starts[0])
    for i in range(1, len(starts)):
        if not abs(starts[i] - starts[i - 1] - bin_s) <= 1e-9:  # NaN too
            raise DemandError(f"non-contiguous bins at t={starts[i]}")
    return series


def average_counts(series_list) -> MacroCountSeries:
    if not series_list:
        raise DemandError("cannot average an empty series list")
    first = series_list[0]
    for s in series_list[1:]:
        if s.bin_duration != first.bin_duration:
            raise DemandError("bin durations differ across series")
        if s.counts.size != first.counts.size:
            raise DemandError("series lengths differ")
    stacked = np.stack([s.counts for s in series_list])
    return MacroCountSeries(first.bin_duration, stacked.mean(axis=0),
                            first.start_time)


def _model(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    a1, b1, c1, a2, b2, c2, d = theta
    return a1 * np.sin(b1 * t + c1) + a2 * np.sin(b2 * t + c2) + d


def _rmse(theta: np.ndarray, t: np.ndarray, y: np.ndarray) -> float:
    # overflow on absurd parameters yields inf, which callers treat as
    # a divergence signal rather than a warning-worthy surprise
    with np.errstate(over="ignore"):
        r = y - _model(theta, t)
        return float(np.sqrt(np.mean(r * r)))


def _wrap_phase(c: float) -> float:
    return (c + math.pi) % (2.0 * math.pi) - math.pi


def fft_init_params(series: MacroCountSeries) -> FlowModelParams:
    """Seed the flow model from the two largest non-DC spectral peaks.

    For peak bin k of an N-bin series: angular frequency 2*pi*k/(N*bin),
    amplitude 2|X_k|/N, and phase arg(X_k) + pi/2 shifted to absolute time
    (the +pi/2 converts the transform's cosine reference to the model's
    sine).  The stronger peak becomes component 1.
    """
    y = series.counts
    n = y.size
    spec = np.fft.rfft(y)
    mags = np.abs(spec)
    if mags[1:].size < 2:
        raise DemandError("series too short for two spectral components")
    floor = 1e-9 * max(1.0, float(mags[0]))
    if float(mags[1:].max()) <= floor:
        raise DemandError("no non-DC spectral peak: series is flat")
    order = sorted(range(1, mags.size), key=lambda k: (-mags[k], k))
    comps = []
    for k in order[:2]:
        amp = 2.0 * float(mags[k]) / n
        b = 2.0 * math.pi * k / (n * series.bin_duration)
        c = _wrap_phase(float(np.angle(spec[k])) + math.pi / 2.0
                        - b * series.start_time)
        comps.append((amp, b, c))
    d = float(y.mean())
    theta = np.array([comps[0][0], comps[0][1], comps[0][2],
                      comps[1][0], comps[1][1], comps[1][2], d])
    return FlowModelParams(*theta, alpha_sigma=0.0,
                           fit_rmse=_rmse(theta, series.times(), y))


def lm_fit(series: MacroCountSeries,
           init: FlowModelParams) -> FlowModelParams:
    """Damped Gauss-Newton refinement with a fixed damping factor.

    Every iteration solves (J'J + damping*I) delta = J'(y - f) with the
    analytic Jacobian and takes the step; the best-seen parameters (the
    initialization included) are returned, so fit_rmse never exceeds
    init.fit_rmse.  Ten consecutive worsening steps raise a divergence
    error; a singular normal-equations system is reported, not patched.
    """
    if init.b1 <= 0 or init.b2 <= 0:
        raise DemandError("initial angular frequencies must be positive")
    theta = init.as_vector()
    if not np.all(np.isfinite(theta)):
        raise DemandError("initial parameters must be finite")
    t = series.times()
    y = series.counts
    eye = np.eye(7)

    best_theta = theta.copy()
    best_rmse = _rmse(theta, t, y)
    prev_rmse = best_rmse
    worsening = 0
    for _ in range(LM_MAX_ITERS):
        a1, b1, c1, a2, b2, c2, _d = theta
        s1 = np.sin(b1 * t + c1)
        s2 = np.sin(b2 * t + c2)
        cos1 = np.cos(b1 * t + c1)
        cos2 = np.cos(b2 * t + c2)
        jac = np.column_stack([s1, a1 * t * cos1, a1 * cos1,
                               s2, a2 * t * cos2, a2 * cos2,
                               np.ones_like(t)])
        with np.errstate(over="ignore", invalid="ignore"):
            resid = y - _model(theta, t)
            try:
                delta = np.linalg.solve(jac.T @ jac + LM_DAMPING * eye,
                                        jac.T @ resid)
            except np.linalg.LinAlgError as exc:
                raise DemandError(f"singular normal equations: {exc}") from exc
        theta = theta + delta
        rmse = _rmse(theta, t, y)
        if not math.isfinite(rmse):
            raise DemandError("fit diverged to non-finite parameters")
        if rmse < best_rmse:
            best_rmse = rmse
            best_theta = theta.copy()
        if rmse > prev_rmse:
            worsening += 1
            if worsening >= 10:
                raise DemandError("fit diverged: RMSE grew for 10 iterations")
        else:
            worsening = 0
        if abs(prev_rmse - rmse) <= LM_TOL * max(prev_rmse, 1e-12):
            break
        prev_rmse = rmse

    a1, b1, c1, a2, b2, c2, d = _normalize_components(best_theta)
    resid = y - _model(np.array([a1, b1, c1, a2, b2, c2, d]), t)
    return FlowModelParams(a1, b1, c1, a2, b2, c2, d,
                           alpha_sigma=float(np.std(resid)),
                           fit_rmse=best_rmse)


def _normalize_components(theta: np.ndarray) -> np.ndarray:
    """Canonical form: amplitudes >= 0, angular frequencies > 0, phases in
    [-pi, pi).  Uses sin(-x) = sin(x + pi) style identities, so the curve is
    unchanged."""
    out = theta.copy()
    for base in (0, 3):
        a, b, c = out[base:base + 3]
        if b < 0:
            b, c = -b, _wrap_phase(math.pi - c)
        if a < 0:
            a, c = -a, _wrap_phase(c + math.pi)
        out[base:base + 3] = a, b, _wrap_phase(c)
    return out


def eval_flow(params: FlowModelParams, t) -> np.ndarray:
    """Expected per-bin counts at the times t, clamped at zero."""
    t = np.asarray(t, dtype=np.float64)
    return np.maximum(_model(params.as_vector(), t), 0.0)


def spawn_schedule(params: FlowModelParams, network, horizon: float, seed,
                   bin_duration: float = 900.0, entry_weights=None,
                   exit_weights=None) -> SpawnSchedule:
    """Inhomogeneous Poisson spawn events at integer seconds.

    Per-second rate = clamp(f(t) + alpha_bin, 0) / bin_duration, where
    alpha_bin is one Normal(0, alpha_sigma) draw per bin (the daily-deviation
    term held constant within its bin).  Entry nodes are drawn from the
    configured weights; exits from the weights renormalized over the exits
    actually reachable from the drawn entry (the entry itself excluded).
    """
    if horizon <= 0:
        raise DemandError("horizon must be positive")
    if params.b1 <= 0 or params.b2 <= 0:
        raise DemandError("angular frequencies must be positive")
    rng = np.random.default_rng(seed)
    horizon_i = int(horizon)

    n_bins = int(math.ceil(horizon_i / bin_duration))
    alpha = rng.normal(0.0, params.alpha_sigma, size=n_bins)
    t = np.arange(horizon_i, dtype=np.float64)
    bin_idx = (t // bin_duration).astype(np.intp)
    rates = np.maximum(_model(params.as_vector(), t) + alpha[bin_idx], 0.0)
    rates /= bin_duration
    counts = rng.poisson(rates)

    entries, entry_p, exits_per_entry = _od_tables(
        network, entry_weights, exit_weights)
    total = int(counts.sum())
    if total == 0:
        return SpawnSchedule((), float(horizon))
    entry_idx = rng.choice(len(entries), size=total, p=entry_p)
    exit_choice = np.empty(total, dtype=object)
    for e in range(len(entries)):
        mask = entry_idx == e
        k = int(mask.sum())
        if k == 0:
            continue
        exit_ids, exit_p = exits_per_entry[e]
        exit_choice[mask] = rng.choice(exit_ids, size=k, p=exit_p)
    times = np.repeat(t, counts)
    events = tuple(SpawnEvent(float(times[i]), entries[int(entry_idx[i])],
                              str(exit_choice[i]))
                   for i in range(total))
    return SpawnSchedule(events, float(horizon))


def _od_tables(network, entry_weights, exit_weights):
    """Entries with their draw probabilities and, per entry, the reachable
    exit list (self excluded) with renormalized probabilities.  A weight
    for a node that is not an entry (or exit) of the network, or one that
    is negative or not finite, is an error."""
    for kind, weights, nodes in (("entry", entry_weights, network.entry_nodes),
                                 ("exit", exit_weights, network.exit_nodes)):
        unknown = sorted(set(weights or ()) - set(nodes))
        if unknown:
            raise DemandError(f"{kind}_weights names {', '.join(unknown)}, "
                              f"not {kind} node(s) of the network")
        check_weights(f"{kind}_weights", weights or {})
    all_exits = list(network.exit_nodes)
    entries = []
    exits_per_entry = []
    for entry in network.entry_nodes:
        reach = roadnet._reachable(network, entry)
        ex = [x for x in all_exits if x in reach and x != entry]
        if not ex:
            continue
        w = np.array([_weight(exit_weights, x) for x in ex], dtype=np.float64)
        if w.sum() <= 0:
            continue
        entries.append(entry)
        exits_per_entry.append((ex, w / w.sum()))
    if not entries:
        raise DemandError("no entry node has a reachable, weighted exit")
    ew = np.array([_weight(entry_weights, e) for e in entries],
                  dtype=np.float64)
    if ew.sum() <= 0:
        raise DemandError("entry weights sum to zero")
    return entries, ew / ew.sum(), exits_per_entry


def check_weights(name: str, weights: dict) -> None:
    """Refuse a weight in the map `name` that is negative or not finite;
    the experiment config checks its weights with this at load."""
    for node, w in weights.items():
        if not 0.0 <= float(w) < math.inf:  # NaN included
            raise DemandError(f"{name} gives {node} the weight {w!r}; "
                              "weights must be finite and non-negative")


def _weight(weights, node_id: str) -> float:
    if weights is None:
        return 1.0
    return float(weights.get(node_id, 0.0))


SCHEDULE_HEADER = "time_s,entry,exit"


def write_schedule(schedule: SpawnSchedule, path) -> None:
    write_lines(path, chain([SCHEDULE_HEADER], (
        f"{roadnet._fmt(ev.time)},{ev.entry},{ev.exit}"
        for ev in schedule.events)))


def read_schedule(path, horizon: float) -> SpawnSchedule:
    events = read_csv(path, DemandError, SCHEDULE_HEADER,
                      lambda f: SpawnEvent(float(f[0]), f[1], f[2]))[1]
    try:
        return SpawnSchedule(tuple(events), horizon)
    except DemandError as exc:
        raise DemandError(f"{path}: {exc}") from None
