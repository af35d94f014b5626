"""Two-sample Kolmogorov-Smirnov validation of synthetic demand.

The statistic is the exact sup-difference of the two empirical CDFs; the
p-value uses the asymptotic Kolmogorov distribution at effective size
n*m/(n+m), or a seeded permutation null when either sample is small.  A day
of synthetic data passes when its per-bin entry counts, taken from the
day's spawn schedule, are statistically indistinguishable from the fitted
curve's binned values at the 0.05 level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import read_csv, write_lines
from .demand import SpawnSchedule

PASS_LEVEL = 0.05
_SMALL_SAMPLE = 30
_PERMUTATIONS = 2000
_BLOCK_CELLS = 1 << 20


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int
    m: int

    @property
    def passed(self) -> bool:
        return self.p_value >= PASS_LEVEL


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Exact sup |F_a - F_b| over the pooled sample points."""
    grid = np.concatenate([a, b])
    grid.sort(kind="mergesort")
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _kolmogorov_sf(lam: float) -> float:
    """Asymptotic survival function Q(lam) = 2 * sum (-1)^(j-1) e^(-2 j^2 lam^2)."""
    if lam < 1e-3:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def _permutation_p(a: np.ndarray, b: np.ndarray, d: float) -> float:
    """(hits + 1) / (permutations + 1), a hit being a relabeling whose
    statistic reaches d - 1e-12.  Permutation k takes the first a.size
    members of the pooled sample after k in-place shuffles by
    default_rng(0); the shuffles move an index vector, whose draws depend
    only on its length, so they are the pooled sample's own.  Each
    permutation's statistic comes from its count of first members at or
    below each pooled value: a running count in pooled-rank order, read at
    the last of each group of ties.  Permutations go in blocks of at most
    _BLOCK_CELLS pooled entries."""
    n = a.size
    pooled = np.concatenate([a, b])
    size = pooled.size
    order = np.argsort(pooled, kind="stable")
    rank = np.empty(size, dtype=np.intp)
    rank[order] = np.arange(size)
    ranked = pooled[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    at_or_below = last + 1
    rng = np.random.default_rng(0)
    perm = np.arange(size)
    block = max(1, _BLOCK_CELLS // size)
    hits = 0
    for done in range(0, _PERMUTATIONS, block):
        first = np.empty((min(block, _PERMUTATIONS - done), n),
                         dtype=np.intp)
        for row in first:
            rng.shuffle(perm)
            row[:] = perm[:n]
        member = np.zeros((first.shape[0], size), dtype=np.intp)
        np.put_along_axis(member, rank[first], 1, axis=1)
        in_a = member.cumsum(axis=1)[:, last]
        stat = np.abs(in_a / n - (at_or_below - in_a) / (size - n))
        hits += int(np.count_nonzero(stat.max(axis=1) >= d - 1e-12))
    return (hits + 1) / (_PERMUTATIONS + 1)


def ks_two_sample(a, b) -> KsResult:
    """Two-sample KS test.

    Asymptotic p-value for comfortably sized samples; when min(n, m) is
    below 30 the p-value comes from a permutation null with a fixed seed
    instead, since the asymptotic form is unreliable there.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 5 or b.size < 5:
        raise ValidationError("KS test needs at least 5 samples per side")
    d = _ks_statistic(a, b)
    n, m = a.size, b.size
    if min(n, m) < _SMALL_SAMPLE:
        p = _permutation_p(a, b, d)
    else:
        lam = math.sqrt(n * m / (n + m)) * d
        p = _kolmogorov_sf(lam)
    return KsResult(d, p, n, m)


def aggregate_bins(schedule: SpawnSchedule, bin_s: float) -> np.ndarray:
    """Per-bin counts of vehicles entering the network, bin k starting at
    k * bin_s: the schedule's spawn times, bucketed.  Any number of bins
    is returned; the KS test sets its own floor of 5."""
    if bin_s <= 0:
        raise ValidationError("bin duration must be positive")
    horizon = float(schedule.horizon)
    n_bins = horizon / bin_s
    if abs(n_bins - round(n_bins)) > 1e-9:
        raise ValidationError(
            f"bin {bin_s} does not divide horizon {horizon}")
    times = np.array([ev.time for ev in schedule.events], dtype=np.float64)
    return np.bincount((times // bin_s).astype(np.int64),
                       minlength=int(round(n_bins)))


VALIDATION_HEADER = "day,ks_statistic,p_value,pass"


def write_validation_report(results, path) -> None:
    """Per-day `day,ks_statistic,p_value,pass` rows from (day, KsResult)
    pairs."""
    write_lines(path, [VALIDATION_HEADER] + [
        f"{day},{float(r.statistic)!r},{float(r.p_value)!r},{int(r.passed)}"
        for day, r in results])


def read_validation_report(path) -> list:
    """The (day, statistic, p_value, passed) rows of a report that
    write_validation_report wrote, equal to what it was given; a pass field
    other than 0 or 1 raises ValidationError."""
    def parse(f):
        if f[3] not in ("0", "1"):
            raise ValueError(f"pass is {f[3]!r}, expected 0 or 1")
        return int(f[0]), float(f[1]), float(f[2]), f[3] == "1"

    return read_csv(path, ValidationError, VALIDATION_HEADER, parse)[1]
