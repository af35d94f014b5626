"""Statistical validation tests.

Index:
  statistic   exact sup-CDF-difference against a brute-force oracle
  p-values    asymptotic series anchors and the permutation fallback,
              whose one-pass null equals the per-permutation loop
  behavior    pass rates under same/different generating processes
  binning     entry-count aggregation from spawn schedules
  report      per-day summary formatting
"""
import math

import numpy as np
import pytest

from trafficlab import validate
from trafficlab.demand import SpawnEvent, SpawnSchedule
from trafficlab.validate import (KsResult, PASS_LEVEL, ValidationError,
                                 _kolmogorov_sf, aggregate_bins,
                                 ks_two_sample, read_validation_report,
                                 write_validation_report)

from conftest import rng_for


def brute_force_ks(a, b):
    """Sup over pooled points of |F_a - F_b|, by definition."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    best = 0.0
    for x in np.concatenate([a, b]):
        fa = np.count_nonzero(a <= x) / a.size
        fb = np.count_nonzero(b <= x) / b.size
        best = max(best, abs(fa - fb))
    return best


def kolmogorov_series(lam, terms=1000):
    """Independent long-sum evaluation of the limiting survival function."""
    if lam <= 0:
        return 1.0
    return min(1.0, max(0.0, 2.0 * sum(
        (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        for j in range(1, terms + 1))))


# -- statistic ---------------------------------------------------------------


def test_statistic_matches_brute_force_on_seeded_pairs():
    for trial in range(20):
        rng = rng_for("ks-pairs", trial)
        n = int(rng.integers(30, 120))
        m = int(rng.integers(30, 120))
        if trial % 2:
            a = rng.normal(0.0, 1.0, n)
            b = rng.normal(0.3, 1.2, m)
        else:
            # integer-valued samples exercise heavy ties
            a = rng.poisson(20.0, n).astype(float)
            b = rng.poisson(24.0, m).astype(float)
        res = ks_two_sample(a, b)
        assert res.statistic == brute_force_ks(a, b)  # exact, not approx
        assert res.n == n and res.m == m


def test_statistic_hand_values():
    disjoint = ks_two_sample(np.arange(1.0, 31.0),
                             np.arange(100.0, 130.0))
    assert disjoint.statistic == 1.0
    assert not disjoint.passed
    same = np.arange(30.0) % 7.0
    equal = ks_two_sample(same, same.copy())
    assert equal.statistic == 0.0
    assert equal.p_value == 1.0
    assert equal.passed


def test_minimum_sample_size_enforced():
    with pytest.raises(ValidationError, match="at least 5"):
        ks_two_sample([1.0, 2.0, 3.0, 4.0], np.arange(10.0))


# -- p-values ----------------------------------------------------------------


def test_asymptotic_p_matches_long_series():
    for trial in range(6):
        rng = rng_for("ks-p", trial)
        a = rng.normal(0.0, 1.0, 80)
        b = rng.normal(0.2, 1.0, 64)
        res = ks_two_sample(a, b)
        lam = math.sqrt(80 * 64 / 144.0) * res.statistic
        assert res.p_value == pytest.approx(kolmogorov_series(lam),
                                            abs=1e-9)


def test_asymptotic_anchor_at_classic_critical_point():
    # the 5% critical value of the limiting distribution is lambda ~ 1.358
    assert kolmogorov_series(1.358) == pytest.approx(0.05, abs=5e-4)
    # construct a sample pair sitting almost exactly there and check the
    # pass verdict flips across the boundary
    assert KsResult(0.0, 0.051, 10, 10).passed
    assert not KsResult(0.5, 0.049, 10, 10).passed


def test_permutation_fallback_is_seeded_and_sane():
    rng = rng_for("ks-perm", 0)
    a = rng.normal(0.0, 1.0, 12)
    b = rng.normal(0.0, 1.0, 18)
    r1 = ks_two_sample(a, b)
    r2 = ks_two_sample(a, b)
    assert r1 == r2
    assert r1.statistic == brute_force_ks(a, b)
    assert 1.0 / 2001.0 <= r1.p_value <= 1.0

    far = ks_two_sample(a, b + 50.0)
    assert far.statistic == 1.0
    assert far.p_value == pytest.approx(1.0 / 2001.0)

    # the asymptotic form the fallback stands in for, at the same statistic
    lam = math.sqrt(12 * 18 / 30.0) * r1.statistic
    assert _kolmogorov_sf(lam) == pytest.approx(kolmogorov_series(lam),
                                                abs=1e-9)


def loop_permutation_p(a, b, d):
    """Reference permutation null: shuffle the pooled sample in place with
    default_rng(0) and score its first a.size values against the rest, one
    permutation at a time."""
    n = a.size
    rng = np.random.default_rng(0)
    pooled = np.concatenate([a, b])
    hits = 0
    for _ in range(validate._PERMUTATIONS):
        rng.shuffle(pooled)
        if validate._ks_statistic(pooled[:n], pooled[n:]) >= d - 1e-12:
            hits += 1
    return (hits + 1) / (validate._PERMUTATIONS + 1)


def test_permutation_null_equals_the_loop(monkeypatch):
    """The one-pass null gives the loop's p-value bit for bit: on tied
    integer samples, continuous ones, a sample tied with itself, and in
    blocks that do not divide the permutation count."""
    cases = []
    for trial in range(5):
        rng = rng_for("ks-null", trial)
        n = int(rng.integers(5, 30))
        m = int(rng.integers(5, 120))
        cases.append((rng.integers(0, 6, n).astype(float),
                      rng.integers(0, 6, m) + float(trial % 3)))
        cases.append((rng.normal(0.0, 1.0, n), rng.normal(0.3, 1.0, m)))
    same = np.array([3.0, 1.0, 3.0, 2.0, 2.0, 5.0])
    cases.append((same, same.copy()))
    for block, some in ((1 << 20, cases), (7 * 41, cases[::4])):
        monkeypatch.setattr(validate, "_BLOCK_CELLS", block)
        for a, b in some:
            d = validate._ks_statistic(a, b)
            got = validate._permutation_p(a, b, d)
            assert got.hex() == loop_permutation_p(a, b, d).hex()
            assert ks_two_sample(a, b).p_value == got


# -- behavior ----------------------------------------------------------------


def test_same_process_usually_passes():
    passed = 0
    trials = 40
    for trial in range(trials):
        rng = rng_for("ks-same", trial)
        a = rng.poisson(30.0, 96).astype(float)
        b = rng.poisson(30.0, 96).astype(float)
        passed += ks_two_sample(a, b).passed
    # a 5% level test should pass same-process pairs ~95% of the time
    assert passed >= 0.8 * trials


def test_shifted_process_is_rejected():
    for trial in range(20):
        rng = rng_for("ks-diff", trial)
        a = rng.poisson(20.0, 96).astype(float)
        b = rng.poisson(35.0, 96).astype(float)
        assert not ks_two_sample(a, b).passed


# -- binning -----------------------------------------------------------------


def test_aggregate_bins_from_schedule():
    events = tuple(SpawnEvent(float(t), "a0", "a3")
                   for t in (0, 1, 99, 100, 250, 250, 250, 999))
    counts = aggregate_bins(SpawnSchedule(events, 1000.0), 100.0)
    assert counts.tolist() == [3, 1, 3, 0, 0, 0, 0, 0, 0, 1]
    # a day of fewer bins than a demand fit needs is still counted
    assert aggregate_bins(SpawnSchedule(events[:4], 300.0),
                          100.0).tolist() == [3, 1, 0]


def test_aggregate_bins_validation():
    sched = SpawnSchedule((SpawnEvent(0.0, "a", "b"),), 1000.0)
    with pytest.raises(ValidationError, match="positive"):
        aggregate_bins(sched, 0.0)
    with pytest.raises(ValidationError, match="does not divide"):
        aggregate_bins(sched, 300.0)


# -- report ------------------------------------------------------------------


def test_validation_report_format(tmp_path):
    results = [(0, KsResult(0.125, 0.25, 96, 96)),
               (1, KsResult(0.5, 0.001, 96, 96))]
    path = tmp_path / "validation.csv"
    write_validation_report(results, path)
    assert path.read_text(encoding="utf-8") == (
        "day,ks_statistic,p_value,pass\n0,0.125,0.25,1\n1,0.5,0.001,0\n")
    assert read_validation_report(path) == [(0, 0.125, 0.25, True),
                                            (1, 0.5, 0.001, False)]
    # 17-digit floats and numpy scalars read back equal
    results = [(3, KsResult(np.float64(0.1 + 0.2), 1.0 / 3.0, 96, 96))]
    write_validation_report(results, path)
    assert read_validation_report(path) == [
        (3, 0.30000000000000004, 1.0 / 3.0, True)]
    path.write_text("day,ks_statistic,p_value,pass\n0,0.1,0.5,yes\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match=r"validation\.csv:2: pass is "
                                              r"'yes', expected 0 or 1"):
        read_validation_report(path)
