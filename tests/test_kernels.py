"""Numpy hot-loop checks.

Index:
  semantics        vectorized kernels match a scalar re-derivation
  reference        one-pass histograms equal the per-feature bincount form
"""
import numpy as np
import pytest

from trafficlab import kernels

from conftest import rng_for


def _random_follow_case(rng, n):
    pos = np.sort(rng.uniform(0, 500, n))[::-1].copy()
    speed = rng.uniform(0, 15, n)
    leader = np.arange(-1, n - 1, dtype=np.int32)  # chain, head first
    head_free = rng.uniform(0, 400, n)
    head_lead_speed = rng.uniform(0, 15, n)
    limit = rng.uniform(5, 20, n)
    speed_cap = np.where(rng.random(n) < 0.2, rng.uniform(0, 5, n), np.inf)
    noise = rng.uniform(0, 0.26, n)
    out = np.empty(n)
    return dict(pos=pos, speed=speed, leader=leader, head_free=head_free,
                head_lead_speed=head_lead_speed, limit=limit,
                speed_cap=speed_cap, noise=noise, accel=2.6, decel=4.5,
                min_gap=2.5, vehicle_length=5.0, dt=1.0, out=out)


def _scalar_follow(case):
    """Independent per-vehicle re-derivation of the speed update."""
    n = len(case["pos"])
    expect = np.empty(n)
    b, dt = case["decel"], case["dt"]
    for i in range(n):
        li = case["leader"][i]
        if li >= 0:
            fr = (case["pos"][li] - case["vehicle_length"] - case["pos"][i]
                  - case["min_gap"])
            vl = case["speed"][li]
        else:
            fr = case["head_free"][i]
            vl = case["head_lead_speed"][i]
        fr = max(fr, 0.0)
        bt = b * dt
        vsafe = -bt + np.sqrt(bt * bt + vl * vl + 2.0 * b * fr)
        vdes = min(case["speed"][i] + case["accel"] * dt, case["limit"][i],
                   vsafe, fr / dt, case["speed_cap"][i])
        expect[i] = max(vdes - case["noise"][i], 0.0)
    return expect


def test_follow_speeds_matches_scalar_oracle():
    """Vectorized speed update equals the scalar formula exactly."""
    for k in range(30):
        rng = rng_for("follow-scalar", k)
        case = _random_follow_case(rng, int(rng.integers(1, 60)))
        got = kernels.follow_speeds(**case)
        expect = _scalar_follow(case)
        assert np.array_equal(got, expect)


def _random_hist_case(rng, n, d, bins):
    codes = rng.integers(0, bins, size=(n, d), dtype=np.uint8)
    rows = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
    rows = rows.astype(np.int32)
    grad = rng.normal(size=n)
    hess = rng.uniform(0.01, 1.0, size=n)
    shape = (d, bins)
    return codes, rows, grad, hess, shape


def test_hist_build_matches_direct_sums():
    """Histogram accumulation equals per-bin masked sums."""
    for k in range(20):
        rng = rng_for("hist-oracle", k)
        codes, rows, grad, hess, (d, bins) = _random_hist_case(
            rng, int(rng.integers(5, 300)), int(rng.integers(1, 8)),
            int(rng.integers(2, 32)))
        hg = np.zeros((d, bins))
        hh = np.zeros((d, bins))
        hn = np.zeros((d, bins))
        kernels.hist_build(codes, rows, grad, hess, hg, hh, hn)
        for f in range(d):
            for b in range(bins):
                mask = codes[rows, f] == b
                assert hg[f, b] == pytest.approx(grad[rows][mask].sum(),
                                                 abs=1e-12)
                assert hh[f, b] == pytest.approx(hess[rows][mask].sum(),
                                                 abs=1e-12)
                assert hn[f, b] == mask.sum()


def bincount_hist_build(codes, rows, grad, hess, hist_g, hist_h, hist_n):
    """Reference histograms: three bincounts per feature."""
    n_bins = hist_g.shape[1]
    sub = codes[rows]
    g = grad[rows]
    h = hess[rows]
    for f in range(codes.shape[1]):
        c = sub[:, f]
        hist_g[f] += np.bincount(c, weights=g, minlength=n_bins)
        hist_h[f] += np.bincount(c, weights=h, minlength=n_bins)
        hist_n[f] += np.bincount(c, minlength=n_bins).astype(np.float64)


def test_hist_build_equals_per_feature_bincount():
    """The one-pass numpy kernel reproduces the per-feature form bit for
    bit, including columns whose codes use only the first few bins."""
    for k in range(30):
        rng = rng_for("hist-reference", k)
        n = int(rng.integers(1, 400))
        d = int(rng.integers(1, 12))
        bins = int(rng.integers(2, 256))
        # per-feature code ranges narrower than the histogram width leave
        # padding bins that must stay exactly zero
        tops = rng.integers(1, bins + 1, size=d)
        codes = np.column_stack([rng.integers(0, t, size=n)
                                 for t in tops]).astype(np.uint8)
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                  replace=False)).astype(np.int32)
        grad = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        hess = rng.uniform(0.0, 1.0, size=n)
        outs = []
        for build in (kernels.hist_build, bincount_hist_build):
            hists = tuple(np.zeros((d, bins)) for _ in range(3))
            build(codes, rows, grad, hess, *hists)
            outs.append(hists)
        for a, b in zip(*outs):
            assert np.array_equal(a, b)
        for hist in outs[0]:
            for f, t in enumerate(tops):
                assert not hist[f, t:].any()

