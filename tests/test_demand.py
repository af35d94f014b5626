"""Demand model tests.

Index:
  series      count-series container and CSV ingest, a bad value in each
              field of the bundled counts
  spectral    FFT initialization against constructed sinusoids
  refinement  damped least-squares fit quality and failure modes
  flow        curve evaluation with clamping
  schedule    Poisson spawn generation, OD draws, io round trips
"""
import math
import re

import numpy as np
import pytest

from trafficlab.demand import (DemandError, FlowModelParams,
                               MacroCountSeries, SpawnEvent, SpawnSchedule,
                               average_counts, eval_flow, fft_init_params,
                               lm_fit, read_counts_csv, read_schedule,
                               spawn_schedule, write_schedule)
from trafficlab.netgen import bundled_path
from trafficlab.roadnet import shortest_route

from conftest import make_line_net, mutated_rows, rng_for

BIN = 900.0
N_BINS = 96  # one day at 900 s


def curve(params: FlowModelParams, t):
    """Reference evaluation of the two-component flow curve, written out
    longhand so model changes cannot hide behind shared code."""
    t = np.asarray(t, dtype=np.float64)
    return (params.a1 * np.sin(params.b1 * t + params.c1)
            + params.a2 * np.sin(params.b2 * t + params.c2) + params.d)


def aligned_params(k1: int, k2: int, a1: float, a2: float, c1: float,
                   c2: float, d: float) -> FlowModelParams:
    """Parameters whose angular frequencies land exactly on FFT bins
    k1 and k2 of an N_BINS-long series."""
    horizon = N_BINS * BIN
    return FlowModelParams(a1, 2 * math.pi * k1 / horizon, c1,
                           a2, 2 * math.pi * k2 / horizon, c2, d)


def series_from(params: FlowModelParams, start_time: float = 0.0,
                noise_sigma: float = 0.0, seed=None) -> MacroCountSeries:
    t = start_time + np.arange(N_BINS) * BIN
    y = curve(params, t)
    if noise_sigma > 0.0:
        y = y + np.random.default_rng(seed).normal(0.0, noise_sigma, N_BINS)
    return MacroCountSeries(BIN, np.maximum(y, 0.0), start_time)


# -- series ----------------------------------------------------------------


def test_series_times_are_bin_starts():
    s = MacroCountSeries(100.0, np.arange(8.0), start_time=50.0)
    assert np.array_equal(s.times(), 50.0 + 100.0 * np.arange(8))


def test_series_rejects_short_negative_and_bad_bin():
    with pytest.raises(DemandError, match="at least 8"):
        MacroCountSeries(100.0, np.ones(7))
    with pytest.raises(DemandError, match="non-negative"):
        MacroCountSeries(100.0, [1, 2, 3, -1, 5, 6, 7, 8])
    with pytest.raises(DemandError, match="finite"):
        MacroCountSeries(100.0, [1, 2, 3, np.nan, 5, 6, 7, 8])
    with pytest.raises(DemandError, match="positive"):
        MacroCountSeries(0.0, np.ones(8))


def test_read_counts_csv_groups_and_sorts(tmp_path):
    p = tmp_path / "counts.csv"
    rows = ["road_label,start_time_s,bin_s,count"]
    # two roads, rows deliberately interleaved and out of order
    for i in (3, 0, 2, 1, 4, 5, 6, 7):
        rows.append(f"east,{i * 50},50,{10 + i}")
    for i in range(8):
        rows.append(f"west,{i * 50},50,{2 * i}")
    p.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = read_counts_csv(p)
    assert sorted(out) == ["east", "west"]
    east = out["east"]
    assert east.bin_duration == 50.0
    assert east.start_time == 0.0
    assert np.array_equal(east.counts, 10.0 + np.arange(8))
    assert np.array_equal(out["west"].counts, 2.0 * np.arange(8))


def test_read_counts_csv_rejects_malformed(tmp_path):
    def write(name, body):
        p = tmp_path / name
        p.write_text(body, encoding="utf-8")
        return p

    with pytest.raises(DemandError, match="header"):
        read_counts_csv(write("h.csv", "road,start,bin,count\nr,0,50,1\n"))
    with pytest.raises(DemandError, match="expected 4 fields"):
        read_counts_csv(write(
            "f.csv", "road_label,start_time_s,bin_s,count\nr,0,50\n"))
    with pytest.raises(DemandError, match=r"f2\.csv:2"):
        read_counts_csv(write(
            "f2.csv", "road_label,start_time_s,bin_s,count\nr,0,50,abc\n"))
    body = "road_label,start_time_s,bin_s,count\n"
    body += "".join(f"r,{i * 50},50,1\n" for i in range(8))
    with pytest.raises(DemandError, match="mixed bin"):
        read_counts_csv(write("m.csv", body + "r,400,60,1\n"))
    with pytest.raises(DemandError, match="non-contiguous"):
        read_counts_csv(write("g.csv", body + "r,500,50,1\n"))
    with pytest.raises(DemandError, match="no count rows"):
        read_counts_csv(write(
            "e.csv", "road_label,start_time_s,bin_s,count\n"))


def test_read_counts_csv_names_file_and_road(tmp_path):
    path = tmp_path / "c.csv"
    good = "".join(f"r,{i * 50},50,1\n" for i in range(8))
    for rows, fault in (
            (good + "r,400,50,-1\n", "counts must be finite and non-negative"),
            (good + "r,400,50,nan\n", "counts must be finite"),
            ("".join(f"r,{i * 50},50,1\n" for i in range(7)),
             "count series needs at least 8 bins"),
            (good + "r,400,60,1\n", r"mixed bin durations \{50\.0, 60\.0\}"),
            (good + "r,500,50,1\n", r"non-contiguous bins at t=500\.0")):
        path.write_text("road_label,start_time_s,bin_s,count\n"
                        + good.replace("r,", "q,") + rows, encoding="utf-8")
        with pytest.raises(DemandError,
                           match=rf"^{re.escape(str(path))}: road 'r': "
                                 rf"{fault}"):
            read_counts_csv(path)


def test_average_counts_is_elementwise_mean():
    a = MacroCountSeries(50.0, np.arange(8.0))
    b = MacroCountSeries(50.0, np.arange(8.0) * 3.0)
    avg = average_counts([a, b])
    assert np.array_equal(avg.counts, np.arange(8.0) * 2.0)
    assert avg.bin_duration == 50.0
    with pytest.raises(DemandError, match="empty"):
        average_counts([])
    with pytest.raises(DemandError, match="durations differ"):
        average_counts([a, MacroCountSeries(60.0, np.arange(8.0))])
    with pytest.raises(DemandError, match="lengths differ"):
        average_counts([a, MacroCountSeries(50.0, np.arange(9.0))])


def test_bundled_city_counts_parse():
    out = read_counts_csv(bundled_path("city_counts.csv"))
    assert len(out) >= 1
    for s in out.values():
        assert s.bin_duration == 900.0
        assert s.counts.size >= 8


def test_series_refuses_a_nan_or_infinite_start_or_bin():
    counts = np.arange(8.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DemandError, match=r"^start time .* not finite"):
            MacroCountSeries(50.0, counts, bad)
        with pytest.raises(DemandError,
                           match=r"^bin duration .* positive and finite"):
            MacroCountSeries(bad, counts)


def test_mutated_counts_load_finite_or_are_refused_naming_the_file(
        tmp_path):
    """A bad value in the bundled counts either still loads to finite
    series, or is refused naming the file: a NaN start time used to load
    as the series' start."""
    lines = bundled_path("city_counts.csv").read_text(
        encoding="utf-8").splitlines()
    path = tmp_path / "counts.csv"
    n = 0
    for text in mutated_rows(lines, range(1, len(lines))):
        n += 1
        path.write_text(text, encoding="utf-8")
        try:
            loaded = read_counts_csv(path)
        except DemandError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            continue
        for s in loaded.values():
            assert np.isfinite([s.start_time, s.bin_duration]).all(), text
            assert np.isfinite(s.counts).all(), text
    assert n == 3 * 4 * 9
    # the first row of the file is road_00's first bin
    path.write_text("\n".join([lines[0], "road_00,nan,900,50"] + lines[2:]),
                    encoding="utf-8")
    with pytest.raises(DemandError, match=rf"^{re.escape(str(path))}: road "
                                          r"'road_00': start time nan is not "
                                          r"finite$"):
        read_counts_csv(path)


# -- spectral ----------------------------------------------------------------


def test_fft_init_recovers_aligned_sinusoids():
    truth = aligned_params(4, 9, a1=8.0, a2=3.0, c1=0.7, c2=-1.9, d=30.0)
    init = fft_init_params(series_from(truth))
    assert init.a1 == pytest.approx(truth.a1, abs=1e-9)
    assert init.b1 == pytest.approx(truth.b1, rel=1e-12)
    assert init.c1 == pytest.approx(truth.c1, abs=1e-9)
    assert init.a2 == pytest.approx(truth.a2, abs=1e-9)
    assert init.b2 == pytest.approx(truth.b2, rel=1e-12)
    assert init.c2 == pytest.approx(truth.c2, abs=1e-9)
    assert init.d == pytest.approx(truth.d, abs=1e-9)
    assert init.fit_rmse < 1e-9


def test_fft_init_orders_components_by_amplitude():
    # stronger component supplied second; init must swap them
    truth = aligned_params(11, 2, a1=2.5, a2=7.0, c1=0.1, c2=1.2, d=20.0)
    init = fft_init_params(series_from(truth))
    assert init.a1 == pytest.approx(7.0, abs=1e-9)
    assert init.b1 == pytest.approx(truth.b2, rel=1e-12)
    assert init.a2 == pytest.approx(2.5, abs=1e-9)


def test_fft_init_respects_series_start_time():
    truth = aligned_params(3, 7, a1=6.0, a2=2.0, c1=-0.4, c2=2.1, d=25.0)
    series = series_from(truth, start_time=4 * 3600.0)
    init = fft_init_params(series)
    # phases are re-referenced to absolute time, so the fitted curve must
    # reproduce the samples at the shifted bin times
    np.testing.assert_allclose(curve(init, series.times()), series.counts,
                               atol=1e-8)


def test_fft_init_seeded_sweep():
    for trial in range(10):
        rng = rng_for("fft-init", trial)
        k1 = int(rng.integers(2, 13))
        k2 = int(rng.integers(2, 13))
        if k2 == k1:
            k2 = k1 + 1
        a1 = float(rng.uniform(4.0, 10.0))
        a2 = float(rng.uniform(1.0, a1 - 2.0))  # keep ordering unambiguous
        truth = aligned_params(k1, k2, a1, a2,
                               float(rng.uniform(-3.0, 3.0)),
                               float(rng.uniform(-3.0, 3.0)),
                               a1 + a2 + 5.0)
        init = fft_init_params(series_from(truth))
        assert init.a1 == pytest.approx(a1, abs=1e-8)
        assert init.a2 == pytest.approx(a2, abs=1e-8)
        assert init.fit_rmse < 1e-7


def test_fft_init_rejects_flat_series():
    with pytest.raises(DemandError, match="flat"):
        fft_init_params(MacroCountSeries(BIN, np.full(16, 10.0)))


# -- refinement --------------------------------------------------------------


def test_lm_fit_noiseless_reaches_machine_floor():
    truth = aligned_params(4, 9, a1=8.0, a2=3.0, c1=0.7, c2=-1.9, d=30.0)
    series = series_from(truth)
    fit = lm_fit(series, fft_init_params(series))
    assert fit.fit_rmse < 1e-8
    assert fit.alpha_sigma < 1e-8


def test_lm_fit_recovers_under_noise():
    sigma = 0.5
    horizon = N_BINS * BIN
    # mildly off-grid frequencies: spectral leakage leaves real work for
    # the refinement but still puts one init component on each true peak
    truth = FlowModelParams(7.0, 2 * math.pi * 3.85 / horizon, 0.9,
                            3.5, 2 * math.pi * 8.2 / horizon, -1.1, 28.0)
    for trial in range(3):
        series = series_from(truth, noise_sigma=sigma, seed=1000 + trial)
        init = fft_init_params(series)
        fit = lm_fit(series, init)
        assert fit.fit_rmse <= init.fit_rmse
        assert fit.fit_rmse <= 1.5 * sigma
        t = series.times()
        assert np.max(np.abs(curve(fit, t) - curve(truth, t))) <= 2.0 * sigma
        assert fit.alpha_sigma == pytest.approx(fit.fit_rmse, rel=0.2)


def test_lm_fit_returns_canonical_components():
    horizon = N_BINS * BIN
    # negative amplitude and out-of-range phase describe the same curve;
    # the fit must report the canonical form
    truth = FlowModelParams(-6.0, 2 * math.pi * 5 / horizon, 0.3,
                            2.0, 2 * math.pi * 9 / horizon, 7.5, 25.0)
    series = series_from(truth)
    fit = lm_fit(series, fft_init_params(series))
    assert fit.a1 >= 0.0 and fit.a2 >= 0.0
    assert fit.b1 > 0.0 and fit.b2 > 0.0
    for c in (fit.c1, fit.c2):
        assert -math.pi < c <= math.pi
    np.testing.assert_allclose(curve(fit, series.times()), series.counts,
                               atol=1e-6)


def test_lm_fit_never_worsens_the_initialization():
    series = series_from(aligned_params(4, 9, 8.0, 3.0, 0.7, -1.9, 30.0),
                         noise_sigma=2.0, seed=77)
    init = fft_init_params(series)
    # the best-seen parameters are returned, so a fit never loses ground
    fit = lm_fit(series, init)
    assert fit.fit_rmse <= init.fit_rmse


def test_lm_fit_rejects_bad_initializations():
    series = series_from(aligned_params(4, 9, 8.0, 3.0, 0.7, -1.9, 30.0))
    good = fft_init_params(series)
    with pytest.raises(DemandError, match="frequencies must be positive"):
        lm_fit(series, FlowModelParams(1, -1.0, 0, 1, 1.0, 0, 10))
    with pytest.raises(DemandError, match="finite"):
        lm_fit(series, FlowModelParams(math.nan, 1.0, 0, 1, 1.0, 0, 10))


def test_lm_fit_diverges_loudly_on_overflow_scale_parameters():
    y = np.full(64, 30.0)
    y[::2] = 10.0
    series = MacroCountSeries(BIN, y)
    init = FlowModelParams(1e200, 1.0, 0.0, 1e200, 2.0, 1.0, 0.0)
    with pytest.raises(DemandError, match="diverged"):
        lm_fit(series, init)


# -- flow --------------------------------------------------------------------


def test_eval_flow_matches_reference_curve():
    p = aligned_params(4, 9, 8.0, 3.0, 0.7, -1.9, 30.0)
    t = np.linspace(0.0, 86400.0, 200)
    np.testing.assert_allclose(eval_flow(p, t), curve(p, t), rtol=1e-12)


def test_eval_flow_clamps_at_zero():
    p = FlowModelParams(0.0, 1.0, 0.0, 0.0, 1.0, 0.0, -3.0)
    t = np.arange(5.0)
    assert np.array_equal(eval_flow(p, t), np.zeros(5))


# -- schedule ----------------------------------------------------------------


def test_spawn_schedule_is_deterministic(flat_params):
    net = make_line_net()
    a = spawn_schedule(flat_params, net, 2000.0, seed=11, bin_duration=100.0)
    b = spawn_schedule(flat_params, net, 2000.0, seed=11, bin_duration=100.0)
    assert a.events == b.events
    assert a.horizon == 2000.0
    c = spawn_schedule(flat_params, net, 2000.0, seed=12, bin_duration=100.0)
    assert c.events != a.events


def test_spawn_events_are_integer_second_sorted_od_pairs(flat_params):
    net = make_line_net()
    sched = spawn_schedule(flat_params, net, 3500.5, seed=4,
                           bin_duration=100.0)
    assert sched.events, "expected a non-empty schedule"
    prev = -1.0
    for ev in sched.events:
        assert ev.time == int(ev.time)
        assert 0.0 <= ev.time <= 3499.0  # fractional horizon tail truncated
        assert ev.time >= prev
        prev = ev.time
        assert ev.entry == "a0"
        assert ev.exit == "a3"


def test_spawn_totals_track_the_curve(flat_params):
    # constant 5 veh per 100 s bin over 4000 s -> 200 expected spawns
    net = make_line_net()
    totals = []
    for trial in range(5):
        sched = spawn_schedule(flat_params, net, 4000.0, seed=300 + trial,
                               bin_duration=100.0)
        totals.append(len(sched.events))
    mean = sum(totals) / len(totals)
    # five pooled Poisson(200) draws: 5 sigma on the mean is ~32
    assert abs(mean - 200.0) < 32.0


def test_spawn_rate_follows_time_varying_curve():
    horizon = 8000.0
    p = FlowModelParams(4.0, 2 * math.pi / horizon, -math.pi / 2,
                        0.0, 1.0, 0.0, 5.0)
    # curve rises from ~1 at t=0 to ~9 at mid-horizon
    net = make_line_net()
    sched = spawn_schedule(p, net, horizon, seed=9, bin_duration=100.0)
    times = np.array([ev.time for ev in sched.events])
    lo = np.sum(times < 2000.0)
    hi = np.sum((times >= 3000.0) & (times < 5000.0))
    assert hi > 2 * lo


def test_spawn_od_draws_respect_weights(grid_net):
    p = FlowModelParams(0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 40.0)
    entry = grid_net.entry_nodes[0]
    banned = grid_net.exit_nodes[0]
    kept = {x: 1.0 for x in grid_net.exit_nodes if x != banned}
    sched = spawn_schedule(p, grid_net, 2000.0, seed=21,
                           bin_duration=100.0,
                           entry_weights={entry: 1.0},
                           exit_weights=kept)
    assert sched.events
    for ev in sched.events:
        assert ev.entry == entry
        assert ev.exit != banned
        assert ev.exit != ev.entry
        shortest_route(grid_net, ev.entry, ev.exit)  # must not raise


def test_spawn_weight_validation(grid_net, flat_params):
    with pytest.raises(DemandError, match="reachable, weighted exit"):
        spawn_schedule(flat_params, grid_net, 1000.0, seed=0,
                       exit_weights={})
    with pytest.raises(DemandError, match="entry weights sum to zero"):
        spawn_schedule(flat_params, grid_net, 1000.0, seed=0,
                       entry_weights={})
    entry, other = grid_net.entry_nodes[:2]
    exit_ = grid_net.exit_nodes[0]
    for kind, weights, node, text in (
            ("entry", {entry: 2.0, other: -1.0}, other, "-1.0"),
            ("entry", {entry: float("nan")}, entry, "nan"),
            ("exit", {exit_: float("inf")}, exit_, "inf"),
            ("exit", {exit_: -0.5}, exit_, "-0.5")):
        with pytest.raises(DemandError, match=re.escape(
                f"{kind}_weights gives {node} the weight {text}; weights "
                "must be finite and non-negative")):
            spawn_schedule(flat_params, grid_net, 1000.0, seed=0,
                           **{f"{kind}_weights": weights})
    with pytest.raises(DemandError, match="horizon"):
        spawn_schedule(flat_params, grid_net, 0.0, seed=0)
    with pytest.raises(DemandError, match="frequencies"):
        spawn_schedule(FlowModelParams(1, 0.0, 0, 1, 1, 0, 5), grid_net,
                       1000.0, seed=0)


def test_schedule_container_validation():
    with pytest.raises(DemandError, match="outside"):
        SpawnSchedule((SpawnEvent(-1.0, "a", "b"),), 100.0)
    with pytest.raises(DemandError, match="outside"):
        SpawnSchedule((SpawnEvent(100.0, "a", "b"),), 100.0)
    with pytest.raises(DemandError, match="non-decreasing"):
        SpawnSchedule((SpawnEvent(5.0, "a", "b"),
                       SpawnEvent(4.0, "a", "b")), 100.0)


def test_schedule_io_round_trip(tmp_path, flat_params):
    net = make_line_net()
    sched = spawn_schedule(flat_params, net, 1500.0, seed=2,
                           bin_duration=100.0)
    path = tmp_path / "sched.csv"
    write_schedule(sched, path)
    back = read_schedule(path, horizon=1500.0)
    assert back.events == sched.events
    assert back.horizon == 1500.0
    with pytest.raises(DemandError, match="header"):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,entry,exit\n", encoding="utf-8")
        read_schedule(bad, horizon=1500.0)


def test_schedule_io_names_file_and_line(tmp_path):
    bad = tmp_path / "spawns.csv"
    for body, match in (("3,a0\n", r"spawns\.csv:3: expected 3 fields"),
                        ("x,a0,a3\n", r"spawns\.csv:3: could not convert"),
                        ("2000,a0,a3\n", r"spawns\.csv: spawn time 2000")):
        bad.write_text("time_s,entry,exit\n1,a0,a3\n" + body,
                       encoding="utf-8")
        with pytest.raises(DemandError, match=match):
            read_schedule(bad, horizon=1500.0)
