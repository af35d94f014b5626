"""Hot-loop checks.

Index:
  semantics        the per-vehicle move matches a scalar re-derivation and
                   the vectorized numpy form it replaced, bit for bit,
                   signed zeros included; its sightings match a brute-force
                   pass over the moved vehicles; histograms match direct
                   sums
  reference        flat-cell histograms equal the per-feature bincount form
                   and the zero-filled one-pass form they replaced
"""
import math

import numpy as np
import pytest

from trafficlab import kernels

from conftest import rng_for

PARAMS = dict(accel=2.6, decel=4.5, min_gap=2.5, vehicle_length=5.0, dt=1.0)
# the kernel moves one 1 s step and takes no dt
KERNEL_PARAMS = {k: v for k, v in PARAMS.items() if k != "dt"}


def vector_follow_speeds(pos, speed, leader, head_free, head_lead_speed,
                         limit, speed_cap, noise, accel, decel, min_gap,
                         vehicle_length, dt, out):
    """Reference: the vectorized speed update over vehicles in canonical
    order, a follower's ``leader`` being the index of the vehicle ahead
    and a head's -1."""
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
    return out


def _random_follow_case(rng, n_slots):
    """Lane queues over a random permutation of n_slots vehicle slots,
    each queue front to back; one lookahead, limit, cap and up to two
    sorted disjoint zone intervals per queue, their ends drawn partly
    from the queue's own positions; about one vehicle in ten halted.  No
    lane is watched yet (`add_watch`)."""
    slots = rng.permutation(n_slots).tolist()
    cuts = np.sort(rng.choice(np.arange(1, n_slots),
                              size=min(n_slots - 1, int(rng.integers(0, 8))),
                              replace=False)).tolist() if n_slots > 1 else []
    queues = [slots[a:b] for a, b in zip([0] + cuts, cuts + [n_slots])]
    pos = np.zeros(n_slots)
    for q in queues:
        pos[q] = np.sort(rng.uniform(0, 500, len(q)))[::-1]
    lanes = []
    for q in queues:
        ends = np.concatenate([pos[q], rng.uniform(0, 500, 4)])
        k = min(int(rng.integers(0, 3)), len(ends) // 2)
        ends = np.sort(rng.choice(ends, size=2 * k, replace=False)).tolist()
        lanes.append((q, float(rng.uniform(-5, 400)),
                      float(rng.uniform(0, 15)), float(rng.uniform(5, 20)),
                      float(rng.uniform(0, 5)),
                      tuple(zip(ends[::2], ends[1::2])), 500.0, None, None))
    halted_by = np.where(rng.random(n_slots) < 0.1, 0, -1).tolist()
    return dict(lanes=lanes, pos=pos, speed=rng.uniform(0, 15, n_slots),
                halted_by=halted_by,
                noise=rng.uniform(0, 0.26, n_slots).tolist(),
                sensors=0, range_m=0.0)


# the lanes a watch row may watch: at neither end, the approached end
# only, the departed end only, both ends
WATCH_KINDS = ((False, False), (True, False), (False, True), (True, True))


def add_watch(case, rng, n_sensors=3):
    """The case with a watch on its lanes, the kinds of WATCH_KINDS in
    turn from a random start, each end's sensor a random one of
    n_sensors (distinct at the two ends).  The range is the moved
    position of a random vehicle, and half the lanes take a segment
    length that puts one of their moved vehicles exactly the range short
    of the end, so both inclusive tests meet their edge."""
    _speed, moved, _seen = run_kernel(case)
    range_m = float(moved[rng.integers(len(moved))])
    first = int(rng.integers(4))
    lanes = []
    for i, lane in enumerate(case["lanes"]):
        ahead, behind = WATCH_KINDS[(first + i) % 4]
        a, b = rng.choice(n_sensors, size=2, replace=False).tolist()
        if rng.random() < 0.5:
            seg_len = float(moved[lane[0][rng.integers(len(lane[0]))]]
                            + range_m)
        else:
            seg_len = float(rng.uniform(0, 600))
        lanes.append(lane[:6] + (seg_len, a if ahead else None,
                                 b if behind else None))
    return dict(case, lanes=lanes, sensors=n_sensors, range_m=range_m)


def sighting_oracle(case, moved):
    """Reference: per sensor, the sorted slots of every vehicle whose lane
    approaches that sensor and whose moved position is at most the range
    short of the segment end, or whose lane departs from it and whose
    moved position is at most the range past the start.  Also the number
    of sightings exactly at range."""
    r = case["range_m"]
    seen = [[] for _ in range(case["sensors"])]
    edges = 0
    for col in range(case["sensors"]):
        for q, *_row, seg_len, ahead, behind in case["lanes"]:
            for slot in q:
                p = float(moved[slot])
                for dist in ((seg_len - p,) if ahead == col else ()) + (
                        (p,) if behind == col else ()):
                    if dist <= r:
                        seen[col].append(slot)
                        edges += dist == r
    return [sorted(slots) for slots in seen], edges


def vehicle_cap(case, lane, slot):
    """A vehicle's incident cap as its lane row gives it: 0.0 when halted,
    the lane's cap when its position lies in one of the lane's zones
    (ends included), else none (inf)."""
    cap, zones = lane[4:6]
    if case["halted_by"][slot] >= 0:
        return 0.0
    p = case["pos"][slot]
    return cap if any(lo <= p <= hi for lo, hi in zones) else math.inf


def run_kernel(case):
    """(speed, pos, seen) after kernels.follow_speeds, which writes speed
    and pos into lists as the simulator does: speed and pos as arrays, and
    each sensor's sightings, sorted.  A case's lane is flat, (queue, head
    free run, head leader speed, limit, cap, zones, seg_len, ahead,
    behind), with ahead and behind naming sensors by index; the kernel
    gets the last six as the lane's row, and each run fresh slot lists."""
    pos, speed = case["pos"].tolist(), case["speed"].tolist()
    seen = [[] for _ in range(case["sensors"])]
    lanes = [lane[:3] + (lane[3:7] + tuple(None if c is None else seen[c]
                                           for c in lane[7:]),)
             for lane in case["lanes"]]
    kernels.follow_speeds(case["noise"], lanes, case["halted_by"], pos,
                          speed, range_m=case["range_m"], **KERNEL_PARAMS)
    return np.asarray(speed), np.asarray(pos), [sorted(s) for s in seen]


def run_vector(case):
    """(speed, pos) from the vectorized form, gathered in canonical order
    and scattered back by slot."""
    order, leader, head_free, head_lead, limit, caps = [], [], [], [], [], []
    for lane in case["lanes"]:
        q, fr, vl, lim = lane[:4]
        for j, slot in enumerate(q):
            leader.append(-1 if j == 0 else len(order) - 1)
            head_free.append(fr if j == 0 else 0.0)
            head_lead.append(vl if j == 0 else 0.0)
            limit.append(lim)
            caps.append(vehicle_cap(case, lane, slot))
            order.append(slot)
    order = np.asarray(order, dtype=np.intp)
    n = len(order)
    pos, speed = case["pos"].copy(), case["speed"].copy()
    pos_a, speed_a = pos[order], speed[order]
    v_new = np.empty(n)
    vector_follow_speeds(
        pos_a, speed_a, np.asarray(leader, dtype=np.int32),
        np.asarray(head_free), np.asarray(head_lead), np.asarray(limit),
        np.asarray(caps, dtype=float),
        np.asarray(case["noise"]), out=v_new, **PARAMS)
    speed[order] = v_new
    pos[order] = pos_a + v_new * PARAMS["dt"]
    return speed, pos


def _scalar_follow(case):
    """Independent per-vehicle re-derivation of the speed update: the
    expected new speed of every slot."""
    expect = case["speed"].copy()
    b, dt = PARAMS["decel"], PARAMS["dt"]
    k = 0
    for lane in case["lanes"]:
        q, head_free, head_lead, limit = lane[:4]
        for j, slot in enumerate(q):
            if j:
                ahead = q[j - 1]
                fr = (case["pos"][ahead] - PARAMS["vehicle_length"]
                      - case["pos"][slot] - PARAMS["min_gap"])
                vl = case["speed"][ahead]
            else:
                fr, vl = head_free, head_lead
            fr = max(fr, 0.0)
            bt = b * dt
            vsafe = -bt + math.sqrt(bt * bt + vl * vl + 2.0 * b * fr)
            cap = vehicle_cap(case, lane, slot)
            vdes = min(case["speed"][slot] + PARAMS["accel"] * dt, limit,
                       vsafe, fr / dt, cap)
            expect[slot] = max(vdes - case["noise"][k], 0.0)
            k += 1
    return expect


def test_follow_speeds_matches_scalar_oracle():
    """The walk over lane queues equals the scalar formula, and equals the
    vectorized form bit for bit, speeds and positions; the vehicles it
    sights are the brute-force oracle's, on lanes watched at neither,
    either or both ends, with moved positions exactly at range."""
    edges = sightings = 0
    for k in range(40):
        rng = rng_for("follow-scalar", k)
        case = _random_follow_case(rng, int(rng.integers(1, 60)))
        if k % 4 == 0:  # no incident: no zones, nobody halted
            case["lanes"] = [lane[:4] + (math.inf, ()) + lane[6:]
                             for lane in case["lanes"]]
            case["halted_by"] = [-1] * len(case["halted_by"])
        case = add_watch(case, rng)
        got_speed, got_pos, got_seen = run_kernel(case)
        assert np.array_equal(got_speed, _scalar_follow(case))
        want_speed, want_pos = run_vector(case)
        assert got_speed.tobytes() == want_speed.tobytes()
        assert got_pos.tobytes() == want_pos.tobytes()
        want_seen, at_range = sighting_oracle(case, want_pos)
        assert got_seen == want_seen, k
        edges += at_range
        sightings += sum(map(len, want_seen))
    assert edges > 20 and sightings > 200


def test_follow_speeds_pins_numpy_edge_semantics():
    """Edge values the simulator can produce, plus signed zeros, give the
    vectorized form's exact bits: numpy's minimum and maximum return the
    second operand when both are zeros, so max(-0.0, 0.0) is +0.0."""
    inf = math.inf
    # slot 0 and 1: a head and its follower standing exactly min_gap
    # behind it (free run exactly +0.0); slots 2-3: a head with a free run
    # of -0.0; slot 4: an arriving head (infinite free run); slot 5: a
    # halted vehicle on a lane whose head was slot 4; slot 6: a head with
    # negative free run; slot 7: a signed-zero limit; slot 8: a -0.0 zone
    # cap on a zone whose ends are both its position
    pos = np.array([107.5, 100.0, 50.0, 40.0, 190.0, 20.0, 60.0, 10.0,
                    0.0])
    speed = np.array([0.0, 3.0, 0.0, -0.0, 12.0, 4.0, 1.0, 0.0, -0.0])
    halted = [-1, -1, -1, -1, -1, 0, -1, -1, -1]
    lanes = [([0, 1], 0.0, 0.0, 10.0, inf, ()),
             ([2, 3], -0.0, 0.0, 10.0, inf, ()),
             ([4, 5], inf, 0.0, 14.0, inf, ()),
             ([6], -3.0, 0.0, 10.0, inf, ()),
             ([7], 0.0, 0.0, -0.0, inf, ()),
             ([8], 5.0, 0.0, 10.0, -0.0, ((0.0, 0.0),))]
    # watched at the approached end (sensor 0), both ends, neither and
    # the departed end (sensor 1) in turn; with a 60 m range, slot 1 ends
    # exactly 60 m short of its 160 m segment's end and slot 6 exactly 60 m
    # past its segment's start
    watch = [(160.0, 0, None), (200.0, 0, 1), (200.0, None, None),
             (300.0, None, 1), (200.0, 0, 1), (200.0, None, None)]
    lanes = [lane + w for lane, w in zip(lanes, watch)]
    bare = [lane[:4] + (inf, ()) + lane[6:] for lane in lanes]
    for noise in ([0.0] * 9, [0.1, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0]):
        for halted_by, rows in ((halted, lanes), ([-1] * 9, bare)):
            case = dict(lanes=rows, pos=pos, speed=speed,
                        halted_by=halted_by, noise=noise, sensors=2,
                        range_m=60.0)
            got_speed, got_pos, got_seen = run_kernel(case)
            want_speed, want_pos = run_vector(case)
            assert got_seen == sighting_oracle(case, want_pos)[0]
            assert 1 in got_seen[0] and 6 in got_seen[1]
            assert got_speed.tobytes() == want_speed.tobytes(), (
                got_speed, want_speed)
            assert got_pos.tobytes() == want_pos.tobytes()
            assert not np.signbit(got_speed).any()
            # the arriving head is free: accelerate to the limit at most
            assert got_speed[4] == min(12.0 + 2.6, 14.0) - noise[4]
            if rows is lanes:
                assert got_speed[5] == 0.0 and got_pos[5] == 20.0
                assert got_speed[8] == 0.0 and got_pos[8] == 0.0
            # exactly min_gap behind a leader: no free run, no move
            assert got_speed[1] == 0.0 and got_pos[1] == 100.0


def _random_hist_case(rng, n, d, bins):
    codes = rng.integers(0, bins, size=(n, d), dtype=np.uint8)
    rows = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
    rows = rows.astype(np.int32)
    grad = rng.normal(size=n)
    hess = rng.uniform(0.01, 1.0, size=n)
    shape = (d, bins)
    return codes, rows, grad, hess, shape


def flat_cells(codes, bins):
    """Each row's histogram cell per feature: code plus feature x bins."""
    return codes + np.arange(codes.shape[1]) * bins


def hist_build_2d(codes, rows, grad, hess, bins):
    """The kernel's three flat histograms as (feature, bin) arrays."""
    d = codes.shape[1]
    return tuple(h.reshape(d, bins) for h in kernels.hist_build(
        flat_cells(codes, bins), rows, grad, hess, d * bins))


def test_hist_build_matches_direct_sums():
    """Histogram accumulation equals per-bin masked sums."""
    for k in range(20):
        rng = rng_for("hist-oracle", k)
        codes, rows, grad, hess, (d, bins) = _random_hist_case(
            rng, int(rng.integers(5, 300)), int(rng.integers(1, 8)),
            int(rng.integers(2, 32)))
        hg, hh, hn = hist_build_2d(codes, rows, grad, hess, bins)
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


def zero_fill_hist_build(codes, rows, grad, hess, hist_g, hist_h, hist_n):
    """Reference histograms: the one-pass kernel that added its bincounts
    into zero-filled (feature, bin) arrays, before the cell matrix was
    built once per fit."""
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


def test_hist_build_equals_per_feature_bincount():
    """The flat-cell kernel reproduces the per-feature form and the
    zero-filled one-pass form bit for bit, including columns whose codes
    use only the first few bins."""
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
        outs = [hist_build_2d(codes, rows, grad, hess, bins)]
        for build in (bincount_hist_build, zero_fill_hist_build):
            hists = tuple(np.zeros((d, bins)) for _ in range(3))
            build(codes, rows, grad, hess, *hists)
            outs.append(hists)
        for got, *refs in zip(*outs):
            for ref in refs:
                assert got.tobytes() == ref.astype(got.dtype).tobytes()
        for hist in outs[0]:
            for f, t in enumerate(tops):
                assert not hist[f, t:].any()
