"""Boosted-tree model tests.

Index:
  config      hyperparameter validation
  splits      root split against exhaustive enumeration, leaf closed form,
              split search over the real candidates (ties, NaN gains, cuts
              that fail min_samples_leaf) and whole fits against loop and
              padded references, no reference cycle from a fit, code
              routing, the hist_build call contract, a multiclass round as
              a binary tree on its top gradient column
  predict     tree-walk oracle with missing values, input checks
  training    learnability, loss monotonicity, determinism, base scores
  gating      stacked detector/localizer/severity behavior
  io          JSON round trip, a hand-built model, encoder output, format
              guard, malformed and tampered files, an objective in the
              config
"""
import copy
import dataclasses
import gc
import io
import json
import math
import re

import numpy as np
import pytest

from trafficlab import kernels, models
from trafficlab.features import FeatureTable
from trafficlab.models import (EnsembleModel, ModelError, Predictions,
                               TreeEnsembleConfig, infer_batch,
                               load_model, predict_margin, predict_proba,
                               save_model, train_incident_ensemble,
                               train_tree_ensemble)

from conftest import rng_for
from test_kernels import bincount_hist_build, zero_fill_hist_build


def small_cfg(**kw):
    base = dict(n_trees=5, max_depth=3, learning_rate=0.3,
                min_samples_leaf=2, subsample=1.0, seed=0)
    base.update(kw)
    return TreeEnsembleConfig(**base)


def names(d):
    return [f"f{i}" for i in range(d)]


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ModelError, match="at least one tree"):
        TreeEnsembleConfig(n_trees=0)
    with pytest.raises(ModelError, match="learning rate"):
        TreeEnsembleConfig(learning_rate=0.0)
    with pytest.raises(ModelError, match="depth"):
        TreeEnsembleConfig(max_depth=0)
    with pytest.raises(ModelError, match="subsample"):
        TreeEnsembleConfig(subsample=1.5)
    with pytest.raises(ModelError, match="objective"):
        TreeEnsembleConfig(objective="ranking")
    with pytest.raises(ModelError, match="max_bins"):
        TreeEnsembleConfig(max_bins=300)
    with pytest.raises(ModelError, match="min_samples_leaf must be at least"):
        TreeEnsembleConfig(min_samples_leaf=0)
    # a NaN reg_lambda would fit trees with no split and NaN leaves
    for lam in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ModelError, match="reg_lambda must be non-neg"):
            TreeEnsembleConfig(reg_lambda=lam)
    with pytest.raises(ModelError, match="model.seed must not be negative"):
        TreeEnsembleConfig(seed=-1)
    assert TreeEnsembleConfig(reg_lambda=0.0).reg_lambda == 0.0


# -- splits ------------------------------------------------------------------


def exhaustive_best_split(X, g, h, msl, lam):
    """Every (feature, missing side, midpoint threshold) candidate scored
    directly from the definition; first strict maximum wins, matching the
    trainer's enumeration order (feature, then missing-right before
    missing-left, then threshold)."""
    best = None
    n = X.shape[0]
    for f in range(X.shape[1]):
        col = X[:, f]
        nan = np.isnan(col)
        uniq = np.unique(col[~nan])
        for miss_left in (False, True):
            for j in range(uniq.size - 1):
                thr = (uniq[j] + uniq[j + 1]) / 2.0
                with np.errstate(invalid="ignore"):
                    go_l = np.where(nan, miss_left, col <= thr)
                cl = int(go_l.sum())
                if cl < msl or n - cl < msl:
                    continue
                gl, hl = g[go_l].sum(), h[go_l].sum()
                gr, hr = g[~go_l].sum(), h[~go_l].sum()
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam)
                              - (gl + gr) ** 2 / (hl + hr + lam))
                if gain > 0.0 and (best is None or gain > best[0]):
                    best = (gain, f, thr, miss_left, go_l)
    return best


def loop_best_split(hist_g, hist_h, hist_n, binner, cfg):
    """Reference split search: one cumsum/argmax per (feature, missing
    side), scanned feature ascending, missing-right before missing-left,
    cut ascending; strict improvement only."""
    lam = cfg.reg_lambda
    msl = cfg.min_samples_leaf
    best = None
    for f in range(len(binner.cuts)):
        k = len(binner.cuts[f])
        if k == 0:
            continue
        g = hist_g[f]
        h = hist_h[f]
        c = hist_n[f]
        g0, h0, c0 = g[0], h[0], c[0]
        gl = np.cumsum(g[1:k + 2])
        hl = np.cumsum(h[1:k + 2])
        cl = np.cumsum(c[1:k + 2])
        gtot = gl[-1] + g0
        htot = hl[-1] + h0
        ctot = cl[-1] + c0
        parent = gtot * gtot / (htot + lam)
        glj, hlj, clj = gl[:k], hl[:k], cl[:k]
        for miss_left, gadd, hadd, cadd in ((False, 0.0, 0.0, 0.0),
                                            (True, g0, h0, c0)):
            gL = glj + gadd
            hL = hlj + hadd
            cL = clj + cadd
            gR = gtot - gL
            hR = htot - hL
            cR = ctot - cL
            gains = 0.5 * (gL * gL / (hL + lam) + gR * gR / (hR + lam)
                           - parent)
            gains[(cL < msl) | (cR < msl)] = -np.inf
            j = int(np.argmax(gains))
            if gains[j] > 0.0 and (best is None or gains[j] > best[0]):
                best = (float(gains[j]), f, j, miss_left)
    return best


def padded_best_split(hist_g, hist_h, hist_n, binner, cfg):
    """Reference split search: every (feature, missing side, cut) of the
    padded (feature, 2, widest cut count) grid scored in one array, cuts
    past a feature's own count masked out; the search the flat candidate
    list replaced."""
    width = binner.max_cuts
    if width == 0:
        return None
    lam = cfg.reg_lambda
    msl = cfg.min_samples_leaf
    n_feat = len(binner.cuts)
    padding = (np.arange(width) >= binner.n_cuts[:, None])[:, None, :]
    hists = (hist_g, hist_h, hist_n)
    left = np.empty((3, n_feat, width + 1))
    for k, hist in enumerate(hists):
        np.cumsum(hist[:, 1:width + 2], axis=1, out=left[k])
    miss = np.stack([hist[:, 0] for hist in hists])
    total = left[:, np.arange(n_feat), binner.n_cuts] + miss
    add = np.zeros((3, n_feat, 2, 1))
    add[:, :, 1, 0] = miss
    sums = np.empty((2, 3, n_feat, 2, width))
    np.add(left[:, :, None, :width], add, out=sums[0])
    np.subtract(total[:, :, None, None], sums[0], out=sums[1])
    g, h, n = sums[:, 0], sums[:, 1], sums[:, 2]
    gtot, htot = total[0, :, None, None], total[1, :, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = gtot * gtot / (htot + lam)
        h += lam
        g *= g
        g /= h
        gains = g[0] + g[1]
        gains -= parent
        gains *= 0.5
    masked = n[0] < msl
    masked |= n[1] < msl
    masked |= padding
    np.putmask(gains, masked, -np.inf)
    i = int(np.argmax(gains))
    if np.isnan(gains.flat[i]):
        gains[np.isnan(gains).any(axis=2)] = -np.inf
        i = int(np.argmax(gains))
    best = float(gains.flat[i])
    if not best > 0.0:
        return None
    f, side, j = np.unravel_index(i, gains.shape)
    return (best, int(f), int(j), bool(side))


def as_hist_build(build_2d):
    """A (feature, bin) reference histogram builder behind the kernel's
    signature: the codes are recovered from the flat cells and the
    reference fills zeroed 2-d histograms."""
    def hist_build(cells, rows, grad, hess, size):
        n_feat = cells.shape[1]
        width = size // n_feat
        codes = (cells - np.arange(n_feat) * width).astype(np.uint8)
        hists = tuple(np.zeros((n_feat, width)) for _ in range(3))
        build_2d(codes, rows, grad, hess, *hists)
        return hists
    return hist_build


def stump_data(trial):
    rng = rng_for("stump", trial)
    n = 60
    X = np.column_stack([rng.normal(0.0, 1.0, n),
                         rng.normal(2.0, 0.5, n),
                         rng.uniform(-1.0, 1.0, n)])
    X[rng.random(n) < 0.25, 1] = np.nan
    y = (rng.random(n) < 0.35).astype(int)
    if y.min() == y.max():
        y[:2] = [0, 1]
    return X, y


def test_root_split_matches_exhaustive_enumeration():
    lam = 1.0
    for trial in range(8):
        X, y = stump_data(trial)
        cfg = small_cfg(n_trees=1, max_depth=1, min_samples_leaf=5,
                        reg_lambda=lam)
        ens = train_tree_ensemble(X, y, cfg, names(3))
        tree = ens.trees[0]

        p0 = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        g = np.full(len(y), p0) - y
        h = np.full(len(y), p0 * (1.0 - p0))
        want = exhaustive_best_split(X, g, h, 5, lam)
        assert want is not None
        _gain, f, thr, miss_left, go_l = want
        assert int(tree.feature[0]) == f
        assert float(tree.threshold[0]) == thr  # same midpoint arithmetic
        assert bool(tree.missing_left[0]) == miss_left

        # depth-1 children are leaves with the closed-form value
        for side, rows in ((tree.left[0], go_l), (tree.right[0], ~go_l)):
            want_v = -cfg.learning_rate * g[rows].sum() / (h[rows].sum()
                                                           + lam)
            assert float(tree.value[side, 0]) == pytest.approx(want_v,
                                                               rel=1e-10)


def split_case(X, g, h, rows=None, width=None, **cfg_kw):
    """Both split searches on the histograms of X's rows; width pads the
    histograms past the widest feature."""
    binner = models._Binner(X, 256)
    rows = np.arange(X.shape[0], dtype=np.int32) if rows is None else rows
    width = binner.max_cuts + 2 if width is None else width
    hists = tuple(np.zeros((X.shape[1], width)) for _ in range(3))
    bincount_hist_build(binner.codes, rows, g, h, *hists)
    cfg = small_cfg(**cfg_kw)
    got = models._best_split(*hists, binner, cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        wants = [loop_best_split(*hists, binner, cfg),
                 padded_best_split(*hists, binner, cfg)]
    for want in wants:
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[1:] == want[1:]
            assert got[0].hex() == want[0].hex()
            assert [type(v) for v in got] == [float, int, int, bool]
    return got


def test_vectorized_split_equals_loop_on_exact_ties():
    """Integer gradients make gains tie exactly across features (duplicate
    columns), missing sides (columns without NaN) and cuts (mirrored
    targets); the first candidate in loop order must win."""
    x = np.repeat(np.arange(6.0), 4)
    g = np.where(np.isin(x, (0.0, 5.0)), 1.0, -1.0)  # cuts 0 and 4 tie
    h = np.ones_like(g)
    X = np.column_stack([x, x, x])
    X[::5, 2] = np.nan  # missing values only in the last copy
    best = split_case(X, g, h, min_samples_leaf=1)
    assert best[1:] == (0, 0, False)
    # missing-left and missing-right tie at every cut when the NaN rows
    # carry no gradient and no hessian
    g2 = g.copy()
    h2 = h.copy()
    g2[::5] = h2[::5] = 0.0
    assert split_case(X[:, 2:], g2, h2, min_samples_leaf=1)[3] is False
    for trial in range(40):
        rng = rng_for("split-ties", trial)
        n = int(rng.integers(4, 120))
        d = int(rng.integers(1, 6))
        X = rng.integers(0, int(rng.integers(2, 6)), (n, d)).astype(float)
        X[rng.random((n, d)) < rng.uniform(0.0, 0.4)] = np.nan
        X = X[:, rng.integers(0, d, d)]  # repeated columns tie whole
        g = rng.integers(-2, 3, n).astype(float)
        h = rng.integers(0, 3, n).astype(float)
        split_case(X, g, h, min_samples_leaf=int(rng.integers(1, 6)),
                   reg_lambda=float(rng.integers(0, 3)))


def test_vectorized_split_equals_loop_on_degenerate_gains():
    """Without regularization an empty-hessian side scores +inf or NaN; a
    NaN anywhere in a (feature, missing side) row rules the row out, as the
    loop's per-row argmax does."""
    x = np.repeat(np.arange(6.0), 4)
    rng = rng_for("split-degenerate", 0)
    X = np.column_stack([x, rng.permutation(x)])
    g = np.where(x == 0.0, 0.0, np.where(x < 3.0, 1.0, -1.0))
    h = np.where(x == 0.0, 0.0, 1.0)
    best = split_case(X, g, h, min_samples_leaf=1, reg_lambda=0.0)
    assert best[1] == 1  # feature 0 has a 0/0 gain at its first cut
    g[x == 0.0] = 2.0
    best = split_case(X, g, h, min_samples_leaf=1, reg_lambda=0.0)
    assert best[:4] == (math.inf, 0, 0, False)
    # feature 0's only NaN gain is at cut 0, whose left side holds one row:
    # with two rows a leaf that cut is never scored, and cut 1 of the same
    # run stays in play; with one row a leaf the NaN rules the run out
    x = np.repeat(np.arange(4.0), [1, 5, 6, 6])
    X = np.column_stack([x, rng.permutation(x)])
    g = np.where(x == 0.0, 0.0, np.where(x == 1.0, 1.0, -1.0))
    h = np.where(x == 0.0, 0.0, 1.0)
    assert split_case(X, g, h, min_samples_leaf=2,
                      reg_lambda=0.0)[1:] == (0, 1, False)
    best = split_case(X, g, h, min_samples_leaf=1, reg_lambda=0.0)
    assert best is None or best[1] == 1


def test_vectorized_split_equals_loop_on_padded_features():
    """Features with zero cuts (all-NaN, constant) and with fewer cuts than
    the histogram width, on node subsets and with extra padding columns."""
    for trial in range(40):
        rng = rng_for("split-padding", trial)
        n = int(rng.integers(20, 300))
        X = np.column_stack([
            np.full(n, np.nan),
            rng.normal(0.0, 1.0, n),
            rng.integers(0, 3, n).astype(float),
            np.full(n, 7.0),
            np.round(rng.uniform(0.0, 1.0, n), 1),
        ])
        X[rng.random(n) < 0.3, 1] = np.nan
        X[rng.random(n) < 0.3, 4] = np.nan  # missing rows on a narrow one
        g = rng.normal(0.0, 1.0, n)
        h = rng.uniform(0.0, 0.25, n)
        rows = np.sort(rng.choice(n, int(rng.integers(1, n + 1)),
                                  replace=False)).astype(np.int32)
        split_case(X, g, h, rows=rows, min_samples_leaf=int(
            rng.integers(1, 10)))
        split_case(X, g, h, width=int(rng.integers(0, 40)) + n + 2)
    # values-versus-missing is no candidate: a narrow feature whose missing
    # rows carry all the signal must not split there through its padding
    rng = rng_for("split-padding", "missing-only")
    X = np.column_stack([rng.integers(0, 2, 60).astype(float),
                         rng.normal(0.0, 1.0, 60)])
    X[:20, 0] = np.nan
    g = np.where(np.isnan(X[:, 0]), 1.0, -0.5)
    split_case(X, g, np.ones(60), min_samples_leaf=5)
    X = np.full((30, 2), np.nan)
    assert split_case(X, np.ones(30), np.ones(30)) is None
    # features that keep no cut: nearly constant, or values on too few
    # rows, while the last feature keeps its cuts
    for trial in range(20):
        rng = rng_for("split-no-viable-cut", trial)
        n = int(rng.integers(30, 120))
        msl = int(rng.integers(3, 8))
        odd = rng.choice(n, msl - 1, replace=False)
        X = np.column_stack([np.zeros(n), np.full(n, np.nan),
                             rng.normal(0.0, 1.0, n)])
        X[odd, 0] = rng.normal(0.0, 1.0, msl - 1)
        X[odd, 1] = rng.normal(0.0, 1.0, msl - 1)
        g = rng.normal(0.0, 1.0, n)
        best = split_case(X, g, np.full(n, 0.25), min_samples_leaf=msl)
        assert best is None or best[1] == 2


def test_vectorized_split_none_when_leaves_too_small():
    rng = rng_for("split-msl", 0)
    X = rng.normal(0.0, 1.0, (40, 3))
    X[::3, 1] = np.nan
    g = rng.normal(0.0, 1.0, 40)
    h = np.full(40, 0.25)
    assert split_case(X, g, h, min_samples_leaf=20) is not None
    assert split_case(X, g, h, min_samples_leaf=21) is None
    # the best cut leaves exactly min_samples_leaf rows on one side
    x = np.arange(12.0)[:, None]
    g = np.where(x[:, 0] < 3.0, -1.0, 1.0)
    for side, grad, cut in (("left", g, 2), ("right", -g[::-1], 8)):
        assert split_case(x, grad, np.ones(12),
                          min_samples_leaf=3)[1:] == (0, cut, False), side
        assert split_case(x, grad, np.ones(12),
                          min_samples_leaf=4)[2] != cut, side


def test_fit_equals_loop_reference_fit(tmp_path, monkeypatch):
    """A whole gated fit, binary detector and multiclass localizer, saves
    the same model text with the vectorized split search and one-pass
    histograms as with the loop references."""
    rng = rng_for("fit-reference", 0)
    n = 360
    X = np.column_stack([rng.uniform(0.0, 1.0, n),
                         rng.normal(0.0, 1.0, n),
                         rng.integers(0, 4, n).astype(float),
                         np.full(n, np.nan),
                         rng.normal(0.0, 1.0, n)])
    X[rng.random(n) < 0.3, 1] = np.nan
    inc = X[:, 0] > 0.6
    roads = ["north_rd", "east_rd", "west_rd"]
    road = [roads[int(X[i, 2]) % 3] if inc[i] else None for i in range(n)]
    sev = [("severe" if X[i, 4] > 0 else "minor") if inc[i] else None
           for i in range(n)]
    table = FeatureTable(names(5), X, np.arange(n) * 30 + 600, inc, road,
                         sev)
    cfg = small_cfg(n_trees=12, max_depth=4, subsample=0.8, seed=3)
    texts = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(models, "_best_split", loop_best_split)
            monkeypatch.setattr(kernels, "hist_build",
                                as_hist_build(bincount_hist_build))
        model = train_incident_ensemble(table, cfg)
        assert model.localizer is not None
        assert model.localizer.n_classes == 3
        path = tmp_path / f"model_{int(patch)}.json"
        save_model(model, path)
        texts.append(path.read_text(encoding="utf-8"))
    assert texts[0] == texts[1]


class _BinnerKeepingX(models._Binner):
    """The binner, remembering the X it was built from."""

    def __init__(self, X, max_bins):
        super().__init__(X, max_bins)
        self.X = X


def test_quantile_multiclass_fit_equals_padded_reference(tmp_path,
                                                         monkeypatch):
    """A quantile-binned fit with a multiclass localizer and subsampling
    saves the same model text as the references the flat candidate search
    replaced: the padded split search, zero-filled histograms, and margins
    updated by walking every tree over the float X."""
    rng = rng_for("fit-reference", "quantile")
    n = 420
    X = np.column_stack([rng.uniform(0.0, 1.0, n),
                         rng.normal(0.0, 1.0, n),
                         rng.integers(0, 5, n).astype(float),
                         rng.exponential(1.0, n),
                         np.round(rng.normal(0.0, 1.0, n), 1)])
    X[rng.random(n) < 0.3, 1] = np.nan
    X[rng.random(n) < 0.1, 3] = np.nan
    inc = X[:, 0] > 0.5
    roads = ["north_rd", "east_rd", "west_rd", "south_rd"]
    road = [roads[int(X[i, 2]) % 4] if inc[i] else None for i in range(n)]
    sev = [("severe" if X[i, 4] > 0 else "minor") if inc[i] else None
           for i in range(n)]
    table = FeatureTable(names(5), X, np.arange(n) * 30 + 600, inc, road,
                         sev)
    cfg = small_cfg(n_trees=10, max_depth=4, subsample=0.8, seed=5,
                    max_bins=24, min_samples_leaf=3)
    binner = models._Binner(X[inc], cfg.max_bins)
    assert (binner.n_cuts == cfg.max_bins - 2).sum() >= 2  # quantile bins

    real_grow = models._grow_tree

    def grow_then_walk(binner, rows, grad, hess, cfg):
        tree, _step = real_grow(binner, rows, grad, hess, cfg)
        return tree, models._tree_predict(tree, binner.X)

    texts = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(models, "_best_split", padded_best_split)
            monkeypatch.setattr(kernels, "hist_build",
                                as_hist_build(zero_fill_hist_build))
            monkeypatch.setattr(models, "_Binner", _BinnerKeepingX)
            monkeypatch.setattr(models, "_grow_tree", grow_then_walk)
        model = train_incident_ensemble(table, cfg)
        assert model.localizer.n_classes == 4
        path = tmp_path / f"model_{int(patch)}.json"
        save_model(model, path)
        texts.append(path.read_text(encoding="utf-8"))
    assert texts[0] == texts[1]


def test_fit_leaves_no_reference_cycle():
    """Growing a tree makes no reference cycle, so a fit leaves nothing for
    the cycle collector to free.  A first fit runs before the count: the
    first np.unique call imports numpy.ma, and that import leaves cycles."""
    X, y = xor_data(240, 0)
    cfg = small_cfg(n_trees=6, max_depth=4, subsample=0.8)
    train_tree_ensemble(X, y, cfg, names(3))
    gc.collect()
    gc.disable()
    try:
        ens = train_tree_ensemble(X, y, cfg, names(3))
        model = train_incident_ensemble(gated_table(), cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert min(t.feature.size for t in ens.trees) > 3  # not stumps
    assert model.localizer is not None


def test_code_routing_equals_float_routing():
    """On the training rows, code <= j + 1 (code 0 being missing) routes
    exactly as x <= cuts[j] does at every cut, for exact and quantile
    bins, NaNs, values equal to a cut and adjacent floats whose midpoint
    rounds onto one of them."""
    rng = rng_for("code-routing", 0)
    n = 900
    tiny = np.nextafter(1.0, 2.0)
    X = np.column_stack([
        rng.normal(0.0, 1.0, n),                        # quantile, >255
        np.repeat(np.arange(300.0), 3),                 # quantile on values
        rng.integers(0, 7, n).astype(float),            # exact
        rng.choice([1.0, tiny, np.nextafter(tiny, 2.0)], n),
        np.round(rng.normal(0.0, 3.0, n), 2),
    ])
    X[rng.random((n, X.shape[1])) < 0.15] = np.nan
    binner = models._Binner(X, 256)
    assert binner.n_cuts[0] == binner.n_cuts[1] == 254
    on_cut = 0
    for f, cuts in enumerate(binner.cuts):
        col = X[:, f]
        code = binner.codes[:, f]
        assert np.array_equal(code == 0, np.isnan(col))
        on_cut += int(np.isin(col, cuts).sum())
        with np.errstate(invalid="ignore"):
            for j, cut in enumerate(cuts):
                want = col <= cut
                assert np.array_equal((code <= j + 1) & (code != 0), want)
    assert on_cut > 0


def test_hist_build_called_once_per_searched_node(monkeypatch):
    """Each node that reaches split search makes one hist_build call, with
    that node's in-bag rows, ascending, as its second positional argument;
    perfbench counts calls and rows through that argument."""
    rng = rng_for("hist-contract", 0)
    n = 300
    X = rng.normal(0.0, 1.0, (n, 4))
    X[rng.random((n, 4)) < 0.2] = np.nan
    y = np.digitize(np.nansum(X[:, :2], axis=1), [-0.5, 0.5])
    cfg = small_cfg(n_trees=4, max_depth=4, min_samples_leaf=8,
                    subsample=0.7, seed=2, objective="multiclass")
    calls = []
    real = kernels.hist_build

    def recording(*args, **kw):
        assert not kw and len(args) == 5
        calls.append(np.array(args[1]))
        return real(*args)

    monkeypatch.setattr(kernels, "hist_build", recording)
    ens = train_tree_ensemble(X, y, cfg, names(4))

    want = []

    def searched(tree, node, rows, depth):
        if depth < cfg.max_depth and rows.size >= 2 * cfg.min_samples_leaf:
            want.append(rows)
        f = int(tree.feature[node])
        if f < 0:
            return
        x = X[rows, f]
        go_l = np.where(np.isnan(x), tree.missing_left[node],
                        x <= tree.threshold[node])
        searched(tree, int(tree.left[node]), rows[go_l], depth + 1)
        searched(tree, int(tree.right[node]), rows[~go_l], depth + 1)

    sub = np.random.default_rng(cfg.seed)
    assert len(ens.trees) == cfg.n_trees  # one tree per round
    for r in range(cfg.n_trees):
        rows = models._subsample_rows(sub, n, cfg.subsample)
        searched(ens.trees[r], 0, rows, 0)
    internal = sum(int((t.feature >= 0).sum()) for t in ens.trees)
    assert internal < len(want)  # some searches found no split
    assert len(calls) == len(want)
    for got, rows in zip(calls, want):
        assert np.array_equal(got, rows)
        assert np.all(np.diff(got) > 0)


def leaf_of(tree, row):
    """The leaf one row reaches, walked node by node."""
    node = 0
    while tree.feature[node] >= 0:
        x = row[tree.feature[node]]
        if math.isnan(x):
            go_l = tree.missing_left[node]
        else:
            go_l = x <= tree.threshold[node]
        node = tree.left[node] if go_l else tree.right[node]
    return int(node)


def test_multiclass_round_is_binary_tree_on_top_column(monkeypatch):
    """Each multiclass round grows the tree a K = 1 fit grows on that
    round's gradient column with the largest in-bag sum of squares (the
    lowest on a tie), and each leaf holds every class's closed-form
    score over its in-bag rows."""
    rng = rng_for("top-column", 0)
    n = 320
    X = rng.normal(0.0, 1.0, (n, 4))
    X[rng.random((n, 4)) < 0.2] = np.nan
    y = np.digitize(np.nansum(X[:, :2], axis=1), [-1.0, 0.0, 1.0])
    cfg = small_cfg(n_trees=8, max_depth=4, min_samples_leaf=6,
                    subsample=0.7, seed=4, objective="multiclass",
                    reg_lambda=0.5)
    rounds = []
    real = models._grow_tree

    def recording(binner, rows, grad, hess, cfg):
        tree, step = real(binner, rows, grad, hess, cfg)
        rounds.append((binner, rows, grad.copy(), hess.copy(), tree))
        return tree, step

    monkeypatch.setattr(models, "_grow_tree", recording)
    ens = train_tree_ensemble(X, y, cfg, names(4))
    assert ens.n_classes == 4 and len(rounds) == len(ens.trees) == 8

    tops = []
    for binner, rows, grad, hess, tree in rounds:
        assert tree is ens.trees[len(tops)]
        sq = [math.fsum(grad[rows, c] ** 2) for c in range(4)]
        top = sq.index(max(sq))
        tops.append(top)
        want, _step = real(binner, rows, grad[:, [top]], hess[:, [top]],
                           cfg)
        for field in ("feature", "threshold", "missing_left", "left",
                      "right"):
            assert np.array_equal(getattr(tree, field),
                                  getattr(want, field)), field
        assert tree.value.shape == (tree.feature.size, 4)
        leaves = np.array([leaf_of(tree, X[i]) for i in rows])
        for node in np.flatnonzero(tree.feature < 0):
            at = rows[leaves == node]
            for c in range(4):
                closed = (-cfg.learning_rate * math.fsum(grad[at, c])
                          / (math.fsum(hess[at, c]) + cfg.reg_lambda))
                assert tree.value[node, c] == pytest.approx(closed,
                                                            rel=1e-12)
    assert len(set(tops)) > 1  # the top column moves between rounds

    # on an exact tie the lower column wins: columns 1 and 2 carry the same
    # gradients but different hessians, so their trees differ
    binner, rows, grad, hess, _tree = rounds[0]
    tied_g = grad[:, [0, 1, 1]] * np.array([0.5, 1.0, 1.0])
    tied_h = hess[:, [0, 1, 1]] * np.array([1.0, 1.0, 8.0])
    tree, _step = real(binner, rows, tied_g, tied_h, cfg)
    for col, same in ((1, True), (2, False)):
        want, _step = real(binner, rows, tied_g[:, [col]],
                           tied_h[:, [col]], cfg)
        assert (np.array_equal(tree.threshold, want.threshold)
                and np.array_equal(tree.feature, want.feature)) == same


def test_stump_predictions_are_base_plus_leaf():
    X, y = stump_data(3)
    cfg = small_cfg(n_trees=1, max_depth=1, min_samples_leaf=5)
    ens = train_tree_ensemble(X, y, cfg, names(3))
    tree = ens.trees[0]
    m = predict_margin(ens, X)
    f, thr, miss_left = (int(tree.feature[0]), float(tree.threshold[0]),
                         bool(tree.missing_left[0]))
    for i in range(len(y)):
        x = X[i, f]
        go_l = miss_left if math.isnan(x) else x <= thr
        leaf = tree.left[0] if go_l else tree.right[0]
        assert m[i] == ens.base_score[0] + tree.value[leaf]


def test_quantile_binning_on_high_cardinality_feature():
    rng = rng_for("quantile", 0)
    n = 800
    X = rng.normal(0.0, 1.0, (n, 1))  # 800 distinct values, 16 bins
    y = (X[:, 0] > 0.2).astype(int)
    cfg = small_cfg(n_trees=20, max_bins=16)
    ens = train_tree_ensemble(X, y, cfg, names(1))
    acc = ((predict_proba(ens, X) >= 0.5).astype(int) == y).mean()
    assert acc >= 0.95  # rows between adjacent quantile cuts stay ambiguous


# -- predict -----------------------------------------------------------------


def walk(tree, row):
    return tree.value[leaf_of(tree, row)]


def test_predict_matches_scalar_tree_walk_with_missing():
    rng = rng_for("walk", 0)
    n = 300
    X = rng.normal(0.0, 1.0, (n, 4))
    X[rng.random((n, 4)) < 0.2] = np.nan
    y = (np.nansum(X, axis=1) > 0).astype(int)
    ens = train_tree_ensemble(X, y, small_cfg(max_depth=4, n_trees=7),
                              names(4))
    m = predict_margin(ens, X)
    for i in range(n):
        want = ens.base_score[0]
        for tree in ens.trees:
            want += walk(tree, X[i])
        assert m[i] == want  # identical accumulation order, no tolerance


def reference_tree_predict(tree, X):
    """The masked whole-batch walk the per-level walk replaced, kept as its
    bitwise reference: each row's leaf K-vector."""
    n = X.shape[0]
    out = np.zeros((n, tree.value.shape[1]))
    idx = np.zeros(n, dtype=np.int32)
    alive = np.ones(n, dtype=bool)
    while alive.any():
        cur = idx[alive]
        feat = tree.feature[cur]
        leaf = feat < 0
        if leaf.any():
            alive_idx = np.nonzero(alive)[0]
            done = alive_idx[leaf]
            out[done] = tree.value[cur[leaf]]
            alive[done] = False
            alive_idx = alive_idx[~leaf]
            cur = cur[~leaf]
            feat = feat[~leaf]
        else:
            alive_idx = np.nonzero(alive)[0]
        if alive_idx.size == 0:
            break
        x = X[alive_idx, feat]
        is_nan = np.isnan(x)
        with np.errstate(invalid="ignore"):
            go_left = np.where(is_nan, tree.missing_left[cur],
                               x <= tree.threshold[cur])
        idx[alive_idx] = np.where(go_left, tree.left[cur], tree.right[cur])
    return out


def test_tree_walk_equals_reference_walk():
    """Every tree of a binary and a multiclass fit on data with NaNs, whose
    splits send missing values both ways, predicts bitwise what the
    reference walk predicts."""
    rng = rng_for("walk-reference", 0)
    n = 400
    X = rng.normal(0.0, 1.0, (n, 4))
    X[rng.random((n, 4)) < 0.25] = np.nan
    y_bin = (np.nansum(X, axis=1) > 0).astype(int)
    y_multi = np.digitize(np.nansum(X[:, :2], axis=1), [-0.5, 0.5])
    for y, objective in ((y_bin, "binary"), (y_multi, "multiclass")):
        cfg = small_cfg(n_trees=10, max_depth=5, objective=objective)
        ens = train_tree_ensemble(X, y, cfg, names(4))
        sides = np.concatenate([t.missing_left[t.feature >= 0]
                                for t in ens.trees])
        assert sides.any() and not sides.all()
        for tree in ens.trees:
            got = models._tree_predict(tree, X)
            assert got.tobytes() == reference_tree_predict(tree, X).tobytes()


def test_predict_input_validation():
    X = rng_for("val", 0).normal(0.0, 1.0, (40, 2))
    y = (X[:, 0] > 0).astype(int)
    ens = train_tree_ensemble(X, y, small_cfg(), names(2))
    with pytest.raises(ModelError, match="feature columns"):
        predict_margin(ens, X[:, :1])
    with pytest.raises(ModelError, match="feature columns"):
        predict_margin(ens, X[0])


# -- training ----------------------------------------------------------------


def xor_data(n, seed):
    rng = rng_for("xor", seed)
    a = (rng.random(n) < 0.5).astype(float)
    b = (rng.random(n) < 0.5).astype(float)
    X = np.column_stack([a + rng.normal(0.0, 0.05, n),
                         b + rng.normal(0.0, 0.05, n),
                         rng.normal(0.0, 1.0, n)])
    y = (a != b).astype(int)
    return X, y


def test_xor_is_learnable():
    X, y = xor_data(240, 0)
    ens = train_tree_ensemble(X, y, small_cfg(n_trees=40), names(3))
    acc = ((predict_proba(ens, X) >= 0.5).astype(int) == y).mean()
    assert acc >= 0.99


def training_logloss(ens, X, y, n_trees: int) -> float:
    """Mean logistic or softmax loss of the first n_trees trees, which are
    the first n_trees boosting rounds."""
    p = predict_proba(dataclasses.replace(ens, trees=ens.trees[:n_trees]), X)
    if ens.n_classes == 1:
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    p = np.clip(p, 1e-12, None)
    return float(np.mean(-np.log(p[np.arange(len(y)), y])))


def test_training_loss_is_monotone_without_subsampling():
    X, y = xor_data(240, 1)
    ens = train_tree_ensemble(X, y, small_cfg(n_trees=30), names(3))
    losses = [training_logloss(ens, X, y, n_trees=k) for k in range(31)]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-12
    assert losses[-1] < losses[0] / 2.0

    rng = rng_for("multi-mono", 0)
    Xm = rng.normal(0.0, 1.0, (200, 3))
    ym = (Xm[:, 0] > 0).astype(int) + (Xm[:, 1] > 0).astype(int)
    multi = train_tree_ensemble(
        Xm, ym, small_cfg(n_trees=15, objective="multiclass"), names(3))
    mlosses = [training_logloss(multi, Xm, ym, n_trees=k)
               for k in range(16)]
    for a, b in zip(mlosses, mlosses[1:]):
        assert b <= a + 1e-12


def test_seed_controls_subsampling_only():
    X, y = xor_data(300, 2)
    same1 = train_tree_ensemble(X, y, small_cfg(subsample=0.7, seed=5,
                                                n_trees=10), names(3))
    same2 = train_tree_ensemble(X, y, small_cfg(subsample=0.7, seed=5,
                                                n_trees=10), names(3))
    np.testing.assert_array_equal(predict_margin(same1, X),
                                  predict_margin(same2, X))
    other = train_tree_ensemble(X, y, small_cfg(subsample=0.7, seed=6,
                                                n_trees=10), names(3))
    assert not np.array_equal(predict_margin(same1, X),
                              predict_margin(other, X))
    # at subsample=1.0 the seed has nothing left to influence
    full1 = train_tree_ensemble(X, y, small_cfg(seed=1), names(3))
    full2 = train_tree_ensemble(X, y, small_cfg(seed=2), names(3))
    np.testing.assert_array_equal(predict_margin(full1, X),
                                  predict_margin(full2, X))


def test_binary_base_score_is_weighted_log_odds():
    X = rng_for("base", 0).normal(0.0, 1.0, (40, 2))
    y = np.array([1] * 10 + [0] * 30)
    ens = train_tree_ensemble(X, y, small_cfg(n_trees=1), names(2))
    assert ens.base_score[0] == pytest.approx(math.log(0.25 / 0.75))
    w = np.where(y == 1, 3.0, 1.0)
    wens = train_tree_ensemble(X, y, small_cfg(n_trees=1), names(2),
                               sample_weight=w)
    assert wens.base_score[0] == pytest.approx(math.log(0.5 / 0.5))


def test_multiclass_shapes_and_prior_base():
    rng = rng_for("blobs", 0)
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    y = rng.integers(0, 3, 300)
    X = centers[y] + rng.normal(0.0, 0.4, (300, 2))
    cfg = small_cfg(n_trees=20, objective="multiclass")
    ens = train_tree_ensemble(X, y, cfg, names(2))
    assert ens.n_classes == 3
    assert len(ens.trees) == 20  # one tree per round
    assert all(t.value.shape == (t.feature.size, 3) for t in ens.trees)
    prior = np.clip(np.bincount(y, minlength=3) / 300.0, 1e-6, None)
    np.testing.assert_allclose(ens.base_score,
                               np.log(prior / prior.sum()))
    p = predict_proba(ens, X)
    assert p.shape == (300, 3)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (np.argmax(p, axis=1) == y).mean() >= 0.95


def test_target_validation():
    rng = rng_for("targets", 0)
    X = rng.normal(0.0, 1.0, (30, 2))
    with pytest.raises(ModelError, match="single class"):
        train_tree_ensemble(X, np.zeros(30, dtype=int), small_cfg(),
                            names(2))
    with pytest.raises(ModelError, match="0/1"):
        train_tree_ensemble(X, np.repeat([1, 2], 15), small_cfg(), names(2))
    with pytest.raises(ModelError, match="0..K-1"):
        train_tree_ensemble(X, np.repeat([0, 2], 15),
                            small_cfg(objective="multiclass"), names(2))
    with pytest.raises(ModelError, match="row counts"):
        train_tree_ensemble(X, np.zeros(29, dtype=int), small_cfg(),
                            names(2))
    with pytest.raises(ModelError, match="feature name count"):
        train_tree_ensemble(X, np.repeat([0, 1], 15), small_cfg(),
                            names(3))
    with pytest.raises(ModelError, match="empty"):
        train_tree_ensemble(np.empty((0, 2)), np.empty(0), small_cfg(),
                            names(2))


# -- gating ------------------------------------------------------------------


def populated(column) -> np.ndarray:
    """Which entries of a Predictions label column hold a label."""
    return np.array([v is not None for v in column], dtype=bool)


def assert_same_predictions(a: Predictions, b: Predictions) -> None:
    """Every column equal, window by window."""
    for name, col_a, col_b in zip(Predictions._fields, a, b):
        assert col_a.dtype == col_b.dtype, name
        assert col_a.tolist() == col_b.tolist(), name


def gated_table(n=400, seed=0, single_road=False, single_severity=False):
    rng = rng_for("gated", seed)
    X = rng.uniform(0.0, 1.0, (n, 3))
    inc = X[:, 0] > 0.7
    road = [None] * n
    sev = [None] * n
    for i in np.nonzero(inc)[0]:
        road[i] = "east_rd" if (single_road or X[i, 1] > 0.5) else "west_rd"
        sev[i] = "severe" if (not single_severity and X[i, 2] > 0.5) \
            else "minor"
    return FeatureTable(names(3), X, np.arange(n) * 30 + 600,
                        inc, road, sev)


def test_gated_ensemble_learns_and_respects_threshold():
    table = gated_table()
    model = train_incident_ensemble(table, small_cfg(n_trees=30),
                                    threshold=0.5)
    assert model.road_classes == ["east_rd", "west_rd"]
    assert model.severity_classes == ["minor", "severe"]
    preds = infer_batch(model, table.X, table.window_end)
    assert isinstance(preds, Predictions)
    assert all(len(col) == table.n_rows for col in preds)
    np.testing.assert_array_equal(preds.window_end, table.window_end)
    np.testing.assert_array_equal(preds.detected, preds.score >= 0.5)
    np.testing.assert_array_equal(populated(preds.road), preds.detected)
    np.testing.assert_array_equal(populated(preds.severity), preds.detected)
    road = np.asarray(table.label_road, dtype=object)
    sev = np.asarray(table.label_severity, dtype=object)
    correct = np.sum(preds.detected & table.label_incident
                     & (preds.road == road) & (preds.severity == sev))
    assert correct >= 0.85 * int(table.label_incident.sum())
    det_acc = np.mean(preds.detected == table.label_incident)
    assert det_acc >= 0.95

    strict = train_incident_ensemble(table, small_cfg(n_trees=30),
                                     threshold=0.95)
    loose_hits = set(preds.window_end[preds.detected].tolist())
    strict_preds = infer_batch(strict, table.X, table.window_end)
    strict_hits = set(
        strict_preds.window_end[strict_preds.detected].tolist())
    assert strict_hits <= loose_hits


def test_degenerate_submodels_emit_constants():
    table = gated_table(single_road=True, single_severity=True)
    model = train_incident_ensemble(table, small_cfg(n_trees=20))
    assert model.localizer is None
    assert model.severity is None
    assert model.road_classes == ["east_rd"]
    assert model.severity_classes == ["minor"]
    preds = infer_batch(model, table.X, table.window_end)
    assert preds.detected.any()
    assert preds.road[preds.detected].tolist() == \
        ["east_rd"] * int(preds.detected.sum())
    assert preds.severity[preds.detected].tolist() == \
        ["minor"] * int(preds.detected.sum())
    np.testing.assert_array_equal(populated(preds.road), preds.detected)
    np.testing.assert_array_equal(populated(preds.severity), preds.detected)


def test_ensemble_label_requirements():
    table = gated_table()
    all_neg = FeatureTable(table.feature_names, table.X, table.window_end,
                           np.zeros(table.n_rows, dtype=bool),
                           [None] * table.n_rows, [None] * table.n_rows)
    with pytest.raises(ModelError, match="no positive"):
        train_incident_ensemble(all_neg, small_cfg())
    all_pos = FeatureTable(table.feature_names, table.X, table.window_end,
                           np.ones(table.n_rows, dtype=bool),
                           ["east_rd"] * table.n_rows,
                           ["minor"] * table.n_rows)
    with pytest.raises(ModelError, match="no negative"):
        train_incident_ensemble(all_pos, small_cfg())
    holes = gated_table()
    holes.label_road[int(np.nonzero(holes.label_incident)[0][0])] = None
    with pytest.raises(ModelError, match="road label"):
        train_incident_ensemble(holes, small_cfg())


# -- io ----------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    table = gated_table(seed=4)
    model = train_incident_ensemble(table, small_cfg(n_trees=12),
                                    threshold=0.6)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.threshold == 0.6
    assert back.feature_names == model.feature_names
    assert back.schema_hash == model.schema_hash
    assert back.road_classes == model.road_classes
    # each sub-model's config, objective included, comes back from the one
    # shared config and its role
    for sub in ("detector", "localizer", "severity"):
        assert getattr(back, sub).config == getattr(model, sub).config
    assert [back.detector.config.objective, back.localizer.config.objective,
            back.severity.config.objective] == ["binary", "multiclass",
                                                "binary"]
    assert_same_predictions(infer_batch(back, table.X, table.window_end),
                            infer_batch(model, table.X, table.window_end))
    # the schema and the settings are stated once, at the top
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == "trafficlab-model/3"
    assert doc["config"] == dict(n_trees=12, max_depth=3, learning_rate=0.3,
                                 min_samples_leaf=2, subsample=1.0,
                                 reg_lambda=1.0, max_bins=256, seed=0)
    assert doc["feature_names"] == model.feature_names
    for sub in ("detector", "localizer", "severity"):
        assert set(doc[sub]) == {"base_score", "trees"}

    degen = train_incident_ensemble(
        gated_table(single_road=True, single_severity=True),
        small_cfg(n_trees=8))
    save_model(degen, path)
    again = load_model(path)
    assert again.localizer is None and again.severity is None
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["localizer"] is None and doc["severity"] is None
    assert doc["road_classes"] == ["east_rd"]


def test_saved_text_equals_pure_python_encoder(tmp_path):
    """save_model writes with the C encoder; the text equals what the
    pure-Python encoder behind json.dump writes for the same document."""
    rng = rng_for("encoder", 0)
    X = rng.normal(0.0, 1.0, (200, 3))
    X[rng.random((200, 3)) < 0.2] = np.nan
    y = np.digitize(X[:, 0], [-0.5, 0.5])
    ens = train_tree_ensemble(X, y, small_cfg(n_trees=6,
                                              objective="multiclass"),
                              names(3))
    det = train_tree_ensemble(X, (y > 0).astype(int), small_cfg(n_trees=6),
                              names(3))
    model = EnsembleModel(det, ens, None, ["a_rd", "b_rd", "c_rd"],
                          ["minor"], 0.5, names(3))
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    buf = io.StringIO()
    json.dump(json.loads(text), buf)
    buf.write("\n")
    assert text == buf.getvalue()


def test_hand_built_model_saves_and_loads_back(tmp_path):
    """The schema hash is read off feature_names, so a model built by hand
    carries no hash of its own to disagree with them: it saves, and loads
    back with the same hash and predictions."""
    rng = rng_for("hand-built", 0)
    X = rng.normal(0.0, 1.0, (120, 3))
    det = train_tree_ensemble(X, (X[:, 0] > 0).astype(int),
                              small_cfg(n_trees=4), names(3))
    model = EnsembleModel(det, None, None, ["a_rd"], ["minor"], 0.5,
                          names(3))
    with pytest.raises(TypeError):
        EnsembleModel(det, None, None, ["a_rd"], ["minor"], 0.5, names(3),
                      schema_hash="0" * 16)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.schema_hash == model.schema_hash
    assert json.loads(path.read_text(encoding="utf-8"))["schema_hash"] == (
        model.schema_hash)
    ends = np.arange(len(X))
    assert_same_predictions(infer_batch(back, X, ends),
                            infer_batch(model, X, ends))


def test_save_rejects_a_head_fitted_under_other_settings(tmp_path):
    """model.json states one training config, the detector's; a head
    fitted under other settings would load back with changed ones, so
    save_model names the head and the fields that differ, and writes no
    file."""
    table = gated_table(seed=4)
    model = train_incident_ensemble(table, small_cfg(n_trees=4))
    inc = table.label_incident
    roads = [r for r in table.label_road if r is not None]
    y = np.array([sorted(set(roads)).index(r) for r in roads])
    other = small_cfg(n_trees=3, learning_rate=0.2, objective="multiclass")
    model.localizer = train_tree_ensemble(table.X[inc], y, other, names(3))
    path = tmp_path / "model.json"
    with pytest.raises(ModelError, match=r"^localizer was fitted with other "
                       r"settings than the detector: n_trees, learning_rate$"):
        save_model(model, path)
    assert not path.exists()


def test_load_rejects_other_files(tmp_path):
    p = tmp_path / "not_model.json"
    for text in ('{"format": "something-else"}\n', "[1, 2]\n"):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ModelError, match="not a"):
            load_model(p)


def _saved_doc(tmp_path):
    path = tmp_path / "model.json"
    save_model(train_incident_ensemble(gated_table(seed=5),
                                       small_cfg(n_trees=4)), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_load_names_a_truncated_file(tmp_path):
    path, _doc = _saved_doc(tmp_path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:len(text) // 2], encoding="utf-8")
    with pytest.raises(ModelError, match="model.json: not valid JSON"):
        load_model(path)


def test_load_rejects_tampered_schema_hash(tmp_path):
    path, doc = _saved_doc(tmp_path)
    path.write_text(json.dumps(dict(doc, schema_hash="0" * 16)),
                    encoding="utf-8")
    with pytest.raises(ModelError, match="schema_hash"):
        load_model(path)


def test_load_rejects_an_objective_in_the_config(tmp_path):
    """save_model writes no objective, as each sub-model takes its role's;
    one written by hand would be ignored, so it is refused."""
    path, doc = _saved_doc(tmp_path)
    doc["config"]["objective"] = "multiclass"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelError, match="^" + re.escape(
            f"{path}: config.objective is not a setting of model.json; each "
            "sub-model takes its role's objective") + "$"):
        load_model(path)


def test_load_rejects_missing_and_ill_typed_keys(tmp_path):
    path, doc = _saved_doc(tmp_path)
    for drop in ("detector", "threshold", "schema_hash", "feature_names",
                 "config"):
        bad = dict(doc)
        del bad[drop]
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ModelError, match=f"missing key '{drop}'"):
            load_model(path)
    bad = copy.deepcopy(doc)
    del bad["detector"]["trees"]
    path.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(ModelError, match="missing key 'trees'"):
        load_model(path)
    for key, val in (("threshold", "high"), ("detector", [1, 2]),
                     ("feature_names", 7)):
        bad = dict(doc, **{key: val})
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ModelError, match="malformed"):
            load_model(path)


def test_load_rejects_a_threshold_outside_0_1(tmp_path):
    """5.0 and NaN would flag no row and -1.0 every row, so a threshold
    outside (0, 1) is refused, as in the experiment config."""
    path, doc = _saved_doc(tmp_path)
    for value in (5.0, float("nan"), -1.0, 0.0, 1.0):
        path.write_text(json.dumps(dict(doc, threshold=value)),
                        encoding="utf-8")
        with pytest.raises(ModelError, match=(
                rf"^{re.escape(str(path))}: threshold {value!r} does not "
                r"lie in \(0, 1\)$")):
            load_model(path)
