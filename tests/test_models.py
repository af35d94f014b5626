"""Boosted-tree model tests.

Index:
  config      hyperparameter validation
  splits      root split against exhaustive enumeration, leaf closed form,
              vectorized split search and whole fits against loop references
  predict     tree-walk oracle with missing values, input checks
  training    learnability, loss monotonicity, determinism, base scores
  gating      stacked detector/localizer/severity behavior
  io          JSON round trip, format guard, malformed and tampered files
"""
import copy
import json
import math

import numpy as np
import pytest

from trafficlab import kernels, models
from trafficlab.features import FeatureTable
from trafficlab.models import (EnsembleModel, IncidentPrediction, ModelError,
                               TreeEnsembleConfig, infer, infer_batch,
                               load_model, predict_margin, predict_proba,
                               save_model, train_incident_ensemble,
                               train_tree_ensemble, training_logloss)

from conftest import rng_for
from test_kernels import bincount_hist_build


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
            assert float(tree.value[side]) == pytest.approx(want_v,
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
        want = loop_best_split(*hists, binner, cfg)
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


def test_vectorized_split_none_when_leaves_too_small():
    rng = rng_for("split-msl", 0)
    X = rng.normal(0.0, 1.0, (40, 3))
    X[::3, 1] = np.nan
    g = rng.normal(0.0, 1.0, 40)
    h = np.full(40, 0.25)
    assert split_case(X, g, h, min_samples_leaf=20) is not None
    assert split_case(X, g, h, min_samples_leaf=21) is None


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
            monkeypatch.setattr(kernels, "hist_build", bincount_hist_build)
        model = train_incident_ensemble(table, cfg)
        assert model.localizer is not None
        assert model.localizer.n_classes == 3
        path = tmp_path / f"model_{int(patch)}.json"
        save_model(model, path)
        texts.append(path.read_text(encoding="utf-8"))
    assert texts[0] == texts[1]


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
    node = 0
    while tree.feature[node] >= 0:
        x = row[tree.feature[node]]
        if math.isnan(x):
            go_l = tree.missing_left[node]
        else:
            go_l = x <= tree.threshold[node]
        node = tree.left[node] if go_l else tree.right[node]
    return tree.value[node]


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
    assert len(ens.trees) == 20 * 3  # round-major, one per class per round
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
    correct = 0
    for p, want_inc, want_road, want_sev in zip(
            preds, table.label_incident, table.label_road,
            table.label_severity):
        assert p.detected == (p.score >= 0.5)
        assert (p.road_label is not None) == p.detected
        assert (p.severity is not None) == p.detected
        if p.detected and want_inc:
            correct += (p.road_label == want_road
                        and p.severity == want_sev)
    assert correct >= 0.85 * int(table.label_incident.sum())
    det_acc = np.mean([p.detected == want for p, want
                       in zip(preds, table.label_incident)])
    assert det_acc >= 0.95

    strict = train_incident_ensemble(table, small_cfg(n_trees=30),
                                     threshold=0.95)
    loose_hits = {p.window_end for p in preds if p.detected}
    strict_hits = {p.window_end
                   for p in infer_batch(strict, table.X, table.window_end)
                   if p.detected}
    assert strict_hits <= loose_hits


def test_degenerate_submodels_emit_constants():
    table = gated_table(single_road=True, single_severity=True)
    model = train_incident_ensemble(table, small_cfg(n_trees=20))
    assert model.localizer is None
    assert model.severity is None
    assert model.road_classes == ["east_rd"]
    assert model.severity_classes == ["minor"]
    hits = [p for p in infer_batch(model, table.X) if p.detected]
    assert hits
    assert all(p.road_label == "east_rd" for p in hits)
    assert all(p.severity == "minor" for p in hits)


def test_infer_single_row_matches_batch():
    table = gated_table(seed=2)
    model = train_incident_ensemble(table, small_cfg(n_trees=10))
    batch = infer_batch(model, table.X[:25], table.window_end[:25])
    for i in range(25):
        assert infer(model, table.X[i], int(table.window_end[i])) == batch[i]


def test_prediction_container_enforces_gating():
    with pytest.raises(ModelError, match="gating"):
        IncidentPrediction(0, True, 0.9, None, None)
    with pytest.raises(ModelError, match="gating"):
        IncidentPrediction(0, True, 0.9, "east_rd", None)
    with pytest.raises(ModelError, match="gating"):
        IncidentPrediction(0, False, 0.1, "east_rd", "minor")
    IncidentPrediction(0, True, 0.9, "east_rd", "minor")
    IncidentPrediction(0, False, 0.1, None, None)


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
    assert back.detector.config == model.detector.config
    assert infer_batch(back, table.X, table.window_end) == \
        infer_batch(model, table.X, table.window_end)

    degen = train_incident_ensemble(
        gated_table(single_road=True, single_severity=True),
        small_cfg(n_trees=8))
    save_model(degen, path)
    again = load_model(path)
    assert again.localizer is None and again.severity is None


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


def test_load_rejects_tampered_schema_hash(tmp_path):
    path, doc = _saved_doc(tmp_path)
    for part in (None, "detector", "localizer", "severity"):
        bad = copy.deepcopy(doc)
        (bad if part is None else bad[part])["schema_hash"] = "0" * 16
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ModelError, match="schema_hash"):
            load_model(path)


def test_load_rejects_missing_and_ill_typed_keys(tmp_path):
    path, doc = _saved_doc(tmp_path)
    for drop in ("detector", "threshold", "schema_hash", "feature_names"):
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
