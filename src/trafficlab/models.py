"""Gradient-boosted decision trees and the gated incident ensemble.

The learner is histogram-based second-order boosting: features are binned
once (exact unique-value bins while they fit, quantile bins beyond), each
node accumulates gradient/hessian/count histograms (a hot kernel), and the
best split maximizes the standard regularized gain, with both missing-value
routings tried at every cut of a feature that has missing values.  Missing
values (NaN) get a learned default direction per split, which is how sparse
travel-time columns stay usable without imputation.

Each boosting round grows one tree whose leaves hold one score per class
(K = 1 for binary); a multiclass round searches splits on its top class's
gradients only (SketchBoost's top-outputs sketch with k = 1).

The incident ensemble stacks three of these: a binary detector over all
rows, and a road localizer and severity classifier trained on positive rows
only, consulted only when the detector fires.  `infer_batch` returns its
predictions as one `Predictions` of per-window columns, whose road and
severity are None wherever the detector did not fire.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import kernels, kind_fault, open_text, write_lines


class ModelError(ValueError):
    pass


@dataclass
class TreeEnsembleConfig:
    n_trees: int = 200
    max_depth: int = 6
    learning_rate: float = 0.1
    min_samples_leaf: int = 20
    subsample: float = 0.8
    objective: str = "binary"  # binary | multiclass
    reg_lambda: float = 1.0
    max_bins: int = 256
    seed: int = 0

    def __post_init__(self):
        # load_config's kind rule: model.json can hold a bool, a fraction
        # or NaN where an integer belongs and true where a number does; a
        # NaN number fails its range check below
        for name, f in self.__dataclass_fields__.items():
            value = getattr(self, name)
            what = kind_fault(value, f.default)
            if what:
                raise ModelError(f"{name} must be {what}, not {value!r}")
        if self.n_trees < 1:
            raise ModelError("need at least one tree")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ModelError("learning rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ModelError("depth must be at least 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ModelError("subsample fraction must be in (0, 1]")
        if self.objective not in ("binary", "multiclass"):
            raise ModelError(f"unknown objective {self.objective!r}")
        if not 2 <= self.max_bins <= 256:
            raise ModelError("max_bins must be in [2, 256]")
        if self.min_samples_leaf < 1:
            raise ModelError("min_samples_leaf must be at least 1")
        if not 0.0 <= self.reg_lambda < math.inf:  # NaN included
            raise ModelError("reg_lambda must be non-negative and finite")
        if self.seed < 0:
            raise ModelError("model.seed must not be negative")


def _is_int32(x) -> bool:
    return type(x) is int and -2**31 <= x < 2**31


def _is_finite(x) -> bool:
    return type(x) in (int, float) and abs(x) <= sys.float_info.max  # not NaN


# (field, test of one of its entries, what the entries must be)
_TREE_ENTRIES = (
    ("feature", _is_int32, "32-bit integers"),
    ("threshold", _is_finite, "finite numbers"),
    ("missing_left", lambda x: type(x) is int and x in (0, 1), "0s and 1s"),
    ("left", _is_int32, "32-bit integers"),
    ("right", _is_int32, "32-bit integers"),
    ("value", lambda row: _is_finite(row)  # _tree_fault refuses 1-d value
     or type(row) is list and all(map(_is_finite, row)),
     "lists of finite numbers"))


@dataclass
class _Tree:
    feature: np.ndarray   # int32; -1 marks a leaf
    threshold: np.ndarray
    missing_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray     # (nodes, K) leaf scores, learning rate applied

    def to_jsonable(self) -> dict:
        return {"feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "missing_left": self.missing_left.astype(int).tolist(),
                "left": self.left.tolist(),
                "right": self.right.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_jsonable(cls, d: dict) -> "_Tree":
        """The stored tree, each field a list of what to_jsonable writes
        (_TREE_ENTRIES).  Bools and strings are refused: the casts would
        read true as 1 and "0.5" as 0.5, truncate a fraction and overflow
        on an infinity."""
        for name, ok, kind in _TREE_ENTRIES:
            v = d[name]
            bad = [x for x in v if not ok(x)] if isinstance(v, list) else [v]
            if bad:
                raise ModelError(f"{name} holds {json.dumps(bad[0])}, "
                                 f"expected a list of {kind}")
        return cls(np.asarray(d["feature"], dtype=np.int32),
                   np.asarray(d["threshold"], dtype=np.float64),
                   np.asarray(d["missing_left"], dtype=bool),
                   np.asarray(d["left"], dtype=np.int32),
                   np.asarray(d["right"], dtype=np.int32),
                   np.asarray(d["value"], dtype=np.float64))


def _schema_hash(feature_names) -> str:
    return hashlib.sha256(",".join(feature_names).encode()).hexdigest()[:16]


@dataclass
class TreeEnsemble:
    config: TreeEnsembleConfig
    feature_names: list
    n_classes: int           # 1 for binary
    base_score: np.ndarray   # shape (n_classes,)
    trees: list              # one tree per boosting round


class _Binner:
    """Per-feature discretization, and what the split search of every node
    of a fit reuses.

    Code 0 is missing and codes 1..K ascend in value.  Cut j sends codes
    1..j+1 left, so ``code <= j + 1`` is exactly ``x <= cuts[j]`` (exact
    midpoints when the unique values fit in the bin budget, quantiles
    beyond).  ``cells`` holds each row's histogram cell per feature, its
    code plus the feature times ``width``.  The split candidates come in
    runs, one per (feature, missing side) in that order, each holding its
    feature's own cuts, ascending.  A feature gets a missing-left run only
    when it has a NaN in X: without one, missing-left ties missing-right,
    which comes first, so it can never win.
    """

    def __init__(self, X: np.ndarray, max_bins: int):
        self.cuts: list = []
        n_levels = max_bins - 1  # code 0 reserved for missing
        n_feat = X.shape[1]
        self.codes = np.zeros(X.shape, dtype=np.uint8)
        for f in range(n_feat):
            col = X[:, f]
            finite = col[~np.isnan(col)]
            if finite.size == 0:
                self.cuts.append(np.empty(0))
                continue
            uniq = np.unique(finite)
            if uniq.size <= n_levels:
                cuts = (uniq[:-1] + uniq[1:]) / 2.0
            else:
                qs = np.quantile(finite,
                                 np.linspace(0.0, 1.0, n_levels + 1))
                cuts = np.unique(qs[1:-1])
            self.cuts.append(cuts)
            mask = ~np.isnan(col)
            # side="left" keeps x == cut in the left group, matching the
            # x <= threshold routing used at prediction time
            self.codes[mask, f] = (
                np.searchsorted(cuts, col[mask], side="left") + 1
            ).astype(np.uint8)

        self.n_cuts = np.array([len(c) for c in self.cuts], dtype=np.intp)
        self.max_cuts = int(self.n_cuts.max(initial=0))
        self.width = self.max_cuts + 2  # missing + value bins, widest
        self.cells = self.codes + np.arange(n_feat) * self.width

        # candidate runs, one per (feature, missing side) with cuts
        nan_cols = np.isnan(X).any(axis=0)
        runs = [(f, side) for f in np.flatnonzero(self.n_cuts)
                for side in ((False, True) if nan_cols[f] else (False,))]
        feat = np.array([f for f, _ in runs], dtype=np.intp)
        self.run_feature = feat
        self.run_missing_left = np.array([s for _, s in runs], dtype=bool)
        # where a run's cuts sit in the flat (feature, code) count sums:
        # cut j of feature f is code j + 1, and the missing code 0 sits
        # just before cut 0
        self.run_first = feat * self.width + 1
        self.run_stop = self.run_first + self.n_cuts[feat]
        # and in the (g/h, feature, cut) prefix sums, and the missing sums,
        # whose last column is the zero a missing-right run adds
        stride = self.max_cuts + 1
        self.run_prefix = feat * stride
        self.run_missing = np.where(self.run_missing_left, feat, n_feat)
        self.total_at = np.arange(n_feat) * stride + self.n_cuts
        # scratch the split search fills in place at every node; the kept
        # candidates fill the front of sums and gains
        n_cand = int(self.n_cuts[feat].sum())
        self.prefix = np.empty((2, n_feat, stride))
        self.missing = np.zeros((2, n_feat + 1))
        self.run_sums = np.empty((5, feat.size))
        self.sums = np.empty(4 * n_cand)
        self.gains = np.empty(n_cand)


def _best_split(hist_g, hist_h, hist_n, binner: _Binner,
                cfg: TreeEnsembleConfig):
    """(gain, feature, cut_index, missing_left) of the best candidate, or
    None.

    The histograms are (feature, bin), flat or 2-d, at least
    ``binner.width`` bins per feature, and the count histogram holds each
    of the node's rows once per feature; bins past the widest feature's are
    never read.  A candidate is kept only when it leaves at least
    ``min_samples_leaf`` rows on each side, which the counts decide before
    any gradient is summed.  The kept candidates' gradient and hessian sums
    are gathered from per-feature prefix sums and scored in one flat
    array.  The first strict maximum in
    (feature, missing side, cut) order wins: exact ties go to the lower
    feature, then to missing-right before missing-left, then to the lower
    cut.  A (feature, missing side) run holding a NaN gain among its kept
    candidates is skipped whole.
    """
    if binner.run_feature.size == 0:
        return None
    n_feat = binner.n_cuts.size
    top = binner.max_cuts + 2
    hist_g = hist_g.reshape(n_feat, -1)[:, :top]
    hist_h = hist_h.reshape(n_feat, -1)[:, :top]
    hist_n = hist_n.reshape(n_feat, -1)[:, :top]
    # The running count over the flat (feature, code) grid never falls, so
    # the cuts of a run that leave msl rows on each side are one stretch of
    # it, found by two binary searches.  The rows left of a cut are those
    # counted past `before`, the running count through the run's missing
    # code (missing-right) or up to it (missing-left).
    count = hist_n.cumsum()
    rows = count[top - 1]
    msl = cfg.min_samples_leaf
    before = count.take(binner.run_first - 1)
    before -= hist_n[:, 0].take(binner.run_feature) * binner.run_missing_left
    start = count.searchsorted(before + msl)
    stop = count.searchsorted(before + (rows - msl), side="right")
    np.maximum(start, binner.run_first, out=start)
    np.minimum(stop, binner.run_stop, out=stop)
    kept = np.maximum(stop - start, 0)
    ends = kept.cumsum()
    m = int(ends[-1])
    if m == 0:
        return None
    # value codes run 1..k+1; cut j splits code <= j+1 from above.  Prefix
    # sums run bin by bin, so a feature's sums over its own bins do not
    # depend on the bins behind them.
    prefix, miss = binner.prefix, binner.missing
    hist_g[:, 1:].cumsum(axis=1, out=prefix[0])
    hist_h[:, 1:].cumsum(axis=1, out=prefix[1])
    miss[0, :n_feat] = hist_g[:, 0]
    miss[1, :n_feat] = hist_h[:, 0]
    flat = prefix.reshape(2, -1)
    total = flat.take(binner.total_at, axis=1)
    total += miss[:, :n_feat]
    lam = cfg.reg_lambda
    # per run: the (g, h) its missing rows add on the left, its feature's
    # (g, h) totals and parent score; then the same per kept candidate
    per_run = binner.run_sums
    miss.take(binner.run_missing, axis=1, out=per_run[:2])
    total.take(binner.run_feature, axis=1, out=per_run[2:4])
    # a kept candidate's prefix index: its run's cut 0 plus its cut
    at = (binner.run_prefix + start - binner.run_first - ends
          + kept).repeat(kept)
    at += np.arange(m)
    # sums[side of the cut, g/h, kept candidate]
    sums = binner.sums[:4 * m].reshape(2, 2, m)
    flat.take(at, axis=1, out=sums[0])
    g, h = sums[:, 0], sums[:, 1]
    gains = binner.gains[:m]
    with np.errstate(divide="ignore", invalid="ignore"):
        (total[0] * total[0] / (total[1] + lam)).take(binner.run_feature,
                                                       out=per_run[4])
        per_cand = per_run.repeat(kept, axis=1)
        sums[0] += per_cand[:2]
        np.subtract(per_cand[2:4], sums[0], out=sums[1])
        h += lam
        g *= g
        g /= h
        np.add(g[0], g[1], out=gains)
        gains -= per_cand[4]
        gains *= 0.5
    i = int(gains.argmax())
    if np.isnan(gains[i]):  # argmax stops at the first NaN
        run = np.arange(kept.size).repeat(kept)
        bad = np.zeros(kept.size, dtype=bool)
        bad[run[np.isnan(gains)]] = True
        gains[bad[run]] = -np.inf
        i = int(gains.argmax())
    best = float(gains[i])
    if not best > 0.0:
        return None
    r = int(ends.searchsorted(i, side="right"))
    cut = start[r] - binner.run_first[r] + i - (ends[r] - kept[r])
    return (best, int(binner.run_feature[r]), int(cut),
            bool(binner.run_missing_left[r]))


def _grow_tree(binner: _Binner, rows, grad, hess,
               cfg: TreeEnsembleConfig):
    """Grow one tree on the in-bag ``rows`` from (n, K) gradients and
    hessians; return it with the (n, K) margin step of every training row.

    Split search reads one column, the class with the largest sum of
    squared in-bag gradients (the lowest such class on a tie).  Each leaf
    holds the K-vector ``-lr * G_c / (H_c + lambda)`` of its in-bag rows.
    In-bag rows reach their leaf through the partition; the out-of-bag
    rows are routed down the same splits on their codes, which is exactly
    the float routing of ``_tree_predict``.
    """
    top = (0 if grad.shape[1] == 1
           else int(np.argmax(np.square(grad[rows]).sum(axis=0))))
    codes = binner.codes
    size = codes.shape[1] * binner.width
    leaf_of = np.empty(codes.shape[0], dtype=np.intp)
    outside = np.ones(codes.shape[0], dtype=bool)
    outside[rows] = False
    feature: list = []
    threshold: list = []
    missing_left: list = []
    left: list = []
    right: list = []
    value: list = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        missing_left.append(False)
        left.append(-1)
        right.append(-1)
        value.append(np.zeros(grad.shape[1]))
        return len(feature) - 1

    def split(rows_part, f, j, miss_left):
        code_col = codes[rows_part, f]
        go_left = code_col <= j + 1
        if not miss_left:
            go_left &= code_col != 0
        return rows_part[go_left], rows_part[~go_left]

    # (in-bag rows, out-of-bag rows, depth, node) still to grow, popped
    # left subtree first; a split numbers both children at once
    stack = [(rows, np.flatnonzero(outside), 0, new_node())]
    while stack:
        rows_node, oob_node, depth, node = stack.pop()
        found = None
        if depth < cfg.max_depth \
                and rows_node.size >= 2 * cfg.min_samples_leaf:
            hists = kernels.hist_build(binner.cells, rows_node,
                                       grad[:, top], hess[:, top], size)
            found = _best_split(*hists, binner, cfg)
        if found is None:
            value[node] = (-cfg.learning_rate * grad[rows_node].sum(axis=0)
                           / (hess[rows_node].sum(axis=0) + cfg.reg_lambda))
            leaf_of[rows_node] = node
            leaf_of[oob_node] = node
            continue
        _gain, f, j, miss_left = found
        feature[node] = f
        threshold[node] = float(binner.cuts[f][j])
        missing_left[node] = miss_left
        rows_l, rows_r = split(rows_node, f, j, miss_left)
        oob_l, oob_r = split(oob_node, f, j, miss_left)
        left[node] = new_node()
        right[node] = new_node()
        stack.append((rows_r, oob_r, depth + 1, right[node]))
        stack.append((rows_l, oob_l, depth + 1, left[node]))
    tree = _Tree(np.asarray(feature, dtype=np.int32),
                 np.asarray(threshold),
                 np.asarray(missing_left, dtype=bool),
                 np.asarray(left, dtype=np.int32),
                 np.asarray(right, dtype=np.int32),
                 np.asarray(value))
    return tree, tree.value[leaf_of]


def _tree_predict(tree: _Tree, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row: the rows still at internal nodes move down
    one level per step."""
    node = np.zeros(X.shape[0], dtype=np.int32)
    rows = np.flatnonzero(tree.feature[node] >= 0)
    while rows.size:
        cur = node[rows]
        x = X[rows, tree.feature[cur]]
        go_left = np.where(np.isnan(x), tree.missing_left[cur],
                           x <= tree.threshold[cur])
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
        rows = rows[tree.feature[node[rows]] >= 0]
    return tree.value[node]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_tree_ensemble(X: np.ndarray, y: np.ndarray,
                        cfg: TreeEnsembleConfig, feature_names,
                        sample_weight=None) -> TreeEnsemble:
    """Boost cfg.n_trees rounds on (X, y), one tree per round.  y holds
    class indices (binary: 0/1).  Deterministic given cfg.seed: the
    per-round row subsample is the only random element.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ModelError("empty training table")
    if X.shape[0] != y.shape[0]:
        raise ModelError("X and y row counts differ")
    if len(feature_names) != X.shape[1]:
        raise ModelError("feature name count does not match X")
    classes = np.unique(y)
    if classes.size < 2:
        raise ModelError("training target has a single class")
    w = (np.ones(X.shape[0]) if sample_weight is None
         else np.asarray(sample_weight, dtype=np.float64))

    n = X.shape[0]
    if cfg.objective == "binary":
        if not np.array_equal(classes, [0, 1]):
            raise ModelError("binary objective expects 0/1 targets")
        target = y.astype(np.float64)[:, None]
        p0 = float(np.clip((w * target[:, 0]).sum() / w.sum(), 1e-6,
                           1 - 1e-6))
        base = np.array([math.log(p0 / (1.0 - p0))])
        link = _sigmoid
    else:
        k = int(classes.size)
        if not np.array_equal(classes, np.arange(k)):
            raise ModelError("multiclass targets must be 0..K-1")
        target = np.zeros((n, k))
        target[np.arange(n), y.astype(int)] = 1.0
        prior = np.clip(target.mean(axis=0), 1e-6, None)
        base = np.log(prior / prior.sum())
        link = _softmax

    binner = _Binner(X, cfg.max_bins)
    rng = np.random.default_rng(cfg.seed)
    margin = np.tile(base, (n, 1))
    trees: list = []
    for _ in range(cfg.n_trees):
        p = link(margin)
        rows = _subsample_rows(rng, n, cfg.subsample)
        tree, step = _grow_tree(binner, rows, w[:, None] * (p - target),
                                w[:, None] * p * (1.0 - p), cfg)
        trees.append(tree)
        margin += step

    return TreeEnsemble(cfg, list(feature_names), len(base), base, trees)


def _subsample_rows(rng, n: int, fraction: float) -> np.ndarray:
    if fraction >= 1.0:
        return np.arange(n, dtype=np.int32)
    mask = rng.random(n) < fraction
    if not mask.any():
        return np.arange(n, dtype=np.int32)
    return np.nonzero(mask)[0].astype(np.int32)


def predict_margin(ens: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """Raw additive scores: (n,) for binary, (n, K) for multiclass."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(ens.feature_names):
        raise ModelError(
            f"expected {len(ens.feature_names)} feature columns, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-2d'}")
    m = np.tile(ens.base_score, (X.shape[0], 1))
    for tree in ens.trees:
        m += _tree_predict(tree, X)
    return m[:, 0] if ens.n_classes == 1 else m


def predict_proba(ens: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    m = predict_margin(ens, X)
    return _sigmoid(m) if ens.n_classes == 1 else _softmax(m)


# -- the stacked gated ensemble ----------------------------------------------


class Role(NamedTuple):
    """The EnsembleModel field `name`, fitted under `objective` to the
    feature table's `label_<what>`; a head's classes are `<what>_classes`."""
    name: str
    what: str
    objective: str


# The detector labels every row; each head after it labels only the positive
# rows, and is consulted only where the detector fires.
DETECTOR, *HEADS = ROLES = (Role("detector", "incident", "binary"),
                            Role("localizer", "road", "multiclass"),
                            Role("severity", "severity", "binary"))


@dataclass
class EnsembleModel:
    detector: TreeEnsemble
    localizer: TreeEnsemble | None
    severity: TreeEnsemble | None
    road_classes: list
    severity_classes: list
    threshold: float
    feature_names: list

    @property
    def schema_hash(self) -> str:
        return _schema_hash(self.feature_names)


def _fit_head(X_pos, labels, cfg: TreeEnsembleConfig, feature_names,
              what: str):
    """(sorted classes, ensemble) of a head fitted on the positive rows; a
    single class gives a constant head, whose ensemble is None."""
    if any(v is None for v in labels):
        raise ModelError(f"positive rows must carry a {what} label")
    classes = sorted(set(labels))
    if len(classes) == 1:
        return classes, None
    if cfg.objective == "binary" and len(classes) != 2:
        raise ModelError(f"{what} is a binary classification")
    enc = {c: i for i, c in enumerate(classes)}
    y = np.asarray([enc[v] for v in labels])
    return classes, train_tree_ensemble(X_pos, y, cfg, feature_names)


def _head_labels(ens: TreeEnsemble | None, classes, X) -> list:
    """The class a head gives each row of X: the most probable of several,
    the second of two when its probability reaches 0.5, or the one."""
    if ens is None:
        return [classes[0]] * X.shape[0]
    p = predict_proba(ens, X)
    picks = np.argmax(p, axis=1) if ens.n_classes > 1 else p >= 0.5
    return [classes[int(k)] for k in picks]


def train_incident_ensemble(table, cfg: TreeEnsembleConfig,
                            threshold: float = 0.5) -> EnsembleModel:
    """Detector on every row (positive class reweighted to balance), then
    each head on the positive rows only, as _fit_head fits it."""
    y = table.label_incident.astype(int)
    n_pos = int(y.sum())
    n_neg = int(len(y) - n_pos)
    if n_pos == 0:
        raise ModelError("no positive incident rows to train on")
    if n_neg == 0:
        raise ModelError("no negative rows to train on")
    X = table.X
    weight = np.where(y == 1, n_neg / n_pos, 1.0)
    detector = train_tree_ensemble(
        X, y, replace(cfg, objective=DETECTOR.objective),
        table.feature_names, sample_weight=weight)
    pos = np.flatnonzero(y == 1)
    (road_classes, localizer), (severity_classes, severity) = (
        _fit_head(X[pos], [getattr(table, f"label_{h.what}")[i] for i in pos],
                  replace(cfg, objective=h.objective), table.feature_names,
                  h.what)
        for h in HEADS)
    return EnsembleModel(detector, localizer, severity, road_classes,
                         severity_classes, threshold, list(table.feature_names))


class Predictions(NamedTuple):
    """Gated predictions as per-window columns: road and severity are the
    heads' labels where the detector fired (detected), None elsewhere."""
    window_end: np.ndarray  # int64
    score: np.ndarray       # detector probability
    detected: np.ndarray    # bool, score >= threshold
    road: np.ndarray        # object
    severity: np.ndarray    # object


def infer_batch(model: EnsembleModel, X: np.ndarray,
                window_end) -> Predictions:
    """Gated predictions, one per row of X at its window_end: each head
    labels only the rows the detector flags."""
    X = np.asarray(X, dtype=np.float64)
    score = predict_proba(model.detector, X)
    detected = score >= model.threshold
    hit = np.flatnonzero(detected)
    heads = []
    for h in HEADS:
        col = np.full(X.shape[0], None, dtype=object)
        col[hit] = _head_labels(getattr(model, h.name),
                                getattr(model, f"{h.what}_classes"), X[hit])
        heads.append(col)
    return Predictions(np.asarray(window_end).astype(np.int64), score,
                       detected, *heads)


MODEL_FORMAT = "trafficlab-model/3"


def _tree_fault(tree: _Tree, n_features: int, n_classes: int) -> str:
    """Why a stored tree cannot be walked, or "" when it can: the node
    arrays share one length, every node holds n_classes scores, a leaf has
    feature -1, and an internal node splits on a real feature and has both
    children after it, so every walk ends at a leaf."""
    n = len(tree.value)
    if tree.value.shape != (n, n_classes) or n == 0:
        return (f"value has shape {tree.value.shape}, expected "
                f"(nodes, {n_classes})")
    for name in ("feature", "threshold", "missing_left", "left", "right"):
        if getattr(tree, name).shape != (n,):
            return (f"{name} has shape {getattr(tree, name).shape}, "
                    f"expected ({n},) like value")
    node = np.arange(n)
    inner = tree.feature != -1
    bad = inner & ((tree.feature < 0) | (tree.feature >= n_features)
                   | (tree.left <= node) | (tree.left >= n)
                   | (tree.right <= node) | (tree.right >= n))
    if bad.any():
        i = int(np.argmax(bad))
        return (f"node {i} splits on feature {tree.feature[i]} into "
                f"{tree.left[i]} and {tree.right[i]}; needs a feature in "
                f"[0, {n_features}) and children in ({i}, {n})")
    return ""


def _ens_from_jsonable(d, role: Role, config: TreeEnsembleConfig,
                       feature_names: list, classes) -> TreeEnsemble | None:
    """The stored sub-model of role, checked against its class list (None
    for the detector, which is always trained): a list of strings, as the
    feature table's labels are, where no class repeats, a null (constant)
    head lists one class, a trained binary head two and a trained
    multiclass head at least two.  Its trees must be ones _tree_predict
    can walk.  Faults are prefixed with the role's name."""
    try:
        if classes is not None:
            key = f"{role.what}_classes"
            if not (isinstance(classes, list)
                    and all(isinstance(c, str) for c in classes)):
                raise ModelError(f"{key} is {json.dumps(classes)}, expected "
                                 f"a list of strings")
            n = len(classes)
            if len(set(classes)) != n:
                raise ModelError(f"{key} {classes} repeat a class")
            want = (1 if d is None else 2 if role.objective == "binary"
                    else max(n, 2))
            if n != want:
                raise ModelError(f"{key} has length {n}, expected {want} "
                                 f"for a {'null' if d is None else 'trained'}"
                                 " head")
        if d is None:
            if classes is None:
                raise ModelError("null, but the detector is always trained")
            return None
        k = 1 if role.objective == "binary" else len(classes)
        ens = TreeEnsemble(replace(config, objective=role.objective),
                           feature_names, k,
                           np.asarray(d["base_score"], dtype=np.float64), [])
        if ens.base_score.shape != (k,):
            raise ModelError(f"base_score has shape {ens.base_score.shape}, "
                             f"expected ({k},)")
        bad = [x for x in d["base_score"] if not _is_finite(x)]
        if bad:
            raise ModelError(f"base_score holds {json.dumps(bad[0])}, "
                             f"expected a list of finite numbers")
        for i, t in enumerate(d["trees"]):
            try:
                tree = _Tree.from_jsonable(t)
                fault = _tree_fault(tree, len(feature_names), k)
                if fault:
                    raise ModelError(fault)
            except ModelError as exc:
                raise ModelError(f"tree {i}: {exc}") from None
            ens.trees.append(tree)
    except ModelError as exc:
        raise ModelError(f"{role.name}: {exc}") from None
    return ens


def save_model(model: EnsembleModel, path) -> None:
    """The schema, class lists and training config (the detector's, less
    objective) once, then each sub-model's base score and trees, or null.
    A head fitted under other settings than the detector's is refused, as
    the file could not give them back."""
    cfg = model.detector.config
    config = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__
              if f != "objective"}
    doc = {"format": MODEL_FORMAT,
           "threshold": model.threshold,
           "feature_names": model.feature_names,
           "schema_hash": model.schema_hash,
           "road_classes": model.road_classes,
           "severity_classes": model.severity_classes,
           "config": config}
    for role in ROLES:
        ens = getattr(model, role.name)
        differ = [] if ens is None else [
            f for f in config if getattr(ens.config, f) != config[f]]
        if differ:
            raise ModelError(f"{role.name} was fitted with other settings "
                             f"than the detector: {', '.join(differ)}")
        doc[role.name] = None if ens is None else {
            "base_score": ens.base_score.tolist(),
            "trees": [t.to_jsonable() for t in ens.trees]}
    # json.dumps runs the C encoder; json.dump streams through the pure-
    # Python one, about 3x slower for the same text
    write_lines(path, [json.dumps(doc)])


def load_model(path) -> EnsembleModel:
    with open_text(path, ModelError) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelError(f"{path}: not a {MODEL_FORMAT} file")
    try:
        names = list(doc["feature_names"])
        if doc["schema_hash"] != _schema_hash(names):
            raise ModelError("schema_hash does not match feature_names")
        config = TreeEnsembleConfig(**doc["config"])
        # ** took a mapping; save_model writes no objective
        if "objective" in doc["config"]:
            raise ModelError("config.objective is not a setting of "
                             "model.json; each sub-model takes its role's "
                             "objective")
        classes = {h.what: doc[f"{h.what}_classes"] for h in HEADS}
        subs = [_ens_from_jsonable(doc[r.name], r, config, names,
                                   classes.get(r.what)) for r in ROLES]
        threshold = float(doc["threshold"])
        if not 0.0 < threshold < 1.0:  # NaN included
            raise ModelError(f"threshold {threshold!r} does not lie in (0, 1)")
        return EnsembleModel(*subs, classes["road"], classes["severity"],
                             threshold, names)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ModelError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{path}: malformed model: {exc}") from exc
