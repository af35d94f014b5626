"""Gradient-boosted decision trees and the gated incident ensemble.

The learner is histogram-based second-order boosting: features are binned
once (exact unique-value bins while they fit, quantile bins beyond), each
node accumulates gradient/hessian/count histograms (a hot kernel), and the
best split maximizes the standard regularized gain with both missing-value
routings tried at every cut.  Missing values (NaN) get a learned default
direction per split, which is how sparse travel-time columns stay usable
without imputation.

The incident ensemble stacks three of these: a binary detector over all
rows, and a road localizer and severity classifier trained on positive rows
only, consulted only when the detector fires.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels


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


@dataclass
class _Tree:
    feature: np.ndarray   # int32; -1 marks a leaf
    threshold: np.ndarray
    missing_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray     # leaf scores, learning rate already applied

    def to_jsonable(self) -> dict:
        return {"feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "missing_left": self.missing_left.astype(int).tolist(),
                "left": self.left.tolist(),
                "right": self.right.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_jsonable(cls, d: dict) -> "_Tree":
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
    trees: list              # round-major; multiclass holds K trees per round
    schema_hash: str = ""

    def __post_init__(self):
        if not self.schema_hash:
            self.schema_hash = _schema_hash(self.feature_names)


class _Binner:
    """Per-feature discretization: code 0 is missing, codes 1..K ascend in
    value; cut j is the split threshold between codes j and j+1 (exact
    midpoints when unique values fit in the bin budget)."""

    def __init__(self, X: np.ndarray, max_bins: int):
        self.cuts: list = []
        n_levels = max_bins - 1  # code 0 reserved for missing
        self.codes = np.zeros(X.shape, dtype=np.uint8)
        for f in range(X.shape[1]):
            col = X[:, f]
            finite = col[~np.isnan(col)]
            if finite.size == 0:
                self.cuts.append(np.empty(0))
                continue
            uniq = np.unique(finite)
            if uniq.size <= n_levels:
                levels = uniq
                cuts = (levels[:-1] + levels[1:]) / 2.0
            else:
                qs = np.quantile(finite,
                                 np.linspace(0.0, 1.0, n_levels + 1))
                cuts = np.unique(qs[1:-1])
                levels = None
            self.cuts.append(cuts)
            mask = ~np.isnan(col)
            # side="left" keeps x == cut in the left group, matching the
            # x <= threshold routing used at prediction time
            self.codes[mask, f] = (
                np.searchsorted(cuts, col[mask], side="left") + 1
            ).astype(np.uint8)

        self.n_cuts = np.array([len(c) for c in self.cuts], dtype=np.intp)
        self.max_cuts = int(self.n_cuts.max(initial=0))
        # (feature, 1, cut): cuts past a feature's own count, which split
        # search pads to max_cuts
        self.padding = (np.arange(self.max_cuts)
                        >= self.n_cuts[:, None])[:, None, :]


def _leaf_value(g: float, h: float, cfg: TreeEnsembleConfig) -> float:
    return -cfg.learning_rate * g / (h + cfg.reg_lambda)


def _best_split(hist_g, hist_h, hist_n, binner: _Binner,
                cfg: TreeEnsembleConfig):
    """(gain, feature, cut_index, missing_left) of the best candidate, or
    None.  All candidates are scored in one (feature, missing side, cut)
    array and the first strict maximum in that order wins: exact ties go to
    the lower feature, then to missing-right before missing-left, then to
    the lower cut.  A (feature, missing side) row holding a NaN gain is
    skipped whole.
    """
    width = binner.max_cuts
    if width == 0:
        return None
    lam = cfg.reg_lambda
    msl = cfg.min_samples_leaf
    n_feat = len(binner.cuts)
    hists = (hist_g, hist_h, hist_n)
    # value codes run 1..k+1; cut j splits code <= j+1 from above.  Prefix
    # sums run bin by bin, so a feature's sums over its own bins do not
    # depend on the padding behind them.
    left = np.empty((3, n_feat, width + 1))
    for k, hist in enumerate(hists):
        np.cumsum(hist[:, 1:width + 2], axis=1, out=left[k])
    miss = np.stack([hist[:, 0] for hist in hists])
    total = left[:, np.arange(n_feat), binner.n_cuts] + miss
    # sums[side of the cut, g/h/n, feature, missing side, cut]; missing
    # side 0 sends missing values right, side 1 sends them left
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
    masked |= binner.padding
    np.putmask(gains, masked, -np.inf)
    i = int(np.argmax(gains))
    if np.isnan(gains.flat[i]):  # argmax stops at the first NaN
        gains[np.isnan(gains).any(axis=2)] = -np.inf
        i = int(np.argmax(gains))
    best = float(gains.flat[i])
    if not best > 0.0:
        return None
    f, side, j = np.unravel_index(i, gains.shape)
    return (best, int(f), int(j), bool(side))


def _grow_tree(codes, rows, grad, hess, binner: _Binner,
               cfg: TreeEnsembleConfig) -> _Tree:
    feature: list = []
    threshold: list = []
    missing_left: list = []
    left: list = []
    right: list = []
    value: list = []
    max_bins_all = binner.max_cuts + 2  # missing + value bins, widest
    n_feat = codes.shape[1]

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        missing_left.append(False)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(rows_node: np.ndarray, depth: int, node: int):
        g_sum = float(grad[rows_node].sum())
        h_sum = float(hess[rows_node].sum())
        if depth >= cfg.max_depth \
                or rows_node.size < 2 * cfg.min_samples_leaf:
            value[node] = _leaf_value(g_sum, h_sum, cfg)
            return
        hg = np.zeros((n_feat, max_bins_all))
        hh = np.zeros((n_feat, max_bins_all))
        hn = np.zeros((n_feat, max_bins_all))
        kernels.hist_build(codes, rows_node, grad, hess, hg, hh, hn)
        found = _best_split(hg, hh, hn, binner, cfg)
        if found is None:
            value[node] = _leaf_value(g_sum, h_sum, cfg)
            return
        _gain, f, j, miss_left = found
        feature[node] = f
        threshold[node] = float(binner.cuts[f][j])
        missing_left[node] = miss_left
        code_col = codes[rows_node, f]
        go_left = (code_col >= 1) & (code_col <= j + 1)
        if miss_left:
            go_left |= code_col == 0
        rows_l = rows_node[go_left]
        rows_r = rows_node[~go_left]
        nl = new_node()
        nr = new_node()
        left[node] = nl
        right[node] = nr
        build(rows_l, depth + 1, nl)
        build(rows_r, depth + 1, nr)

    root = new_node()
    build(rows, 0, root)
    return _Tree(np.asarray(feature, dtype=np.int32),
                 np.asarray(threshold),
                 np.asarray(missing_left, dtype=bool),
                 np.asarray(left, dtype=np.int32),
                 np.asarray(right, dtype=np.int32),
                 np.asarray(value))


def _tree_predict(tree: _Tree, X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    out = np.zeros(n)
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


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_tree_ensemble(X: np.ndarray, y: np.ndarray,
                        cfg: TreeEnsembleConfig, feature_names,
                        sample_weight=None) -> TreeEnsemble:
    """Boost cfg.n_trees rounds on (X, y); multiclass grows one tree per
    class per round.  y holds class indices (binary: 0/1).  Deterministic
    given cfg.seed: the per-round row subsample is the only random element.
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

    binner = _Binner(X, cfg.max_bins)
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    trees: list = []

    if cfg.objective == "binary":
        if not np.array_equal(classes, [0, 1]):
            raise ModelError("binary objective expects 0/1 targets")
        yf = y.astype(np.float64)
        p0 = float(np.clip((w * yf).sum() / w.sum(), 1e-6, 1 - 1e-6))
        base = np.array([math.log(p0 / (1.0 - p0))])
        margin = np.full(n, base[0])
        for _ in range(cfg.n_trees):
            p = _sigmoid(margin)
            grad = w * (p - yf)
            hess = w * p * (1.0 - p)
            rows = _subsample_rows(rng, n, cfg.subsample)
            tree = _grow_tree(binner.codes, rows, grad, hess, binner, cfg)
            trees.append(tree)
            margin += _tree_predict(tree, X)
        n_classes = 1
    else:
        k = int(classes.size)
        if not np.array_equal(classes, np.arange(k)):
            raise ModelError("multiclass targets must be 0..K-1")
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y.astype(int)] = 1.0
        prior = np.clip(onehot.mean(axis=0), 1e-6, None)
        base = np.log(prior / prior.sum())
        margin = np.tile(base, (n, 1))
        for _ in range(cfg.n_trees):
            p = _softmax(margin)
            rows = _subsample_rows(rng, n, cfg.subsample)
            for c in range(k):
                grad = w * (p[:, c] - onehot[:, c])
                hess = w * p[:, c] * (1.0 - p[:, c])
                tree = _grow_tree(binner.codes, rows, grad, hess, binner,
                                  cfg)
                trees.append(tree)
                margin[:, c] += _tree_predict(tree, X)
        n_classes = k

    return TreeEnsemble(cfg, list(feature_names), n_classes, base, trees)


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
    if ens.n_classes == 1:
        out = np.full(X.shape[0], ens.base_score[0])
        for tree in ens.trees:
            out += _tree_predict(tree, X)
        return out
    out = np.tile(ens.base_score, (X.shape[0], 1))
    for i, tree in enumerate(ens.trees):
        out[:, i % ens.n_classes] += _tree_predict(tree, X)
    return out


def predict_proba(ens: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    m = predict_margin(ens, X)
    return _sigmoid(m) if ens.n_classes == 1 else _softmax(m)


def training_logloss(ens: TreeEnsemble, X, y, n_trees=None,
                     sample_weight=None) -> float:
    """Weighted mean logistic/softmax loss using the first n_trees trees
    (rounds for multiclass); the boosting-monotonicity checks use this."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    w = (np.ones(X.shape[0]) if sample_weight is None
         else np.asarray(sample_weight, dtype=np.float64))
    if ens.n_classes == 1:
        use = len(ens.trees) if n_trees is None else n_trees
        m = np.full(X.shape[0], ens.base_score[0])
        for tree in ens.trees[:use]:
            m += _tree_predict(tree, X)
        p = np.clip(_sigmoid(m), 1e-12, 1 - 1e-12)
        yf = y.astype(np.float64)
        ll = -(yf * np.log(p) + (1 - yf) * np.log(1 - p))
    else:
        k = ens.n_classes
        rounds = len(ens.trees) // k if n_trees is None else n_trees
        m = np.tile(ens.base_score, (X.shape[0], 1))
        for i, tree in enumerate(ens.trees[:rounds * k]):
            m[:, i % k] += _tree_predict(tree, X)
        p = np.clip(_softmax(m), 1e-12, None)
        ll = -np.log(p[np.arange(X.shape[0]), y.astype(int)])
    return float((w * ll).sum() / w.sum())


# -- the stacked gated ensemble ----------------------------------------------


@dataclass(frozen=True)
class IncidentPrediction:
    window_end: int
    detected: bool
    score: float
    road_label: str | None
    severity: str | None

    def __post_init__(self):
        populated = self.road_label is not None or self.severity is not None
        if populated != self.detected or (
                self.detected and (self.road_label is None
                                   or self.severity is None)):
            raise ModelError("gating violated: sub-predictions must be "
                             "populated iff detected")


@dataclass
class EnsembleModel:
    detector: TreeEnsemble
    localizer: TreeEnsemble | None
    severity: TreeEnsemble | None
    road_classes: list
    severity_classes: list
    threshold: float
    feature_names: list
    schema_hash: str = ""

    def __post_init__(self):
        if not self.schema_hash:
            self.schema_hash = _schema_hash(self.feature_names)


def train_incident_ensemble(table, cfg: TreeEnsembleConfig,
                            threshold: float = 0.5) -> EnsembleModel:
    """Detector on every row (positive class reweighted to balance);
    localizer and severity on the positive rows only.  A sub-model whose
    positive rows carry a single class is recorded as a degenerate constant
    predictor rather than a trained ensemble.
    """
    y = table.label_incident.astype(int)
    n_pos = int(y.sum())
    n_neg = int(len(y) - n_pos)
    if n_pos == 0:
        raise ModelError("no positive incident rows to train on")
    if n_neg == 0:
        raise ModelError("no negative rows to train on")
    X = table.X
    weight = np.where(y == 1, n_neg / n_pos, 1.0)
    det_cfg = _with(cfg, objective="binary")
    detector = train_tree_ensemble(X, y, det_cfg, table.feature_names,
                                   sample_weight=weight)

    pos = np.nonzero(y == 1)[0]
    roads = [table.label_road[i] for i in pos]
    if any(r is None for r in roads):
        raise ModelError("positive rows must carry a road label")
    road_classes = sorted(set(roads))
    localizer = None
    if len(road_classes) > 1:
        enc = {c: i for i, c in enumerate(road_classes)}
        y_road = np.asarray([enc[r] for r in roads])
        loc_cfg = _with(cfg, objective="multiclass")
        localizer = train_tree_ensemble(X[pos], y_road, loc_cfg,
                                        table.feature_names)

    sevs = [table.label_severity[i] for i in pos]
    if any(s is None for s in sevs):
        raise ModelError("positive rows must carry a severity label")
    severity_classes = sorted(set(sevs))
    severity = None
    if len(severity_classes) > 1:
        if len(severity_classes) != 2:
            raise ModelError("severity is a binary classification")
        y_sev = np.asarray([severity_classes.index(s) for s in sevs])
        sev_cfg = _with(cfg, objective="binary")
        severity = train_tree_ensemble(X[pos], y_sev, sev_cfg,
                                       table.feature_names)

    return EnsembleModel(detector, localizer, severity, road_classes,
                         severity_classes, threshold, list(table.feature_names))


def _with(cfg: TreeEnsembleConfig, **kw) -> TreeEnsembleConfig:
    d = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    d.update(kw)
    return TreeEnsembleConfig(**d)


def infer_batch(model: EnsembleModel, X: np.ndarray, window_end=None) -> list:
    """Gated predictions: localization and severity are produced only for
    rows the detector flags."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if window_end is None:
        window_end = np.arange(n)
    scores = predict_proba(model.detector, X)
    detected = scores >= model.threshold
    roads: list = [None] * n
    sevs: list = [None] * n
    hit = np.nonzero(detected)[0]
    if hit.size:
        if model.localizer is not None:
            p = predict_proba(model.localizer, X[hit])
            picks = np.argmax(p, axis=1)
            for j, i in enumerate(hit):
                roads[i] = model.road_classes[int(picks[j])]
        else:
            for i in hit:
                roads[i] = model.road_classes[0]
        if model.severity is not None:
            p = predict_proba(model.severity, X[hit])
            for j, i in enumerate(hit):
                sevs[i] = model.severity_classes[int(p[j] >= 0.5)]
        else:
            for i in hit:
                sevs[i] = model.severity_classes[0]
    return [IncidentPrediction(int(window_end[i]), bool(detected[i]),
                               float(scores[i]), roads[i], sevs[i])
            for i in range(n)]


def infer(model: EnsembleModel, row: np.ndarray,
          window_end: int = 0) -> IncidentPrediction:
    return infer_batch(model, np.asarray(row, dtype=np.float64)[None, :],
                       [window_end])[0]


MODEL_FORMAT = "trafficlab-model/1"


def _ens_to_jsonable(ens: TreeEnsemble | None):
    if ens is None:
        return None
    return {"config": {f: getattr(ens.config, f)
                       for f in ens.config.__dataclass_fields__},
            "feature_names": ens.feature_names,
            "n_classes": ens.n_classes,
            "base_score": ens.base_score.tolist(),
            "schema_hash": ens.schema_hash,
            "trees": [t.to_jsonable() for t in ens.trees]}


def _checked_hash(d: dict) -> str:
    """The stored schema hash, which must match the stored feature names."""
    if d["schema_hash"] != _schema_hash(d["feature_names"]):
        raise ModelError("schema_hash does not match feature_names")
    return d["schema_hash"]


def _ens_from_jsonable(d) -> TreeEnsemble | None:
    if d is None:
        return None
    return TreeEnsemble(TreeEnsembleConfig(**d["config"]),
                        list(d["feature_names"]), int(d["n_classes"]),
                        np.asarray(d["base_score"], dtype=np.float64),
                        [_Tree.from_jsonable(t) for t in d["trees"]],
                        _checked_hash(d))


def save_model(model: EnsembleModel, path) -> None:
    doc = {"format": MODEL_FORMAT,
           "threshold": model.threshold,
           "feature_names": model.feature_names,
           "schema_hash": model.schema_hash,
           "road_classes": model.road_classes,
           "severity_classes": model.severity_classes,
           "detector": _ens_to_jsonable(model.detector),
           "localizer": _ens_to_jsonable(model.localizer),
           "severity": _ens_to_jsonable(model.severity)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> EnsembleModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelError(f"{path}: not a {MODEL_FORMAT} file")
    try:
        return EnsembleModel(_ens_from_jsonable(doc["detector"]),
                             _ens_from_jsonable(doc["localizer"]),
                             _ens_from_jsonable(doc["severity"]),
                             list(doc["road_classes"]),
                             list(doc["severity_classes"]),
                             float(doc["threshold"]),
                             list(doc["feature_names"]),
                             _checked_hash(doc))
    except KeyError as exc:
        raise ModelError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed model: {exc}") from exc
