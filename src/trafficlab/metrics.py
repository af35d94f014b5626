"""Detection quality metrics.

Window-level: confusion counts over feature-table rows, detection rate
(recall on incident windows), false alarm rate (positives among quiet
windows), precision, F1, and a rank-based AUC-ROC that gives tied scores
half credit.  Event-level: per-incident detection outcomes and mean time to
detect, measured from incident onset to the end of the first flagged
window inside the incident's span plus a grace period.

Rates with an empty denominator are reported as None (written out as
"undefined"), never silently as zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import read_key_values


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_from_rows(truth, predicted) -> ConfusionCounts:
    t = np.asarray(truth, dtype=bool)
    p = np.asarray(predicted, dtype=bool)
    if t.shape != p.shape:
        raise MetricsError("truth and prediction lengths differ")
    return ConfusionCounts(tp=int(np.sum(t & p)),
                           fp=int(np.sum(~t & p)),
                           tn=int(np.sum(~t & ~p)),
                           fn=int(np.sum(t & ~p)))


def _ratio(num: int, den: int):
    return None if den == 0 else num / den


def detection_rate(c: ConfusionCounts):
    """Fraction of incident windows flagged (recall)."""
    return _ratio(c.tp, c.tp + c.fn)


def false_alarm_rate(c: ConfusionCounts):
    """Fraction of quiet windows flagged; specificity is its complement."""
    return _ratio(c.fp, c.fp + c.tn)


def precision(c: ConfusionCounts):
    return _ratio(c.tp, c.tp + c.fp)


def f1_score(c: ConfusionCounts):
    p = precision(c)
    r = detection_rate(c)
    if p is None or r is None or p + r == 0:
        return None
    return 2.0 * p * r / (p + r)


def auc_roc(truth, scores):
    """Probability a random incident window outscores a random quiet one,
    ties counting half.  Computed from midranks; None if only one class is
    present."""
    t = np.asarray(truth, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape:
        raise MetricsError("truth and score lengths differ")
    n_pos = int(t.sum())
    n_neg = int(t.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(s, kind="stable")
    ranks = np.empty(t.size, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < t.size:
        j = i
        while j + 1 < t.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = float(ranks[t].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EventOutcome:
    incident_id: int
    onset: int
    detected: bool
    first_alert: int | None   # window end of the first in-span flag
    delay: float | None       # first_alert - onset, seconds

    def __post_init__(self):
        if self.detected and (self.first_alert is None or self.delay is None):
            raise MetricsError("detected events need an alert time")


def event_detections(predictions, incident_log, grace_s: float) -> list:
    """Judge each incident independently: it counts as detected if any
    flagged window ends inside (onset, end + grace_s]."""
    if grace_s < 0:
        raise MetricsError("grace period must be non-negative")
    flagged = sorted(p.window_end for p in predictions if p.detected)
    flagged_a = np.asarray(flagged, dtype=np.float64)
    out = []
    for spec in incident_log:
        lo = np.searchsorted(flagged_a, spec.onset, side="right")
        if lo < flagged_a.size and flagged_a[lo] <= spec.end + grace_s:
            we = int(flagged_a[lo])
            out.append(EventOutcome(spec.id, spec.onset, True, we,
                                    float(we - spec.onset)))
        else:
            out.append(EventOutcome(spec.id, spec.onset, False, None, None))
    return out


def mean_time_to_detect(outcomes):
    delays = [o.delay for o in outcomes if o.detected]
    if not delays:
        return None
    return float(np.mean(delays))


@dataclass
class EvalReport:
    counts: ConfusionCounts
    detection_rate: float | None
    false_alarm_rate: float | None
    precision: float | None
    f1: float | None
    auc: float | None
    road_accuracy: float | None       # over true-positive windows
    severity_accuracy: float | None   # over true-positive windows
    n_events: int = 0
    events_detected: int = 0
    event_detection_rate: float | None = None
    mttd_s: float | None = None

    def as_dict(self) -> dict:
        return {"windows": self.counts.total,
                "tp": self.counts.tp, "fp": self.counts.fp,
                "tn": self.counts.tn, "fn": self.counts.fn,
                "detection_rate": self.detection_rate,
                "false_alarm_rate": self.false_alarm_rate,
                "precision": self.precision,
                "f1": self.f1,
                "auc": self.auc,
                "road_accuracy": self.road_accuracy,
                "severity_accuracy": self.severity_accuracy,
                "n_events": self.n_events,
                "events_detected": self.events_detected,
                "event_detection_rate": self.event_detection_rate,
                "mttd_s": self.mttd_s}


def evaluate_predictions(table, predictions, incident_log=None,
                         grace_s: float = 0.0) -> EvalReport:
    """Score gated predictions against a labeled feature table; optionally
    add event-level outcomes computed from the incident log."""
    if len(predictions) != table.n_rows:
        raise MetricsError("one prediction per table row required")
    truth = table.label_incident
    pred = np.asarray([p.detected for p in predictions], dtype=bool)
    scores = np.asarray([p.score for p in predictions], dtype=np.float64)
    cc = confusion_from_rows(truth, pred)

    tp_rows = np.nonzero(truth & pred)[0]
    road_acc = None
    sev_acc = None
    if tp_rows.size:
        road_hits = [predictions[i].road_label == table.label_road[i]
                     for i in tp_rows]
        sev_hits = [predictions[i].severity == table.label_severity[i]
                    for i in tp_rows]
        road_acc = float(np.mean(road_hits))
        sev_acc = float(np.mean(sev_hits))

    rep = EvalReport(cc, detection_rate(cc), false_alarm_rate(cc),
                     precision(cc), f1_score(cc), auc_roc(truth, scores),
                     road_acc, sev_acc)
    if incident_log is not None:
        outcomes = event_detections(predictions, incident_log, grace_s)
        rep.n_events = len(outcomes)
        rep.events_detected = sum(o.detected for o in outcomes)
        rep.event_detection_rate = _ratio(rep.events_detected, rep.n_events)
        rep.mttd_s = mean_time_to_detect(outcomes)
    return rep


def format_metric(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in report.as_dict().items():
            fh.write(f"{key}={format_metric(val)}\n")


def read_report(path) -> dict:
    """The key=value lines of a report, numbers as int or float and
    "undefined" as None; a bad line raises MetricsError naming path:line."""
    return read_key_values(path, MetricsError, _report_value)


def _report_value(key: str, text: str):
    if text == "undefined":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    raise ValueError(f"{key} is not a number: {text!r}")


# the keys of EvalReport.as_dict, in order
REPORT_CSV_FIELDS = tuple(EvalReport(ConfusionCounts(0, 0, 0, 0),
                                     *[None] * 7).as_dict())


def report_csv_header(prefix_fields=()) -> str:
    return ",".join(tuple(prefix_fields) + REPORT_CSV_FIELDS)


def report_csv_row(report: EvalReport, prefix_values=()) -> str:
    """One-row summary for sweep aggregation; undefined rates stay as
    empty fields rather than zeros."""
    d = report.as_dict()
    cells = [str(v) for v in prefix_values]
    for f in REPORT_CSV_FIELDS:
        v = d[f]
        cells.append("" if v is None else format_metric(v))
    return ",".join(cells)
