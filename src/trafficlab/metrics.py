"""Detection quality metrics.

Window-level: confusion counts over feature-table rows, detection rate
(recall on incident windows), false alarm rate (positives among quiet
windows), precision, F1, and a rank-based AUC-ROC that gives tied scores
half credit.  Event-level: per-incident detection outcomes and mean time to
detect, measured from incident onset to the end of the first flagged
window inside the incident's span plus a grace period.

Both read the columns of `models.Predictions`.  `EvalReport` is one flat
record whose fields, in order, are the keys of report.txt and the columns
of the sweep summary.  Rates with an empty denominator are reported as None
(written out as "undefined"), never silently as zero.
"""
from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import read_csv, read_key_values, write_lines


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
    _, block, ties = np.unique(s, return_inverse=True, return_counts=True,
                               equal_nan=False)
    # a block of k ties from sorted position i has 1-based midrank
    # i + (k - 1) / 2 + 1
    midranks = np.cumsum(ties) - ties + 0.5 * (ties - 1) + 1.0
    rank_sum = float(midranks[block][t].sum())
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
    flagged_a = np.sort(
        predictions.window_end[predictions.detected]).astype(np.float64)
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
    windows: int
    tp: int
    fp: int
    tn: int
    fn: int
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
        return asdict(self)


def evaluate_predictions(table, predictions, incident_log=None,
                         grace_s: float = 0.0) -> EvalReport:
    """Score gated predictions against a labeled feature table; optionally
    add event-level outcomes computed from the incident log."""
    if predictions.detected.shape != (table.n_rows,):
        raise MetricsError("one prediction per table row required")
    truth = table.label_incident
    cc = confusion_from_rows(truth, predictions.detected)

    tp_rows = np.flatnonzero(truth & predictions.detected)
    road_acc = None
    sev_acc = None
    if tp_rows.size:
        road_acc = float(np.mean(predictions.road[tp_rows] == np.asarray(
            table.label_road, dtype=object)[tp_rows]))
        sev_acc = float(np.mean(predictions.severity[tp_rows] == np.asarray(
            table.label_severity, dtype=object)[tp_rows]))

    rep = EvalReport(cc.total, cc.tp, cc.fp, cc.tn, cc.fn, detection_rate(cc),
                     false_alarm_rate(cc), precision(cc), f1_score(cc),
                     auc_roc(truth, predictions.score), road_acc, sev_acc)
    if incident_log is not None:
        # an incident log covers one day; a table of several days repeats
        # each window end, and would credit an event with another day's flag
        if np.any(np.diff(table.window_end) <= 0):
            raise MetricsError("event metrics need a one-day table, whose "
                               "window ends increase strictly")
        outcomes = event_detections(predictions, incident_log, grace_s)
        rep.n_events = len(outcomes)
        rep.events_detected = sum(o.detected for o in outcomes)
        rep.event_detection_rate = _ratio(rep.events_detected, rep.n_events)
        rep.mttd_s = mean_time_to_detect(outcomes)
    return rep


def format_metric(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_report(report: EvalReport, path) -> None:
    write_lines(path, [f"{key}={format_metric(val)}"
                       for key, val in report.as_dict().items()])


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


SWEEP_HEADER = ",".join(["n_sensors"] + [f.name for f in fields(EvalReport)])


def write_sweep(rows, path) -> None:
    """sweep.csv: one line per (n_sensors, EvalReport) row, in the report's
    key order; an undefined value is an empty field, not a zero."""
    write_lines(path, [SWEEP_HEADER] + [
        ",".join([str(n)] + ["" if v is None else format_metric(v)
                             for v in astuple(rep)])
        for n, rep in rows])


def read_sweep(path) -> list:
    """The (n_sensors, EvalReport) rows of a sweep.csv, equal to what
    write_sweep was given; a bad field raises MetricsError at path:line."""
    return read_csv(path, MetricsError, SWEEP_HEADER, lambda cells: (
        int(cells[0]), EvalReport(*[
            None if text == "" else _report_value(f.name, text)
            for f, text in zip(fields(EvalReport), cells[1:])])))[1]
