"""Detection quality metrics.

`evaluate_predictions` scores the columns of `models.Predictions` against a
labeled feature table in one pass and fills one `EvalReport`.  Window
level: confusion counts over table rows, detection rate (recall on incident
windows), false alarm rate (positives among quiet windows), precision, F1,
and a rank-based AUC-ROC that gives tied scores half credit.  Event level,
given an incident log: each incident is detected by the first flagged
window that ends inside (onset, end + grace], and the mean time to detect
runs from onset to that window's end over the detected incidents.

`EvalReport`'s fields, in order, are the keys of report.txt and the columns
of the sweep summary.  Rates with an empty denominator are reported as None
(written out as "undefined"), never silently as zero.
"""
from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import read_csv, read_key_values, write_lines


class MetricsError(ValueError):
    pass


def _ratio(num: int, den: int):
    return None if den == 0 else num / den


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
    truth = np.asarray(table.label_incident, dtype=bool)
    flag = predictions.detected
    tp = int(np.sum(truth & flag))
    fp = int(np.sum(~truth & flag))
    tn = int(np.sum(~truth & ~flag))
    fn = int(np.sum(truth & ~flag))
    recall = _ratio(tp, tp + fn)
    prec = _ratio(tp, tp + fp)
    f1 = (None if prec is None or recall is None or prec + recall == 0
          else 2.0 * prec * recall / (prec + recall))

    tp_rows = np.flatnonzero(truth & flag)
    road_acc = None
    sev_acc = None
    if tp_rows.size:
        road_acc = float(np.mean(predictions.road[tp_rows] == np.asarray(
            table.label_road, dtype=object)[tp_rows]))
        sev_acc = float(np.mean(predictions.severity[tp_rows] == np.asarray(
            table.label_severity, dtype=object)[tp_rows]))

    rep = EvalReport(table.n_rows, tp, fp, tn, fn, recall,
                     _ratio(fp, fp + tn), prec, f1,
                     auc_roc(truth, predictions.score), road_acc, sev_acc)
    if incident_log is not None:
        # an incident log covers one day; a table of several days repeats
        # each window end, and would credit an event with another day's flag
        if np.any(np.diff(table.window_end) <= 0):
            raise MetricsError("event metrics need a one-day table, whose "
                               "window ends increase strictly")
        if grace_s < 0:
            raise MetricsError("grace period must be non-negative")
        # each incident is judged on its own: the first flagged window end
        # after its onset detects it if it falls by end + grace_s
        flagged = np.sort(predictions.window_end[flag]).astype(np.float64)
        onsets = np.array([s.onset for s in incident_log], dtype=np.float64)
        ends = np.array([s.end for s in incident_log], dtype=np.float64)
        first = np.searchsorted(flagged, onsets, side="right")
        hit = first < flagged.size
        alerts = flagged[first[hit]]
        delays = (alerts - onsets[hit])[alerts <= ends[hit] + grace_s]
        rep.n_events = len(incident_log)
        rep.events_detected = int(delays.size)
        rep.event_detection_rate = _ratio(rep.events_detected, rep.n_events)
        rep.mttd_s = float(np.mean(delays)) if delays.size else None
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
