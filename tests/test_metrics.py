"""Detection metric tests.

Index:
  confusion   counts, window rates, undefined denominators, F1 bits
  auc         midrank AUC against a pairwise-count oracle
  events      per-incident detection, grace window, mean delay
  evaluate    end-to-end scoring of gated predictions
  io          report file round trip, sweep.csv rows
"""
import re

import numpy as np
import pytest

from trafficlab.features import FeatureTable
from trafficlab.metrics import (MetricsError, auc_roc, evaluate_predictions,
                                format_metric, read_report, read_sweep,
                                write_report, write_sweep)
from trafficlab.models import Predictions

from conftest import rng_for
from test_incidents import spec_of


def hit(we, score, road="east_rd", sev="minor"):
    return we, score, True, road, sev


def miss(we, score):
    return we, score, False, None, None


def columns(*rows) -> Predictions:
    """The Predictions of per-window (window_end, score, detected, road,
    severity) rows, in the dtypes infer_batch gives."""
    we, score, det, road, sev = zip(*rows)
    return Predictions(np.array(we, dtype=np.int64),
                       np.array(score, dtype=np.float64),
                       np.array(det, dtype=bool),
                       np.array(road, dtype=object),
                       np.array(sev, dtype=object))


def table_for(preds, truth=None) -> FeatureTable:
    """A table with no feature columns, one row per prediction at its
    window end, labeled `truth` (all quiet if omitted)."""
    n = preds.detected.size
    if truth is None:
        truth = np.zeros(n, dtype=bool)
    return FeatureTable([], np.zeros((n, 0)), preds.window_end,
                        np.asarray(truth, dtype=bool), [None] * n, [None] * n)


def flag_rows(truth, flagged):
    """The report of per-row flags against per-row labels."""
    preds = columns(*(hit(30 * (i + 1), 0.5) if f else miss(30 * (i + 1), 0.5)
                      for i, f in enumerate(flagged)))
    return evaluate_predictions(table_for(preds, truth), preds)


def events(preds, specs, grace_s):
    """The report of flags against an incident log alone."""
    return evaluate_predictions(table_for(preds), preds, specs, grace_s)


# -- confusion ---------------------------------------------------------------


def test_confusion_hand_case():
    truth = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    pred = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
    rep = flag_rows(truth, pred)
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (3, 1, 5, 1)
    assert rep.windows == 10
    assert rep.detection_rate == 0.75
    assert rep.false_alarm_rate == pytest.approx(1 / 6)
    assert rep.precision == 0.75
    assert rep.f1 == pytest.approx(0.75)


def test_rates_with_empty_denominators_are_none():
    no_pos = flag_rows([0, 0, 0], [0, 1, 0])
    assert no_pos.detection_rate is None
    assert no_pos.f1 is None
    no_neg = flag_rows([1, 1], [1, 0])
    assert no_neg.false_alarm_rate is None
    no_flag = flag_rows([1, 0], [0, 0])
    assert no_flag.precision is None
    zero_f1 = flag_rows([1, 0], [0, 1])  # p and r both zero
    assert zero_f1.f1 is None


def test_f1_is_the_harmonic_mean_of_precision_and_recall_to_the_bit():
    """F1 is 2pr / (p + r) of the two rounded rates, as report.txt has
    always written it; 2tp / (2tp + fp + fn) would give 0x1.5555555555555p-2
    for this case."""
    rep = flag_rows([1, 1, 1, 1, 1], [1, 0, 0, 0, 0])
    assert (rep.tp, rep.fp, rep.fn) == (1, 0, 4)
    assert float.hex(rep.f1) == "0x1.5555555555556p-2"


# -- auc ---------------------------------------------------------------------


def pairwise_auc(truth, scores):
    """Definition: average over all (incident, quiet) pairs of
    1[s_pos > s_neg] + 0.5 * 1[s_pos == s_neg]."""
    truth = np.asarray(truth, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[truth]
    neg = scores[~truth]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (pos.size * neg.size)


def test_auc_matches_pairwise_count_oracle():
    for trial in range(20):
        rng = rng_for("auc", trial)
        n = int(rng.integers(10, 60))
        truth = rng.random(n) < 0.4
        if truth.all() or not truth.any():
            truth[0] = True
            truth[1] = False
        # one-decimal scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        assert auc_roc(truth, scores) == pytest.approx(
            pairwise_auc(truth, scores), abs=1e-12)


def test_auc_edge_values():
    assert auc_roc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auc_roc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0
    assert auc_roc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5
    assert auc_roc([1, 1], [0.1, 0.9]) is None
    assert auc_roc([0, 0], [0.1, 0.9]) is None
    with pytest.raises(MetricsError, match="lengths differ"):
        auc_roc([1, 0], [0.5])


# -- events ------------------------------------------------------------------


def test_event_detection_hand_case():
    # incident spans (100, 300]; flags before onset or after grace miss it
    preds = columns(hit(90, 0.9), miss(110, 0.2), hit(130, 0.8),
                    hit(250, 0.7), hit(400, 0.9))
    spec = spec_of(onset=100, duration=200, sid=7)
    rep = events(preds, [spec], grace_s=60.0)
    assert (rep.n_events, rep.events_detected, rep.mttd_s) == (1, 1, 30.0)

    # flag exactly at onset does not count, exactly at end + grace does
    at_onset = events(columns(hit(100, 0.9)), [spec], grace_s=60.0)
    assert at_onset.events_detected == 0 and at_onset.mttd_s is None
    at_edge = events(columns(hit(360, 0.9)), [spec], grace_s=60.0)
    assert (at_edge.events_detected, at_edge.mttd_s) == (1, 260.0)
    past_edge = events(columns(hit(361, 0.9)), [spec], grace_s=60.0)
    assert past_edge.events_detected == 0


def test_event_detection_judges_incidents_independently():
    preds = columns(hit(130, 0.9), hit(660, 0.8))
    specs = [spec_of(onset=100, duration=100, sid=0),
             spec_of(onset=600, duration=100, sid=1),
             spec_of(onset=900, duration=100, sid=2)]
    rep = events(preds, specs, grace_s=0.0)
    assert (rep.n_events, rep.events_detected) == (3, 2)
    assert rep.event_detection_rate == 2 / 3
    assert rep.mttd_s == pytest.approx((30 + 60) / 2)
    assert [events(preds, [spec], 0.0).mttd_s for spec in specs] == [
        30.0, 60.0, None]
    with pytest.raises(MetricsError, match="grace"):
        events(preds, specs, grace_s=-1.0)


# -- evaluate ----------------------------------------------------------------


def eval_fixture():
    ends = np.array([600, 630, 660, 690, 720, 750], dtype=np.float64)
    X = np.zeros((6, 1))
    inc = np.array([0, 1, 0, 1, 0, 0], dtype=bool)
    road = [None, "east_rd", None, "west_rd", None, None]
    sev = [None, "minor", None, "severe", None, None]
    table = FeatureTable(["f0"], X, ends, inc, road, sev)
    preds = columns(miss(600, 0.2),
                    hit(630, 0.9, road="east_rd", sev="severe"),  # sev wrong
                    hit(660, 0.8, road="west_rd"),                # false alarm
                    miss(690, 0.4),
                    miss(720, 0.1),
                    miss(750, 0.3))
    return table, preds


def test_evaluate_window_level():
    table, preds = eval_fixture()
    rep = evaluate_predictions(table, preds)
    assert (rep.windows, rep.tp, rep.fp, rep.tn, rep.fn) == (6, 1, 1, 3, 1)
    assert rep.detection_rate == 0.5
    assert rep.false_alarm_rate == 0.25
    assert rep.precision == 0.5
    assert rep.f1 == pytest.approx(0.5)
    # pos scores 0.9, 0.4 vs neg 0.2, 0.8, 0.1, 0.3: 7 of 8 pairs won
    assert rep.auc == pytest.approx(0.875)
    assert rep.road_accuracy == 1.0       # judged on the one true positive
    assert rep.severity_accuracy == 0.0
    assert rep.n_events == 0
    assert rep.event_detection_rate is None
    with pytest.raises(MetricsError, match="per table row"):
        evaluate_predictions(table, Predictions(*(c[:-1] for c in preds)))


def test_evaluate_event_level():
    table, preds = eval_fixture()
    log = [spec_of(onset=615, duration=60, sid=0),    # flagged at 630
           spec_of(onset=700, duration=30, sid=1)]    # nothing in (700, 730]
    rep = evaluate_predictions(table, preds, incident_log=log, grace_s=0.0)
    assert rep.n_events == 2
    assert rep.events_detected == 1
    assert rep.event_detection_rate == 0.5
    assert rep.mttd_s == pytest.approx(15.0)


def test_evaluate_without_true_positives():
    table, _ = eval_fixture()
    preds = columns(*(miss(we, 0.1) for we in table.window_end))
    rep = evaluate_predictions(table, preds)
    assert rep.tp == 0
    assert rep.road_accuracy is None
    assert rep.severity_accuracy is None
    assert rep.precision is None


# -- io ----------------------------------------------------------------------


def test_format_metric():
    assert format_metric(None) == "undefined"
    assert format_metric(3) == "3"
    assert format_metric(np.int64(3)) == "3"
    assert format_metric(0.25) == "0.25"
    assert format_metric(np.float64(0.25)) == "0.25"
    assert "np.float64" not in format_metric(np.float64(1 / 3))


def test_report_round_trip(tmp_path):
    table, preds = eval_fixture()
    log = [spec_of(onset=615, duration=60, sid=0)]
    rep = evaluate_predictions(table, preds, incident_log=log, grace_s=30.0)
    path = tmp_path / "report.txt"
    write_report(rep, path)
    text = path.read_text(encoding="utf-8")
    assert "detection_rate=0.5" in text
    assert "undefined" not in text
    back = read_report(path)
    assert back == rep.as_dict()

    empty = evaluate_predictions(
        FeatureTable(["f0"], np.zeros((2, 1)), np.array([600.0, 630.0]),
                     np.zeros(2, dtype=bool), [None, None], [None, None]),
        columns(miss(600, 0.1), miss(630, 0.2)))
    write_report(empty, path)
    assert "detection_rate=undefined" in path.read_text(encoding="utf-8")
    assert read_report(path)["detection_rate"] is None


REPORT_FIELD_NAMES = ["windows", "tp", "fp", "tn", "fn", "detection_rate",
               "false_alarm_rate", "precision", "f1", "auc", "road_accuracy",
               "severity_accuracy", "n_events", "events_detected",
               "event_detection_rate", "mttd_s"]


def test_report_key_order(tmp_path):
    """report.txt's lines and the sweep summary's columns follow one fixed
    key order: the fields of EvalReport."""
    table, preds = eval_fixture()
    rep = evaluate_predictions(table, preds,
                               incident_log=[spec_of(onset=615, duration=60,
                                                     sid=0)])
    path = tmp_path / "report.txt"
    write_report(rep, path)
    keys = [line.split("=", 1)[0]
            for line in path.read_text(encoding="utf-8").splitlines()]
    assert keys == REPORT_FIELD_NAMES
    sweep = tmp_path / "sweep.csv"
    write_sweep([(4, rep)], sweep)
    header = sweep.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",") == ["n_sensors"] + REPORT_FIELD_NAMES


def test_report_reader_names_file_and_line(tmp_path):
    path = tmp_path / "report.txt"
    for bad, want in (("auc=x\n", r"3: auc is not a number: 'x'"),
                      ("auc 0.9\n", r"3: expected key=value, got 'auc 0.9'")):
        path.write_text("windows=4\n\n" + bad + "tp=1\n", encoding="utf-8")
        with pytest.raises(MetricsError,
                           match=rf"^{re.escape(str(path))}:{want}$"):
            read_report(path)


def test_csv_summary_row(tmp_path):
    """sweep.csv holds one row per level, undefined fields empty, and reads
    back through read_sweep to the reports it was written from."""
    table, preds = eval_fixture()
    rep = evaluate_predictions(table, preds)
    path = tmp_path / "sweep.csv"
    write_sweep([(4, rep)], path)
    header, row = path.read_text(encoding="utf-8").splitlines()
    assert header.startswith("n_sensors,windows,tp,fp,tn,fn,")
    cells = row.split(",")
    assert len(cells) == len(header.split(","))
    assert cells[0] == "4"
    assert cells[1:6] == ["6", "1", "1", "3", "1"]
    # undefined event fields stay empty, not zero
    assert cells[-1] == "" and cells[-2] == ""
    assert "np.float64" not in row
    assert read_sweep(path) == [(4, rep)]
