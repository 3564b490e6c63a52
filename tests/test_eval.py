"""Fold generation and metric tests.

The headline oracle is a 5-class confusion matrix whose metrics were worked
out by hand (and cross-checked per cell below): WAR = 193/253, UAR = mean of
the five per-class recalls, macro-F1 = mean of the five hand-computed F1
scores. Everything else is either an algebraic identity (WAR == UAR on
balanced matrices, the report's accuracy key == WAR) or a structural
property of the folds.
"""

import json

import numpy as np
import pytest

from merlib.data import Manifest, Sample, merge_manifests, synth_dataset
from merlib.errors import ManifestError, ValidationError
from merlib.evaluation import (ConfusionMatrix, Fold, aggregate, confusion,
                               folds_cde, folds_hde, folds_loso,
                               localization_score, macro_f1,
                               per_class_metrics, percentage_table,
                               render_report, report_to_json, uar, war)

# Hand-built matrix: rows are true classes, columns predictions.
# Row sums 49, 28, 119, 34, 23 (total 253), trace 193.
COUNTS = np.array([
    [40, 6, 3, 0, 0],
    [5, 15, 3, 2, 3],
    [3, 0, 112, 2, 2],
    [6, 0, 12, 16, 0],
    [1, 2, 10, 0, 10],
], dtype=np.int64)
NAMES = ["happiness", "surprise", "anger", "disgust", "sadness"]


def predictions_from_counts(counts):
    """Expand a count matrix back into (predicted, actual) index lists."""
    predicted, actual = [], []
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            predicted.extend([j] * int(counts[i, j]))
            actual.extend([i] * int(counts[i, j]))
    return predicted, actual


@pytest.fixture
def cm():
    return ConfusionMatrix(COUNTS.copy(), list(NAMES))


def manifest_from_rows(rows, class_names):
    samples = [Sample(image=np.zeros((4, 4, 3), dtype=np.uint8),
                      subject_id=subj, database_id=db,
                      raw_label=class_names[label], label=label)
               for subj, db, label in rows]
    return Manifest(samples=samples, class_names=list(class_names))


# ---------------------------------------------------------------------------
# confusion construction

def test_confusion_rebuilds_counts(cm):
    predicted, actual = predictions_from_counts(COUNTS)
    rebuilt = confusion(predicted, actual, NAMES)
    assert (rebuilt.counts == cm.counts).all()
    assert rebuilt.total == 253


def test_confusion_rejects_out_of_range():
    with pytest.raises(ValidationError):
        confusion([0, 5], [0, 0], NAMES)
    with pytest.raises(ValidationError):
        confusion([0, 0], [-1, 0], NAMES)
    with pytest.raises(ValidationError):
        confusion([0, 1, 2], [0, 1], NAMES)


def test_confusion_matrix_shape_checks():
    with pytest.raises(ValidationError):
        ConfusionMatrix(np.zeros((3, 4), dtype=np.int64), ["a", "b", "c"])
    with pytest.raises(ValidationError):
        ConfusionMatrix(np.zeros((2, 2)), ["a", "b"])  # float counts
    with pytest.raises(ValidationError):
        ConfusionMatrix(np.array([[1, -1], [0, 0]]), ["a", "b"])


# ---------------------------------------------------------------------------
# metric oracles

def test_war_hand_value(cm):
    assert war(cm) == 193 / 253
    assert abs(war(cm) - 0.7628) < 5e-4


def test_uar_hand_value(cm):
    recalls = [40 / 49, 15 / 28, 112 / 119, 16 / 34, 10 / 23]
    assert uar(cm) == pytest.approx(sum(recalls) / 5, abs=1e-12)
    assert abs(uar(cm) - 0.6397) < 5e-4


def test_macro_f1_hand_value(cm):
    # Column sums: 55, 23, 140, 20, 15.
    precisions = [40 / 55, 15 / 23, 112 / 140, 16 / 20, 10 / 15]
    recalls = [40 / 49, 15 / 28, 112 / 119, 16 / 34, 10 / 23]
    f1s = [2 * p * r / (p + r) for p, r in zip(precisions, recalls)]
    assert macro_f1(cm) == pytest.approx(sum(f1s) / 5, abs=1e-12)
    assert abs(macro_f1(cm) - 0.668) < 1e-3


def test_per_class_table(cm):
    table = per_class_metrics(cm)
    assert [m["class"] for m in table] == NAMES
    assert table[0]["recall"] == 40 / 49
    assert table[2]["precision"] == 112 / 140
    assert table[3]["f1"] == pytest.approx(2 * 0.8 * (16 / 34) / (0.8 + 16 / 34))


def test_perfect_classifier_scores_one():
    counts = np.diag([7, 3, 11]).astype(np.int64)
    cm = ConfusionMatrix(counts, ["a", "b", "c"])
    assert war(cm) == 1.0 and uar(cm) == 1.0 and macro_f1(cm) == 1.0


def test_all_wrong_classifier_scores_zero():
    counts = np.array([[0, 5], [5, 0]], dtype=np.int64)
    cm = ConfusionMatrix(counts, ["a", "b"])
    assert war(cm) == 0.0 and uar(cm) == 0.0 and macro_f1(cm) == 0.0


def test_empty_class_excluded_from_uar_but_not_f1():
    # Class c never appears as a true label; it still drags macro-F1 down.
    counts = np.array([[3, 0, 1], [0, 4, 0], [0, 0, 0]], dtype=np.int64)
    cm = ConfusionMatrix(counts, ["a", "b", "c"])
    assert uar(cm) == pytest.approx((3 / 4 + 1.0) / 2, abs=1e-12)
    metrics = per_class_metrics(cm)
    assert metrics[2]["recall"] == 0.0 and metrics[2]["f1"] == 0.0
    assert macro_f1(cm) < uar(cm)


def test_empty_matrix_rejected():
    cm = ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ["a", "b"])
    for fn in (war, uar, macro_f1, per_class_metrics):
        with pytest.raises(ValidationError):
            fn(cm)


def test_war_equals_uar_on_balanced_matrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        actual = np.repeat(np.arange(c), n)
        predicted = rng.integers(0, c, size=actual.size)
        cm = confusion(predicted, actual, [f"c{i}" for i in range(c)])
        assert war(cm) == pytest.approx(uar(cm), abs=1e-12)


def test_uar_invariant_under_class_duplication():
    base = ConfusionMatrix(COUNTS.copy(), list(NAMES))
    dup = COUNTS.copy()
    dup[2] *= 4  # quadruple one class's test samples
    dup_cm = ConfusionMatrix(dup, list(NAMES))
    assert uar(dup_cm) == pytest.approx(uar(base), abs=1e-12)
    assert war(dup_cm) != pytest.approx(war(base), abs=1e-6)


# ---------------------------------------------------------------------------
# folds

def test_loso_partitions_each_subject_out():
    manifest = synth_dataset(n_classes=3, n_subjects=5, per_class=2, seed=3)
    folds = folds_loso(manifest)
    assert [f.tag for f in folds] == [f"subject-s{i:02d}" for i in range(5)]
    n = len(manifest.samples)
    for fold in folds:
        assert sorted(fold.train + fold.test) == list(range(n))
        test_subjects = {manifest.samples[i].subject_id for i in fold.test}
        train_subjects = {manifest.samples[i].subject_id for i in fold.train}
        assert len(test_subjects) == 1
        assert not (test_subjects & train_subjects)
    # every sample is tested exactly once across folds
    tested = sorted(i for f in folds for i in f.test)
    assert tested == list(range(n))


def test_loso_folds_on_many_interleaved_subjects():
    # 200 subjects, three samples each, interleaved so that no subject's
    # samples are contiguous: each fold trains on exactly the other subjects.
    rng = np.random.default_rng(0)
    subjects = rng.permutation(np.repeat(np.arange(200), 3))
    rows = [(f"s{s:03d}", "d", i % 2) for i, s in enumerate(subjects)]
    manifest = manifest_from_rows(rows, ["a", "b"])
    folds = folds_loso(manifest)
    assert [f.tag for f in folds] == [f"subject-s{s:03d}" for s in range(200)]
    for s, fold in enumerate(folds):
        assert fold.test == tuple(np.flatnonzero(subjects == s))
        assert fold.train == tuple(np.flatnonzero(subjects != s))


def test_loso_needs_two_subjects():
    manifest = manifest_from_rows([("s0", "d", 0), ("s0", "d", 1)], ["a", "b"])
    with pytest.raises(ManifestError):
        folds_loso(manifest)


def test_hde_fold_structure():
    rows = [("s0", "left", 0), ("s1", "left", 1), ("s2", "left", 0),
            ("s3", "right", 1), ("s4", "right", 0)]
    manifest = manifest_from_rows(rows, ["a", "b"])
    folds = folds_hde(manifest, "left", "right")
    assert [f.tag for f in folds] == ["train-left_test-right",
                                     "train-right_test-left"]
    assert folds[0].train == (0, 1, 2) and folds[0].test == (3, 4)
    assert folds[1].train == (3, 4) and folds[1].test == (0, 1, 2)


def test_hde_warns_on_third_database():
    rows = [("s0", "left", 0), ("s1", "right", 1), ("s2", "stray", 0)]
    manifest = manifest_from_rows(rows, ["a", "b"])
    with pytest.warns(UserWarning, match="stray"):
        folds = folds_hde(manifest, "left", "right")
    assert all(2 not in f.train + f.test for f in folds)


def test_hde_missing_database_named():
    rows = [("s0", "left", 0), ("s1", "left", 1)]
    manifest = manifest_from_rows(rows, ["a", "b"])
    with pytest.raises(ManifestError, match="right"):
        folds_hde(manifest, "left", "right")
    with pytest.raises(ValidationError):
        folds_hde(manifest, "left", "left")


def test_cde_pools_databases_then_leaves_subjects_out():
    a = synth_dataset(n_classes=2, n_subjects=2, per_class=2, seed=1,
                      database_id="alpha")
    b = synth_dataset(n_classes=2, n_subjects=2, per_class=2, seed=2,
                      database_id="beta")
    b = Manifest(samples=[Sample(image=s.image, subject_id="x" + s.subject_id,
                                 database_id=s.database_id,
                                 raw_label=s.raw_label, label=s.label)
                          for s in b.samples], class_names=b.class_names)
    pooled = merge_manifests([a, b])
    folds = folds_cde(pooled)
    assert len(folds) == 4
    dbs = {pooled.samples[i].database_id for f in folds for i in f.train}
    assert dbs == {"alpha", "beta"}


# ---------------------------------------------------------------------------
# aggregation and rendering

def two_fold_setup():
    f0 = Fold(train=(2, 3), test=(0, 1), tag="f0")
    f1 = Fold(train=(0, 1), test=(2, 3), tag="f1")
    preds = {"f0": ([0, 1], [0, 1]), "f1": ([1, 0], [0, 1])}
    return [f0, f1], preds


def test_aggregate_pools_counts():
    folds, preds = two_fold_setup()
    report = aggregate(folds, preds, ["a", "b"])
    assert (report.pooled.counts == np.array([[1, 1], [1, 1]])).all()
    assert report.war == 0.5 and report.uar == 0.5
    assert [t for t, _ in report.folds] == ["f0", "f1"]
    assert war(report.folds[0][1]) == 1.0


def test_aggregate_names_missing_fold():
    folds, preds = two_fold_setup()
    del preds["f1"]
    with pytest.raises(ValidationError, match="f1"):
        aggregate(folds, preds, ["a", "b"])
    folds2, preds2 = two_fold_setup()
    preds2["ghost"] = ([0], [0])
    with pytest.raises(ValidationError, match="ghost"):
        aggregate(folds2, preds2, ["a", "b"])


def test_aggregate_checks_prediction_length():
    folds, preds = two_fold_setup()
    preds["f0"] = ([0], [0])
    with pytest.raises(ValidationError, match="f0"):
        aggregate(folds, preds, ["a", "b"])


def test_percentage_table_two_decimal_rounding(cm):
    lines = percentage_table(cm).splitlines()
    assert lines[0] == "happiness\t81.63\t12.24\t6.12\t0.00\t0.00"
    assert lines[3] == "disgust\t17.65\t0.00\t35.29\t47.06\t0.00"


def test_render_report_contains_metrics(cm):
    predicted, actual = predictions_from_counts(COUNTS)
    fold = Fold(train=(), test=tuple(range(253)), tag="all")
    report = aggregate([fold], {"all": (predicted, actual)}, NAMES)
    text = render_report(report)
    assert repr(193 / 253) in text
    assert "happiness\t81.63" in text
    assert "fold all (n=253):" in text
    # byte-stable across calls
    assert render_report(report) == text


def test_localization_score_ratio():
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2, :2] = True
    attn = np.ones((4, 4))
    attn[:2, :2] = 2.0
    assert localization_score(attn, mask) == 2.0
    assert localization_score(np.ones((4, 4)), mask) == 1.0
    assert localization_score(-attn, mask) == 2.0  # sign-blind


def test_localization_score_degenerate_maps():
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2, :2] = True
    assert localization_score(np.zeros((4, 4)), mask) == 0.0
    only_inside = np.zeros((4, 4))
    only_inside[0, 0] = 3.0
    assert localization_score(only_inside, mask) == np.inf


def test_localization_score_resamples_mask():
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4, :4] = True  # quadrant mask at image resolution
    attn = np.ones((4, 4))
    attn[:2, :2] = 5.0  # map at half resolution
    assert localization_score(attn, mask) == 5.0


def test_localization_score_rejects_degenerate_masks():
    with pytest.raises(ValidationError):
        localization_score(np.ones((4, 4)), np.ones((4, 4), dtype=bool))
    with pytest.raises(ValidationError):
        localization_score(np.ones((4, 4)), np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValidationError):
        localization_score(np.ones((4, 4, 1)), np.ones((4, 4), dtype=bool))


def test_report_json_roundtrip(cm):
    predicted, actual = predictions_from_counts(COUNTS)
    fold = Fold(train=(), test=tuple(range(253)), tag="all")
    report = aggregate([fold], {"all": (predicted, actual)}, NAMES)
    blob = report_to_json(report)
    payload = json.loads(blob)
    assert payload["war"] == 193 / 253
    assert payload["accuracy"] == payload["war"]
    assert payload["pooled_counts"] == COUNTS.tolist()
    assert payload["folds"][0]["tag"] == "all"
    assert report_to_json(report) == blob
