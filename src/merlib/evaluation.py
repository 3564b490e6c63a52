"""Protocol fold generation, confusion matrices, recognition metrics, and
report rendering.

Folds index into a manifest rather than copying samples. Aggregation pools
the per-fold predictions into one confusion matrix and computes every
headline metric on the pool; the per-fold matrices stay available in the
report for inspection.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Manifest
from .errors import ManifestError, ValidationError


@dataclass(frozen=True)
class Fold:
    train: tuple  # sample indices
    test: tuple
    tag: str


def folds_hde(manifest: Manifest, db_a: str, db_b: str) -> list:
    """Holdout-database folds: train on one database, test on the other,
    both directions. Samples from any further database are dropped with a
    warning."""
    if db_a == db_b:
        raise ValidationError(f"holdout evaluation needs two distinct "
                              f"databases, got {db_a!r} twice")
    a_idx, b_idx, other = [], [], set()
    for i, s in enumerate(manifest.samples):
        if s.database_id == db_a:
            a_idx.append(i)
        elif s.database_id == db_b:
            b_idx.append(i)
        else:
            other.add(s.database_id)
    for name, idx in ((db_a, a_idx), (db_b, b_idx)):
        if not idx:
            raise ManifestError(f"no samples from database {name!r}")
    if other:
        warnings.warn(f"excluded samples from databases outside the holdout "
                      f"pair: {', '.join(sorted(other))}")
    return [
        Fold(train=tuple(a_idx), test=tuple(b_idx), tag=f"train-{db_a}_test-{db_b}"),
        Fold(train=tuple(b_idx), test=tuple(a_idx), tag=f"train-{db_b}_test-{db_a}"),
    ]


def folds_loso(manifest: Manifest) -> list:
    """One fold per subject, in lexicographic subject order: the subject's
    samples are the test set, everyone else trains."""
    by_subject = {}
    for i, s in enumerate(manifest.samples):
        by_subject.setdefault(s.subject_id, []).append(i)
    if len(by_subject) < 2:
        raise ManifestError(f"leave-one-subject-out needs at least 2 subjects, "
                            f"got {len(by_subject)}")
    folds = []
    for subject in sorted(by_subject):
        test = by_subject[subject]
        held_out = set(test)
        train = [i for i in range(len(manifest.samples)) if i not in held_out]
        folds.append(Fold(train=tuple(train), test=tuple(test),
                          tag=f"subject-{subject}"))
    return folds


def folds_cde(manifest: Manifest) -> list:
    """Composite-database folds: leave-one-subject-out over the pooled
    manifest (pool databases first with merge_manifests)."""
    return folds_loso(manifest)


# ---------------------------------------------------------------------------
# confusion matrices and metrics

@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # [C,C] int64, rows = true class, columns = predicted
    class_names: list

    def __post_init__(self):
        counts = np.asarray(self.counts)
        c = len(self.class_names)
        if counts.shape != (c, c):
            raise ValidationError(f"counts must be {c}x{c} for {c} classes, "
                                  f"got {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValidationError(f"counts must be integers, got {counts.dtype}")
        if (counts < 0).any():
            raise ValidationError("counts must be non-negative")
        self.counts = counts.astype(np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(predicted, actual, class_names) -> ConfusionMatrix:
    """Count matrix with rows indexed by true class, columns by prediction."""
    predicted = np.asarray(predicted, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise ValidationError(f"predicted and actual must be equal-length "
                              f"vectors, got {predicted.shape} and {actual.shape}")
    c = len(class_names)
    for name, arr in (("predicted", predicted), ("actual", actual)):
        if arr.size and (arr.min() < 0 or arr.max() >= c):
            raise ValidationError(f"{name} indices must lie in [0, {c})")
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (actual, predicted), 1)
    return ConfusionMatrix(counts, list(class_names))


def _require_samples(cm: ConfusionMatrix):
    if cm.total == 0:
        raise ValidationError("metric undefined on an empty confusion matrix")


def war(cm: ConfusionMatrix) -> float:
    """Weighted average recall: correct / total. Identical to accuracy."""
    _require_samples(cm)
    return float(np.trace(cm.counts) / cm.total)


def uar(cm: ConfusionMatrix) -> float:
    """Unweighted average recall: mean per-class recall over the classes
    that actually have test samples."""
    _require_samples(cm)
    rows = cm.counts.sum(axis=1)
    present = rows > 0
    recalls = np.diag(cm.counts)[present] / rows[present]
    return float(np.mean(recalls))


def per_class_metrics(cm: ConfusionMatrix) -> list:
    """Precision/recall/F1 per class; zero denominators contribute zeros."""
    _require_samples(cm)
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    out = []
    for i, name in enumerate(cm.class_names):
        tp = int(cm.counts[i, i])
        precision = tp / int(cols[i]) if cols[i] else 0.0
        recall = tp / int(rows[i]) if rows[i] else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        out.append({"class": name, "precision": float(precision),
                    "recall": float(recall), "f1": float(f1)})
    return out


def macro_f1(cm: ConfusionMatrix) -> float:
    """Mean F1 over all classes, empty ones included (as zeros)."""
    metrics = per_class_metrics(cm)
    return float(np.mean([m["f1"] for m in metrics]))


def nearest_resize(arr: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbour resample of the first two axes to height x width:
    output row i reads source row (i * rows) // height, and likewise for
    columns."""
    rows = (np.arange(height) * arr.shape[0]) // height
    cols = (np.arange(width) * arr.shape[1]) // width
    return arr[rows][:, cols]


def localization_score(attn_map, mask) -> float:
    """Mean |map| inside the mask region divided by mean |map| outside.

    The mask is nearest-resampled when its shape differs from the map's.
    A constant-zero map scores 0; a map supported only inside scores inf.
    """
    arr = np.abs(np.asarray(attn_map, dtype=np.float64))
    if arr.ndim != 2:
        raise ValidationError(f"attention map must be 2-D, got {arr.ndim}-D")
    m = np.asarray(mask, dtype=bool)
    if m.shape != arr.shape:
        m = nearest_resize(m, *arr.shape)
    if not m.any() or m.all():
        raise ValidationError("mask must have both inside and outside regions")
    inside = float(arr[m].mean())
    outside = float(arr[~m].mean())
    if outside == 0.0:
        return math.inf if inside > 0.0 else 0.0
    return inside / outside


# ---------------------------------------------------------------------------
# aggregation and reports

@dataclass
class Report:
    class_names: list
    pooled: ConfusionMatrix
    folds: list            # (tag, ConfusionMatrix) in fold order
    war: float
    uar: float
    macro_f1: float
    per_class: list


def aggregate(folds, fold_predictions: dict, class_names) -> Report:
    """Pool per-fold predictions into one matrix and compute all metrics.

    fold_predictions maps fold tag -> (predicted indices, actual indices).
    Every fold must be present exactly once; unknown tags are rejected.
    """
    tags = [f.tag for f in folds]
    missing = [t for t in tags if t not in fold_predictions]
    if missing:
        raise ValidationError(f"missing predictions for folds: {', '.join(missing)}")
    unknown = [t for t in fold_predictions if t not in tags]
    if unknown:
        raise ValidationError(f"predictions for unknown folds: {', '.join(unknown)}")

    per_fold = []
    all_pred, all_actual = [], []
    for fold in folds:
        predicted, actual = fold_predictions[fold.tag]
        if len(predicted) != len(fold.test):
            raise ValidationError(f"fold {fold.tag}: {len(predicted)} predictions "
                                  f"for {len(fold.test)} test samples")
        per_fold.append((fold.tag, confusion(predicted, actual, class_names)))
        all_pred.extend(np.asarray(predicted).tolist())
        all_actual.extend(np.asarray(actual).tolist())
    pooled = confusion(all_pred, all_actual, class_names)
    return Report(class_names=list(class_names), pooled=pooled, folds=per_fold,
                  war=war(pooled), uar=uar(pooled), macro_f1=macro_f1(pooled),
                  per_class=per_class_metrics(pooled))


def percentage_table(cm: ConfusionMatrix) -> str:
    """Row-normalized percentages at two decimals, one row per true class."""
    lines = []
    rows = cm.counts.sum(axis=1)
    for i, name in enumerate(cm.class_names):
        if rows[i]:
            cells = [f"{100.0 * v / rows[i]:.2f}" for v in cm.counts[i]]
        else:
            cells = ["0.00"] * len(cm.class_names)
        lines.append(f"{name}\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def _counts_block(cm: ConfusionMatrix) -> str:
    lines = []
    for name, row in zip(cm.class_names, cm.counts):
        lines.append(f"{name}\t" + "\t".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def render_report(report: Report) -> str:
    """Plain-text report: pooled counts and percentages, headline metrics at
    full float precision, per-class table, then per-fold matrices."""
    parts = []
    parts.append("classes:\t" + "\t".join(report.class_names) + "\n")
    parts.append(f"samples:\t{report.pooled.total}\n\n")
    parts.append("pooled counts (rows true, columns predicted):\n")
    parts.append(_counts_block(report.pooled))
    parts.append("\npooled percentages (row-normalized):\n")
    parts.append(percentage_table(report.pooled))
    parts.append(f"\nWAR (accuracy):\t{float(report.war)!r}\n")
    parts.append(f"UAR:\t{float(report.uar)!r}\n")
    parts.append(f"macro-F1:\t{float(report.macro_f1)!r}\n")
    parts.append("\nper-class precision/recall/F1:\n")
    for m in report.per_class:
        parts.append(f"{m['class']}\t{m['precision']:.4f}\t{m['recall']:.4f}"
                     f"\t{m['f1']:.4f}\n")
    for tag, cm in report.folds:
        parts.append(f"\nfold {tag} (n={cm.total}):\n")
        parts.append(_counts_block(cm))
        if cm.total:
            parts.append(f"WAR:\t{war(cm)!r}\nUAR:\t{uar(cm)!r}\n")
    return "".join(parts)


def report_to_json(report: Report) -> str:
    """Machine-readable report; keys sorted, so the bytes are stable."""
    payload = {
        "class_names": list(report.class_names),
        "war": float(report.war),
        "uar": float(report.uar),
        "accuracy": float(report.war),  # WAR under its common name
        "macro_f1": float(report.macro_f1),
        "per_class": report.per_class,
        "pooled_counts": report.pooled.counts.tolist(),
        "folds": [{"tag": tag, "counts": cm.counts.tolist(),
                   "war": war(cm) if cm.total else None,
                   "uar": uar(cm) if cm.total else None}
                  for tag, cm in report.folds],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
