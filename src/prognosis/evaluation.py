"""Patient-level aggregation and the TPR-at-capped-FPR challenge metric."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .autodiff import Tensor
from .eeg_io import POOR, RawRecording, write_file
from .errors import InsufficientData, ShapeMismatch, UnusableRecording
from .model import ModelConfig, forward, round_cpc

FPR_CAP = 0.05
POOR_THRESHOLD = 0.5  # a probability at or above it predicts Poor


@dataclass
class PatientPrediction:
    patient_id: str
    poor_prob: float
    cpc_pred: int
    n_segments_used: int


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    tpr: float
    fpr: float


def predict_from_segments(
    params: dict[str, Tensor],
    config: ModelConfig,
    segments: np.ndarray,
    patient_id: str,
) -> PatientPrediction:
    """One patient prediction: the mean of its per-segment outputs."""
    probs = []
    raws = []
    for seg in segments:
        out = forward(params, config, seg)
        probs.append(out.poor_prob)
        raws.append(out.cpc_raw)
    return PatientPrediction(
        patient_id=patient_id,
        poor_prob=float(np.mean(probs)),
        cpc_pred=round_cpc(float(np.mean(raws))),
        n_segments_used=len(probs),
    )


def predict_patient(
    params: dict[str, Tensor],
    config: ModelConfig,
    recordings: list[RawRecording],
) -> PatientPrediction:
    """Predict from the newest hour of one patient that ``dsp.usable_hours``,
    the rule the segment cache keeps hours by, finds usable."""
    if not recordings:
        raise UnusableRecording("patient has no recordings")
    usable, _ = dsp.usable_hours(recordings[0].patient_id, recordings)
    newest = max(usable, key=lambda r: r.hour_index)
    return predict_from_segments(params, config, dsp.preprocess(newest), newest.patient_id)


def _check_binary(labels: np.ndarray) -> None:
    if labels.size == 0 or len(np.unique(labels)) < 2:
        raise InsufficientData("need both classes present")


def roc_points(scores, labels) -> list[RocPoint]:
    """ROC sweep over all distinct score thresholds (positive iff score >= t).

    Sorted by descending threshold, starting from a +inf sentinel; tied
    scores move together.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_binary(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    thresholds = [np.inf] + sorted(set(scores.tolist()), reverse=True)
    points = []
    for t in thresholds:
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        points.append(RocPoint(threshold=t, tpr=tp / n_pos, fpr=fp / n_neg))
    return points


def challenge_metric(scores, labels, fpr_cap: float = FPR_CAP) -> float:
    """Maximal TPR over thresholds whose FPR does not exceed the cap."""
    feasible = [p.tpr for p in roc_points(scores, labels) if p.fpr <= fpr_cap]
    return max(feasible, default=0.0)


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0 or preds.shape != labels.shape:
        raise ShapeMismatch(f"bad shapes {preds.shape} vs {labels.shape}")
    return float(np.mean(preds == labels))


def evaluate_split(
    params: dict[str, Tensor],
    config: ModelConfig,
    dataset,
    store,
) -> tuple[dict, list[dict]]:
    """Predict every patient of ``dataset`` and compute the summary metrics.

    Returns (report, per-patient rows). Each patient is scored from the
    most recent hour in the preprocessed store.
    """
    rows = []
    for pid in sorted(dataset):
        meta = dataset[pid][0]
        hour = store.hours(pid)[-1]
        pred = predict_from_segments(params, config, store.segments(pid, hour), pid)
        rows.append(
            {
                "patient_id": pid,
                "poor_prob": pred.poor_prob,
                "outcome": meta.outcome,
                "cpc_pred": pred.cpc_pred,
                "cpc_true": meta.cpc,
                "n_segments_used": pred.n_segments_used,
            }
        )
    scores = [r["poor_prob"] for r in rows]
    labels = [int(r["outcome"] == POOR) for r in rows]
    report = {
        "challenge_metric": challenge_metric(scores, labels),
        "accuracy": accuracy([int(s >= POOR_THRESHOLD) for s in scores], labels),
        "mse_cpc": float(np.mean([(r["cpc_pred"] - r["cpc_true"]) ** 2 for r in rows])),
        "n_patients": len(rows),
    }
    return report, rows


def write_report(report: dict, rows: list[dict], out_dir) -> tuple[Path, Path]:
    """Emit report.json and patients.csv."""
    out_dir = Path(out_dir)
    fields = ["patient_id", "poor_prob", "outcome", "cpc_pred", "cpc_true",
              "n_segments_used"]

    def write_rows(fh):
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "poor_prob": f"{row['poor_prob']:.6f}"})
    return (
        write_file(out_dir / "report.json", "report", lambda fh: json.dump(report, fh, indent=1)),
        write_file(out_dir / "patients.csv", "patient table", write_rows),
    )
