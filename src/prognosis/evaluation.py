"""Patient-level aggregation and the TPR-at-capped-FPR challenge metric."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .autodiff import Tensor
from .eeg_io import POOR, PatientMeta, RawRecording
from .errors import InsufficientData, ShapeMismatch, UnusableRecording
from .model import ModelConfig, forward

FPR_CAP = 0.05


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


_AGGREGATORS = {
    "mean": np.mean,
    "median": np.median,
    "max": np.max,
}


def predict_from_segments(
    params: dict[str, Tensor],
    config: ModelConfig,
    segments: np.ndarray,
    patient_id: str,
    aggregate: str = "mean",
) -> PatientPrediction:
    """Aggregate per-segment model outputs into one patient prediction."""
    agg = _AGGREGATORS[aggregate]
    probs = []
    raws = []
    for seg in segments:
        out = forward(params, config, seg)
        probs.append(out.poor_prob)
        raws.append(out.cpc_raw)
    return PatientPrediction(
        patient_id=patient_id,
        poor_prob=float(agg(probs)),
        cpc_pred=int(np.clip(round(float(np.mean(raws))), 1, 5)),
        n_segments_used=len(probs),
    )


def predict_patient(
    params: dict[str, Tensor],
    config: ModelConfig,
    recordings: list[RawRecording],
    aggregate: str = "mean",
) -> PatientPrediction:
    """Predict from the most recent usable hour of one patient."""
    if not recordings:
        raise UnusableRecording("patient has no recordings")
    failures = []
    for rec in sorted(recordings, key=lambda r: -r.hour_index):
        try:
            segments = dsp.preprocess(rec)
        except UnusableRecording as exc:
            failures.append(str(exc))
            continue
        return predict_from_segments(
            params, config, segments, rec.patient_id, aggregate=aggregate
        )
    raise UnusableRecording(f"no usable hour: {'; '.join(failures)}")


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
    patient_ids=None,
    store=None,
    aggregate: str = "mean",
) -> tuple[dict, list[dict]]:
    """Predict every patient of a split and compute the summary metrics.

    Returns (report, per-patient rows). When a preprocessed store is given,
    segments come from its cache (most recent hour) instead of re-running
    the DSP pipeline.
    """
    ids = sorted(patient_ids) if patient_ids is not None else sorted(dataset)
    rows = []
    for pid in ids:
        meta, recs = dataset[pid]
        if store is not None and store.hours(pid):
            hour = store.hours(pid)[-1]
            pred = predict_from_segments(
                params, config, store.segments(pid, hour), pid, aggregate=aggregate
            )
        else:
            pred = predict_patient(params, config, recs, aggregate=aggregate)
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
        "accuracy": accuracy([int(s >= 0.5) for s in scores], labels),
        "mse_cpc": float(np.mean([(r["cpc_pred"] - r["cpc_true"]) ** 2 for r in rows])),
        "n_patients": len(ids),
    }
    return report, rows


def write_report(report: dict, rows: list[dict], out_dir) -> tuple[Path, Path]:
    """Emit report.json and patients.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)
    csv_path = out_dir / "patients.csv"
    fields = ["patient_id", "poor_prob", "outcome", "cpc_pred", "cpc_true",
              "n_segments_used"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "poor_prob": f"{row['poor_prob']:.6f}"})
    return report_path, csv_path
