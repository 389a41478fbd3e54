import numpy as np
import pytest

from prognosis import evaluation as E
from prognosis import model as M
from prognosis.dsp import preprocess
from prognosis.eeg_io import GOOD, POOR, STANDARD_ELECTRODES, PatientMeta, RawRecording
from prognosis.errors import InsufficientData, ShapeMismatch, UnusableRecording
from prognosis.evaluation import (
    accuracy,
    challenge_metric,
    evaluate_split,
    predict_from_segments,
    predict_patient,
    roc_points,
    write_report,
)
from prognosis.model import ModelOutput, preset_config
from prognosis.train import build_store


def brute_force_metric(scores, labels, cap=0.05):
    """Independent oracle: sweep every candidate threshold explicitly."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = np.sum(labels == 1)
    n_neg = np.sum(labels == 0)
    best = 0.0
    for t in np.concatenate(([np.inf], scores)):
        pred = scores >= t
        fpr = np.sum(pred & (labels == 0)) / n_neg
        if fpr <= cap:
            best = max(best, np.sum(pred & (labels == 1)) / n_pos)
    return best


@pytest.fixture
def desk():
    return preset_config("desk")


@pytest.fixture
def desk_params(desk):
    return M.init_params(desk, seed=0)


def constant_forward(prob, raw):
    def fake(params, config, segment):
        return ModelOutput(poor_prob=prob, cpc_raw=raw,
                           cpc_pred=int(np.clip(round(raw), 1, 5)))
    return fake


class TestPredict:
    def test_constant_prob_aggregates_to_itself(self, desk, monkeypatch):
        monkeypatch.setattr(E, "forward", constant_forward(0.8, 3.0))
        segs = np.zeros((4, 18, 30000), dtype=np.float32)
        pred = predict_from_segments({}, desk, segs, "p1")
        assert pred.poor_prob == pytest.approx(0.8)
        assert pred.cpc_pred == 3
        assert pred.n_segments_used == 4

    def test_cpc_rounding(self, desk, monkeypatch):
        monkeypatch.setattr(E, "forward", constant_forward(0.5, 2.2))
        segs = np.zeros((1, 18, 30000), dtype=np.float32)
        assert predict_from_segments({}, desk, segs, "p").cpc_pred == 2
        monkeypatch.setattr(E, "forward", constant_forward(0.5, 2.6))
        assert predict_from_segments({}, desk, segs, "p").cpc_pred == 3

    def test_no_recordings(self, desk):
        with pytest.raises(UnusableRecording, match="no recordings"):
            predict_patient({}, desk, [])

    def test_skips_unusable_hours(self, desk, monkeypatch, one_hour_recording):
        import dataclasses

        monkeypatch.setattr(E, "forward", constant_forward(0.7, 4.0))
        keep = [i for i, e in enumerate(one_hour_recording.electrodes) if e != "Cz"]
        broken = dataclasses.replace(
            one_hour_recording,
            hour_index=1,
            electrodes=tuple(one_hour_recording.electrodes[i] for i in keep),
            samples=one_hour_recording.samples[keep],
        )
        pred = predict_patient({}, desk, [one_hour_recording, broken])
        assert pred.poor_prob == pytest.approx(0.7)

    def test_newest_usable_hour_scored(self, desk, monkeypatch, mixed_rate_dataset):
        def mean_forward(params, config, segment):
            return ModelOutput(poor_prob=float(segment.mean()), cpc_raw=3.0, cpc_pred=3)

        monkeypatch.setattr(E, "forward", mean_forward)
        recs = mixed_rate_dataset["p0"][1]
        hour0 = float(preprocess(recs[0])[0].mean())
        # hour 1 (60 Hz) is the newest of the first two; hour 2 (250.00003 Hz) of all
        for hours in (recs[:2], recs):
            pred = predict_patient({}, desk, hours)
            assert (pred.poor_prob, pred.n_segments_used) == (hour0, 1)

    def test_all_hours_unusable(self, desk, one_hour_recording):
        import dataclasses

        keep = [i for i, e in enumerate(one_hour_recording.electrodes) if e != "Cz"]
        broken = dataclasses.replace(
            one_hour_recording,
            electrodes=tuple(one_hour_recording.electrodes[i] for i in keep),
            samples=one_hour_recording.samples[keep],
        )
        with pytest.raises(UnusableRecording, match="hour 0"):
            predict_patient({}, desk, [broken])


class TestRoc:
    def test_perfect_separation(self):
        pts = roc_points([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert pts[0].tpr == 0.0 and pts[0].fpr == 0.0
        assert any(p.tpr == 1.0 and p.fpr == 0.0 for p in pts)
        assert pts[-1].tpr == 1.0 and pts[-1].fpr == 1.0

    def test_all_scores_equal(self):
        pts = roc_points([0.5, 0.5, 0.5], [1, 0, 1])
        assert [(p.tpr, p.fpr) for p in pts] == [(0.0, 0.0), (1.0, 1.0)]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=50)
        labels = rng.integers(0, 2, size=50)
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        pts = roc_points(scores, labels)
        tprs = [p.tpr for p in pts]
        fprs = [p.fpr for p in pts]
        assert tprs == sorted(tprs) and fprs == sorted(fprs)

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientData):
            roc_points([0.1, 0.9], [1, 1])
        with pytest.raises(InsufficientData):
            roc_points([], [])


class TestChallengeMetric:
    def test_worked_example(self):
        got = challenge_metric([0.9, 0.8, 0.7, 0.2, 0.1], [1, 1, 0, 1, 0])
        assert got == pytest.approx(2 / 3)

    def test_perfect(self):
        assert challenge_metric([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_anti_correlated(self):
        assert challenge_metric([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(4, 30))
            scores = rng.uniform(size=n)
            if rng.uniform() < 0.3:
                scores = np.round(scores, 1)  # force ties
            labels = rng.integers(0, 2, size=n)
            if len(set(labels.tolist())) < 2:
                labels[0], labels[1] = 0, 1
            cap = float(rng.choice([0.0, 0.05, 0.2, 0.5]))
            assert challenge_metric(scores, labels, cap) == pytest.approx(
                brute_force_metric(scores, labels, cap)
            )

    def test_scale_invariant(self):
        scores = [0.9, 0.8, 0.7, 0.2, 0.1]
        labels = [1, 1, 0, 1, 0]
        scaled = [10 * s - 3 for s in scores]
        assert challenge_metric(scores, labels) == challenge_metric(scaled, labels)

    def test_monotone_in_cap(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        caps = [0.0, 0.05, 0.1, 0.3, 0.7, 1.0]
        vals = [challenge_metric(scores, labels, c) for c in caps]
        assert vals == sorted(vals)
        assert vals[-1] == 1.0


class TestAccuracy:
    def test_examples(self):
        assert accuracy([1, 0, 1], [1, 0, 0]) == pytest.approx(2 / 3)
        assert accuracy([1, 1], [1, 1]) == 1.0

    def test_empty_or_mismatched(self):
        with pytest.raises(ShapeMismatch):
            accuracy([], [])
        with pytest.raises(ShapeMismatch):
            accuracy([1, 0], [1])


class TestEvaluateSplit:
    def test_report_shape(self, desk, monkeypatch, small_dataset, small_store):
        monkeypatch.setattr(
            E, "forward", constant_forward(0.5, 3.0)
        )
        report, rows = evaluate_split({}, desk, small_dataset, store=small_store)
        assert set(report) == {"challenge_metric", "accuracy", "mse_cpc",
                               "n_patients"}
        assert report["n_patients"] == len(small_dataset)
        assert len(rows) == len(small_dataset)
        assert [r["patient_id"] for r in rows] == sorted(small_dataset)

    def test_constant_scores_give_zero_metric(self, desk, monkeypatch,
                                              small_dataset, small_store):
        monkeypatch.setattr(E, "forward", constant_forward(0.5, 3.0))
        report, _ = evaluate_split({}, desk, small_dataset, store=small_store)
        assert report["challenge_metric"] == 0.0

    def test_patient_subset(self, desk, monkeypatch, small_dataset, small_store):
        ids = sorted(small_dataset)[:2]
        metas = [small_dataset[i][0].outcome for i in ids]
        if len(set(metas)) < 2:
            ids = [sorted(small_dataset)[0], sorted(small_dataset)[-1]]
        monkeypatch.setattr(E, "forward", constant_forward(0.5, 3.0))
        subset = {pid: small_dataset[pid] for pid in ids}
        report, rows = evaluate_split({}, desk, subset, store=small_store)
        assert report["n_patients"] == 2
        assert [r["patient_id"] for r in rows] == sorted(ids)

    @staticmethod
    def _hours_dataset():
        """Two patients, each with usable hours 0 and 1 and an unusable hour 2."""
        import dataclasses

        rng = np.random.default_rng(0)
        dataset = {}
        for pid, outcome, cpc in (("g", GOOD, 1), ("p", POOR, 4)):
            recs = [
                RawRecording(pid, h, 100.0, STANDARD_ELECTRODES,
                             rng.standard_normal((19, 30000)))
                for h in (0, 1)
            ]
            # hour 2 lacks O2, a montage electrode
            recs.append(dataclasses.replace(
                recs[0], hour_index=2, electrodes=STANDARD_ELECTRODES[:-1],
                samples=recs[0].samples[:-1],
            ))
            dataset[pid] = (PatientMeta(pid, outcome, cpc), recs)
        return dataset

    def test_cache_scores_latest_usable_hour(self, desk, monkeypatch, tmp_path, on_disk):
        def mean_forward(params, config, segment):
            return ModelOutput(poor_prob=float(segment.mean()), cpc_raw=3.0, cpc_pred=3)

        monkeypatch.setattr(E, "forward", mean_forward)
        dataset = on_disk(self._hours_dataset())
        store = build_store(dataset, tmp_path / "cache")
        assert store.hours("g") == store.hours("p") == [0, 1]
        _, cached = evaluate_split({}, desk, dataset, store=store)
        direct = [predict_patient({}, desk, dataset[pid][1]) for pid in sorted(dataset)]
        assert [r["poor_prob"] for r in cached] == [p.poor_prob for p in direct]
        assert [r["n_segments_used"] for r in cached] == [p.n_segments_used for p in direct]

    def test_patient_missing_from_store(self, desk, monkeypatch, tmp_path, on_disk):
        monkeypatch.setattr(E, "forward", constant_forward(0.5, 3.0))
        dataset = on_disk(self._hours_dataset())
        store = build_store({"g": dataset["g"]}, tmp_path / "cache")
        with pytest.raises(UnusableRecording, match="patient p"):
            evaluate_split({}, desk, dataset, store=store)

    def test_write_report(self, tmp_path):
        report = {"challenge_metric": 0.5, "accuracy": 0.75, "mse_cpc": 1.0,
                  "n_patients": 2}
        rows = [
            {"patient_id": "a", "poor_prob": 0.123456789, "outcome": GOOD,
             "cpc_pred": 1, "cpc_true": 1, "n_segments_used": 12},
        ]
        rpath, cpath = write_report(report, rows, tmp_path / "out")
        import json

        assert json.loads(rpath.read_text()) == report
        lines = cpath.read_text().strip().splitlines()
        assert lines[0].startswith("patient_id,poor_prob,outcome")
        assert "0.123457" in lines[1]


class TestEndToEndScores:
    def test_real_forward_bounds(self, desk, desk_params, small_dataset,
                                 small_store):
        report, rows = evaluate_split(desk_params, desk, small_dataset,
                                      store=small_store)
        assert 0.0 <= report["challenge_metric"] <= 1.0
        assert 0.0 <= report["accuracy"] <= 1.0
        for row in rows:
            assert 0.0 <= row["poor_prob"] <= 1.0
            assert row["cpc_pred"] in {1, 2, 3, 4, 5}
