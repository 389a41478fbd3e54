import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from prognosis import autodiff as ad
from prognosis import dsp, evaluation
from prognosis import train as T
from prognosis.autodiff import Tensor
from prognosis.eeg_io import (
    GOOD,
    POOR,
    STANDARD_ELECTRODES,
    PatientMeta,
    RawRecording,
    load_dataset,
    write_patient,
    write_recording,
)
from prognosis.errors import DataFileError, InsufficientData, ShapeMismatch, UnusableRecording
from prognosis.model import init_params, preset_config
from prognosis.train import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    mse_loss,
    sample_training_example,
    split_patients,
    total_loss,
)


class TestLosses:
    def test_ce_perfect_prediction(self):
        assert cross_entropy_loss([1.0], [1]) <= 1e-6

    def test_ce_half(self):
        assert cross_entropy_loss([0.5], [1]) == pytest.approx(math.log(2), abs=1e-6)

    def test_ce_two_examples(self):
        got = cross_entropy_loss([0.9, 0.1], [1, 0])
        assert got == pytest.approx(-math.log(0.9), abs=1e-5)

    def test_ce_empty(self):
        with pytest.raises(ShapeMismatch, match="empty"):
            cross_entropy_loss([], [])

    def test_mse_identity(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mse_single(self):
        assert mse_loss([3.0], [5.0]) == 4.0

    def test_mse_pair(self):
        assert mse_loss([1.0, 2.0], [2.0, 4.0]) == 2.5

    def test_total_is_sum(self):
        lb = total_loss(0.6931, 4.0)
        assert lb.total == pytest.approx(4.6931)
        assert lb.total >= max(lb.ce, lb.mse)
        assert total_loss(0.0, 0.0).total == 0.0

    def test_sigmoid_ce_gradient_identity(self):
        # d(CE)/d(logit) == (p - y)/N through the autodiff route
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal(8), requires_grad=True)
        y = (rng.uniform(size=8) > 0.5).astype(np.float64)
        ce = T._bce(ad.sigmoid(logits), Tensor(y))
        logits.zero_grad()
        ce.backward()
        p = 1 / (1 + np.exp(-logits.data))
        assert np.allclose(logits.grad, (p - y) / 8, atol=1e-10)


class TestAdam:
    def _params(self, value=0.0):
        return {"w": Tensor(np.array([value]), requires_grad=True)}

    def test_zero_gradient_no_move(self):
        params = self._params(1.5)
        state = AdamState.fresh(params)
        adam_step(params, {"w": np.zeros(1)}, state, TrainConfig())
        assert params["w"].data[0] == 1.5

    def test_first_step_magnitude(self):
        params = self._params(0.0)
        state = AdamState.fresh(params)
        cfg = TrainConfig(learning_rate=0.1)
        adam_step(params, {"w": np.ones(1)}, state, cfg)
        assert abs(params["w"].data[0] + 0.1) <= 1e-6

    def test_bounded_step_constant_gradient(self):
        params = self._params(0.0)
        state = AdamState.fresh(params)
        cfg = TrainConfig(learning_rate=0.01)
        prev = params["w"].data[0]
        for _ in range(20):
            adam_step(params, {"w": np.full(1, 3.0)}, state, cfg)
            step = abs(params["w"].data[0] - prev)
            assert step <= cfg.learning_rate * (1 + 1e-6)
            prev = params["w"].data[0]

    def test_determinism(self):
        def run():
            params = self._params(0.0)
            state = AdamState.fresh(params)
            rng = np.random.default_rng(1)
            for _ in range(10):
                adam_step(params, {"w": rng.standard_normal(1)}, state,
                          TrainConfig(learning_rate=0.05))
            return params["w"].data[0]

        assert run() == run()

    def test_shape_mismatch(self):
        params = self._params()
        state = AdamState.fresh(params)
        with pytest.raises(ShapeMismatch, match="grad"):
            adam_step(params, {"w": np.zeros(3)}, state, TrainConfig())


def fake_dataset(n_good, n_poor):
    out = {}
    for i in range(n_good):
        pid = f"g{i:02d}"
        out[pid] = (PatientMeta(pid, GOOD, 1), [])
    for i in range(n_poor):
        pid = f"p{i:02d}"
        out[pid] = (PatientMeta(pid, POOR, 4), [])
    return out


class TestSplit:
    def test_counts_and_disjoint(self):
        dataset = fake_dataset(5, 5)
        train_ids, val_ids = split_patients(dataset, 0.8, seed=0)
        assert len(train_ids) == 8 and len(val_ids) == 2
        assert not set(train_ids) & set(val_ids)
        assert set(train_ids) | set(val_ids) == set(dataset)

    def test_seed_determinism(self):
        dataset = fake_dataset(6, 6)
        assert split_patients(dataset, 0.8, 3) == split_patients(dataset, 0.8, 3)
        different = [
            split_patients(dataset, 0.8, s) != split_patients(dataset, 0.8, 3)
            for s in range(20)
        ]
        assert any(different)

    def test_partition_property_many_seeds(self):
        dataset = fake_dataset(7, 4)
        for seed in range(100):
            train_ids, val_ids = split_patients(dataset, 0.7, seed)
            assert not set(train_ids) & set(val_ids)
            assert set(train_ids) | set(val_ids) == set(dataset)

    def test_stratified(self):
        dataset = fake_dataset(5, 5)
        for seed in range(20):
            train_ids, val_ids = split_patients(dataset, 0.8, seed)
            for ids in (train_ids, val_ids):
                outcomes = {dataset[i][0].outcome for i in ids}
                assert outcomes == {GOOD, POOR}

    def test_too_few(self):
        with pytest.raises(InsufficientData, match="need >= 2 patients"):
            split_patients(fake_dataset(1, 0), 0.8, 0)


class StubStore:
    """Minimal store double for sampler statistics."""

    def __init__(self, n_hours=2, n_segments=3):
        self._hours = list(range(n_hours))
        self._segs = np.zeros((n_segments, 2, 4), dtype=np.float32)

    def hours(self, pid):
        return self._hours

    def segments(self, pid, hour):
        return self._segs


class TestSampler:
    def test_segment_shape_real_store(self, small_dataset, small_store):
        train_ids = sorted(small_dataset)
        rng = np.random.default_rng(0)
        ex = sample_training_example(train_ids, small_store, small_dataset, rng)
        assert ex.segment_data.shape == (18, 30000)
        assert ex.y in (0, 1) and ex.x in {1, 2, 3, 4, 5}
        meta = small_dataset[ex.patient_id][0]
        assert ex.y == (1 if meta.outcome == POOR else 0)
        assert ex.x == meta.cpc

    def test_reproducible_sequence(self, small_dataset, small_store):
        ids = sorted(small_dataset)

        def draw():
            rng = np.random.default_rng(42)
            return [
                sample_training_example(ids, small_store, small_dataset, rng).patient_id
                for _ in range(20)
            ]

        assert draw() == draw()

    def test_uniform_over_patients(self):
        dataset = fake_dataset(2, 2)
        ids = sorted(dataset)
        store = StubStore()
        rng = np.random.default_rng(7)
        counts = {pid: 0 for pid in ids}
        n = 10000
        for _ in range(n):
            ex = sample_training_example(ids, store, dataset, rng)
            counts[ex.patient_id] += 1
        for pid in ids:
            assert 0.2 <= counts[pid] / n <= 0.3

    def test_empty_split(self):
        with pytest.raises(InsufficientData, match="no patients in split"):
            sample_training_example([], StubStore(), {}, np.random.default_rng(0))


class TestStore:
    def test_unusable_hour_names_patient(self, one_hour_recording, tmp_path):
        import dataclasses

        rec = one_hour_recording
        keep = [i for i, e in enumerate(rec.electrodes) if e != "Cz"]
        broken = dataclasses.replace(
            rec,
            electrodes=tuple(rec.electrodes[i] for i in keep),
            samples=rec.samples[keep],
        )
        meta = PatientMeta(rec.patient_id, GOOD, 1)
        with pytest.raises(UnusableRecording, match=rec.patient_id):
            T.build_store({rec.patient_id: (meta, [broken])}, tmp_path)
        assert not list(tmp_path.rglob("*.npy"))

    def test_unusable_hour_skipped(self, one_hour_recording, tmp_path):
        import dataclasses

        rec = one_hour_recording
        keep = [i for i, e in enumerate(rec.electrodes) if e != "Cz"]
        broken = dataclasses.replace(
            rec,
            hour_index=1,
            electrodes=tuple(rec.electrodes[i] for i in keep),
            samples=rec.samples[keep],
        )
        meta = PatientMeta(rec.patient_id, GOOD, 1)
        store = T.build_store({rec.patient_id: (meta, [rec, broken])}, tmp_path)
        assert store.hours(rec.patient_id) == [0]
        assert store.skipped == [f"patient {rec.patient_id}, hour 1: Cz"]
        assert [p.name for p in tmp_path.rglob("*.npy")] == ["hour_0.npy"]

    def test_interrupted_write_leaves_no_cache_file(
        self, one_hour_recording, tmp_path, monkeypatch
    ):
        real_save = np.save

        def failing_save(file, arr):
            real_save(file, arr[:1])  # a valid file holding part of the data
            raise OSError("disk full")

        store = T.SegmentStore(tmp_path)
        monkeypatch.setattr(np, "save", failing_save)
        with pytest.raises(DataFileError, match="disk full"):
            store.add_recording(one_hour_recording)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        with pytest.raises(UnusableRecording, match=one_hour_recording.patient_id):
            store.hours(one_hour_recording.patient_id)

        monkeypatch.setattr(np, "save", real_save)
        store.add_recording(one_hour_recording)
        segs = store.segments(one_hour_recording.patient_id, 0)
        assert segs.shape == (12, 18, 30000)

    @pytest.mark.parametrize("consumer", [
        lambda store, dataset: T.sample_training_example(
            ["b"], store, dataset, np.random.default_rng(0)),
        lambda store, dataset: T.select_validation_segments(["a", "b"], store, dataset, 0),
        lambda store, dataset: evaluation.evaluate_split(
            init_params(preset_config("desk"), seed=0), preset_config("desk"), dataset, store),
    ], ids=["sample", "validation", "evaluate"])
    def test_patient_without_cached_hour_is_unusable(self, tmp_path, consumer):
        dataset = {pid: (PatientMeta(pid, GOOD, 1), [five_minute_recording(pid, i)])
                   for i, pid in enumerate("ab")}
        store = T.build_store({"a": dataset["a"]}, tmp_path)
        with pytest.raises(UnusableRecording, match="patient b: no cached hour"):
            consumer(store, dataset)

    def test_truncated_cache_file_is_a_data_error(self, one_hour_recording, tmp_path):
        store = T.SegmentStore(tmp_path)
        store.add_recording(one_hour_recording)
        path = store._path(one_hour_recording.patient_id, 0)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(DataFileError, match=re.escape(str(path))):
            store.segments(one_hour_recording.patient_id, 0)


def five_minute_recording(pid: str, seed: int) -> RawRecording:
    """One segment of random samples at the target rate."""
    samples = np.random.default_rng(seed).standard_normal((19, 30000)).astype(np.float32)
    return RawRecording(pid, 0, dsp.TARGET_FS_HZ, STANDARD_ELECTRODES, samples)


def no_cz_and_short(rec: RawRecording) -> list[RawRecording]:
    """``rec`` without Cz as hour 0, and one sample short of a segment as hour 1."""
    keep = [i for i, e in enumerate(rec.electrodes) if e != "Cz"]
    no_cz = dataclasses.replace(
        rec, electrodes=tuple(rec.electrodes[i] for i in keep), samples=rec.samples[keep]
    )
    return [no_cz, dataclasses.replace(rec, hour_index=1, samples=rec.samples[:, :29999])]


def write_five_minute_corpus(root, n_patients: int) -> None:
    for i in range(n_patients):
        pid = f"p{i}"
        write_patient(PatientMeta(pid, GOOD, 1), [five_minute_recording(pid, i)], root)


def cache_versions(cache) -> dict:
    return {str(p): (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in sorted(cache.rglob("*")) if p.is_file()}


class TestCacheFingerprint:
    def test_rewritten_recording_rebuilds_its_hour(self, tmp_path):
        root, cache = tmp_path / "data", tmp_path / "cache"
        write_five_minute_corpus(root, 1)
        T.build_store(load_dataset(root), cache)
        write_recording(five_minute_recording("p0", seed=99), root / "p0")
        T.build_store(load_dataset(root), cache)
        T.build_store(load_dataset(root), tmp_path / "fresh")
        rebuilt = (cache / "p0" / "hour_0.npy").read_bytes()
        assert rebuilt == (tmp_path / "fresh" / "p0" / "hour_0.npy").read_bytes()

    @pytest.mark.parametrize("cut", [".npy", ".key"])
    def test_cut_rebuild_is_rebuilt(self, tmp_path, monkeypatch, cut):
        root, cache, fresh = tmp_path / "data", tmp_path / "cache", tmp_path / "fresh"
        write_five_minute_corpus(root, 1)
        T.build_store(load_dataset(root), cache)
        old = (cache / "p0" / "hour_0.npy").read_bytes()
        write_recording(five_minute_recording("p0", seed=99), root / "p0")
        real_write_file = T.write_file

        def disk_full(fh):
            raise OSError("disk full")

        def cut_write(path, what, write, mode="w"):
            return real_write_file(path, what, disk_full if path.suffix == cut else write, mode)

        with monkeypatch.context() as m:
            m.setattr(T, "write_file", cut_write)
            with pytest.raises(DataFileError, match="disk full"):
                T.build_store(load_dataset(root), cache)
        # a cut key write leaves the new .npy beside the old key
        assert ((cache / "p0" / "hour_0.npy").read_bytes() == old) == (cut == ".npy")
        T.build_store(load_dataset(root), cache)
        T.build_store(load_dataset(root), fresh)
        for name in ("hour_0.npy", "hour_0.key"):
            assert (cache / "p0" / name).read_bytes() == (fresh / "p0" / name).read_bytes()

    def test_cache_file_without_key_is_rebuilt(self, tmp_path):
        root, cache = tmp_path / "data", tmp_path / "cache"
        write_five_minute_corpus(root, 1)
        T.build_store(load_dataset(root), cache)
        good = (cache / "p0" / "hour_0.npy").read_bytes()
        (cache / "p0" / "hour_0.key").unlink()
        np.save(cache / "p0" / "hour_0.npy", np.zeros((1, 18, 30000), dtype=np.float32))
        T.build_store(load_dataset(root), cache)
        assert (cache / "p0" / "hour_0.npy").read_bytes() == good
        assert (cache / "p0" / "hour_0.key").is_file()

    def test_warm_opens_rewrite_nothing(self, tmp_path):
        root, cache = tmp_path / "data", tmp_path / "cache"
        write_five_minute_corpus(root, 2)
        T.build_store(load_dataset(root), cache)
        built = cache_versions(cache)
        assert len(built) == 4  # a .npy and its .key per hour
        for _ in range(2):
            T.build_store(load_dataset(root), cache)
            assert cache_versions(cache) == built

    def test_warm_open_reads_no_samples(self, tmp_path):
        root, cache = tmp_path / "data", tmp_path / "cache"
        write_five_minute_corpus(root, 4)
        T.build_store(load_dataset(root), cache)
        signal_bytes = sum(p.stat().st_size for p in root.rglob("*.f32"))
        tracemalloc.start()
        try:
            T.build_store(load_dataset(root), cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * signal_bytes

    @pytest.mark.parametrize(
        "unusable, message",
        [
            pytest.param(no_cz_and_short, "hour 0: Cz; patient p0, hour 1: need >= 30000",
                         id="montage-and-length"),
            # a segment's worth of samples at either rate, so only the rate rule fails
            pytest.param(lambda rec: [dataclasses.replace(
                rec, fs_hz=60.0, samples=np.tile(rec.samples, 3))],
                "hour 0: rate 60.0 Hz: need above 70.0 Hz", id="60Hz"),
            pytest.param(lambda rec: [dataclasses.replace(
                rec, fs_hz=250.00003, samples=np.tile(rec.samples, 3))],
                "hour 0: rate 250.00003 Hz: need above 70.0 Hz and a ratio to 100.0 Hz "
                "with denominator <= 10000", id="250.00003Hz"),
        ],
    )
    def test_unusable_hours_skipped_before_dsp(self, tmp_path, monkeypatch, unusable, message):
        def no_dsp(*args):
            raise AssertionError("an unusable hour reached the filter")

        monkeypatch.setattr(dsp, "filter_signal", no_dsp)
        recs = unusable(five_minute_recording("p0", 0))
        dataset = {"p0": (PatientMeta("p0", GOOD, 1), recs)}
        message = f"patient p0: no usable hour: patient p0, {message}"
        with pytest.raises(UnusableRecording, match=re.escape(message)):
            T.build_store(dataset, tmp_path)

    def test_unusable_rates_skipped_unread(self, mixed_rate_dataset, tmp_path):
        store = T.build_store(mixed_rate_dataset, tmp_path / "cache")
        assert store.hours("p0") == [0]
        assert [m.split(": need")[0] for m in store.skipped] == [
            "patient p0, hour 1: rate 60.0 Hz", "patient p0, hour 2: rate 250.00003 Hz",
        ]
        assert sorted(p.name for p in (tmp_path / "cache").rglob("*")) == [
            "hour_0.key", "hour_0.npy", "p0",
        ]


class TestTrainLoop:
    def test_single_class_rejected(self, small_store, tmp_path):
        dataset = fake_dataset(3, 0)
        cfg = preset_config("desk")
        with pytest.raises(InsufficientData, match="dataset contains only"):
            T.train(dataset, small_store, cfg, TrainConfig(max_iterations=1),
                    tmp_path / "run")

    def test_unusable_run_dir_fails_before_training(
        self, small_dataset, small_store, tmp_path, monkeypatch
    ):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(T, "sample_training_example", no_training)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(DataFileError, match=re.escape(str(blocker / "run"))):
            T.train(small_dataset, small_store, preset_config("desk"),
                    TrainConfig(max_iterations=1), blocker / "run")

    def test_smoke_and_determinism(self, small_dataset, small_store, tmp_path):
        cfg = preset_config("desk")
        tc = TrainConfig(max_iterations=8, eval_every=4, seed=5, batch_size=2,
                         split_ratio=0.5)
        r1 = T.train(small_dataset, small_store, cfg, tc, tmp_path / "a")
        r2 = T.train(small_dataset, small_store, cfg, tc, tmp_path / "b")
        m1 = (tmp_path / "a" / "metrics.csv").read_bytes()
        m2 = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert m1 == m2
        assert r1.best_ckpt.is_file() and r1.last_ckpt.is_file()
        lines = m1.decode().strip().splitlines()
        assert lines[0] == "iteration,ce,mse,total,val_accuracy"
        assert len(lines) == 9
        # eval rows carry an accuracy; others leave it blank
        assert lines[4].split(",")[4] != ""
        assert lines[1].split(",")[4] == ""
        assert (tmp_path / "a" / "manifest.json").is_file()

    def test_best_accuracy_is_max_logged(self, small_dataset, small_store, tmp_path):
        cfg = preset_config("desk")
        tc = TrainConfig(max_iterations=6, eval_every=2, seed=1, batch_size=2,
                         split_ratio=0.5)
        res = T.train(small_dataset, small_store, cfg, tc, tmp_path / "run")
        accs = []
        for line in (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]:
            field = line.split(",")[4]
            if field:
                accs.append(float(field))
        assert res.best_val_accuracy == max(accs)
