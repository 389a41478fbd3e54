"""The benchmark's workloads: inputs made from a seed, timed jobs, output checks.

Every workload has the same shape. ``setup()`` writes a synthetic corpus
made from the seed into a directory of its own and prepares the model.
``job()`` does one unit of the user's work inside ``bench.*`` phase spans,
and ``verify()`` checks what the job produced, untimed. ``samples()`` turns
the spans of one set-up or one job into samples of the end-to-end metrics,
which all workloads report under the same names:

======================  ====================  ===================  ==================
metric                  desk-train            wide                 ingest
======================  ====================  ===================  ==================
job_s                   one train.train call  open + read + write  one ingest pass
step_s                  training iteration    entry1 train step    predict_patient
infer_segment_s         desk, validation      entry4 forward       desk, prediction
corpus_open_s_per_hour  warm open             warm open            warm open
preprocess_s_per_hour   cold build, set-up    cold build, set-up   cold build
======================  ====================  ===================  ==================

Warm opens and cold builds are timed per raw hour of recordings.
``preprocess_s_per_hour`` covers ``SegmentStore.add_recording`` on a cold
cache (DSP plus the cache write); reading the raw files is part of the open.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import numpy as np

from prognosis import checkpoint, eeg_io, evaluation, model, train

GOOD_BAND_HZ = (8.0, 12.0)
BURST_PERIOD_S = 6.0
OPEN_REPEATS = 5


def synth_recording(rng, patient_id, hour, fs_hz, minutes, poor) -> eeg_io.RawRecording:
    """Good: alpha-band oscillation plus 1/f noise. Poor: burst suppression."""
    n = int(round(minutes * 60 * fs_hz))
    n_elec = len(eeg_io.STANDARD_ELECTRODES)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs_hz)

    def shaped(gain):
        x = np.fft.irfft(np.fft.rfft(rng.standard_normal((n_elec, n))) * gain, n)
        return x / x.std(axis=1, keepdims=True)

    pink_gain = np.maximum(freqs, 1.0) ** -0.5
    pink_gain[0] = 0.0
    pink = shaped(pink_gain)
    if poor:
        burst = (np.arange(n) / fs_hz // BURST_PERIOD_S) % 2 == 0
        x = 40.0 * pink * np.where(burst, 1.0, 0.05)
    else:
        lo, hi = GOOD_BAND_HZ
        x = 30.0 * shaped(((freqs >= lo) & (freqs <= hi)).astype(float)) + 10.0 * pink
    return eeg_io.RawRecording(
        patient_id, hour, fs_hz, eeg_io.STANDARD_ELECTRODES, x.astype(np.float32)
    )


def write_corpus(rng, root: Path, rates_hz, minutes: float) -> None:
    """One patient per rate, outcomes Good, Poor, Poor, Good, ..."""
    for i, fs in enumerate(rates_hz):
        poor = i % 4 in (1, 2)
        pid = f"bench-{'poor' if poor else 'good'}-{i:03d}"
        cpc = int(rng.integers(3, 6)) if poor else int(rng.integers(1, 3))
        meta = eeg_io.PatientMeta(pid, eeg_io.POOR if poor else eeg_io.GOOD, cpc)
        rec = synth_recording(rng, pid, 0, float(fs), minutes, poor)
        eeg_io.write_patient(meta, [rec], root)


def open_corpus(root: Path):
    """Read a corpus and its segment cache, as ``prognosis train`` does."""
    dataset = eeg_io.load_dataset(root)
    return dataset, train.build_store(dataset, root / ".preprocessed")


def _cache_files(root: Path) -> dict[str, tuple[int, int]]:
    return {
        str(p): (p.stat().st_mtime_ns, p.stat().st_size)
        for p in sorted((root / ".preprocessed").rglob("*.npy"))
    }


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _durations(spans, name):
    return [s.duration for s in spans if s.name == name]


class Workload:
    """A corpus of one patient per entry of RATES_HZ, MINUTES long each."""

    name = ""
    RATES_HZ: tuple[float, ...] = ()
    MINUTES = 0.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = workdir / "corpus"
        self.hours = len(self.RATES_HZ) * self.MINUTES / 60.0
        self.checks: list[tuple[str, bool]] = []

    def _write_corpus(self) -> None:
        """Drop the previous set-up's files, then write the corpus."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        write_corpus(np.random.default_rng(self.seed), self.root, self.RATES_HZ, self.MINUTES)

    def _warm_opens(self, tracer):
        for _ in range(OPEN_REPEATS):
            with tracer.span("bench.open"):
                dataset, store = open_corpus(self.root)
        return dataset, store

    def _open_samples(self, spans) -> list[float]:
        return [d / self.hours for d in _durations(spans, "bench.open")]

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def setup_samples(self, spans) -> dict[str, list[float]]:
        """Cold build of each recording during set-up, per raw hour."""
        return {"preprocess_s_per_hour": [
            s.duration / s.info for s in _named(spans, "train.add_recording")
        ]}


class DeskTrain(Workload):
    """``train.train`` on the desk preset, after warm opens of its corpus."""

    name = "desk-train"
    RATES_HZ = (250.0,) * 6
    MINUTES = 10.0
    ITERATIONS = 25
    EVAL_EVERY = 5

    def setup(self, tracer) -> None:
        self._write_corpus()
        open_corpus(self.root)
        self.model_cfg = model.preset_config("desk")
        self.train_cfg = train.TrainConfig(
            batch_size=10, learning_rate=0.001, max_iterations=self.ITERATIONS,
            eval_every=self.EVAL_EVERY, seed=self.seed,
        )
        self.first_metrics = None
        self.n_jobs = 0

    def job(self, tracer):
        self.n_jobs += 1
        dataset, store = self._warm_opens(tracer)
        with tracer.span("bench.train"):
            return train.train(dataset, store, self.model_cfg, self.train_cfg,
                               self.workdir / f"run-{self.n_jobs}")

    def verify(self, result) -> None:
        raw = result.metrics_csv.read_bytes()
        rows = raw.decode().splitlines()[1:]
        losses = [float(v) for row in rows for v in row.split(",")[1:4]]
        self.check("losses finite", len(rows) == self.ITERATIONS
                   and all(math.isfinite(v) for v in losses))
        if self.first_metrics is None:
            self.first_metrics = raw
        self.check("metrics.csv identical across runs", raw == self.first_metrics)
        cfg, params, _, _ = checkpoint.load_checkpoint(result.best_ckpt)
        self.check("best.ckpt loads", cfg == self.model_cfg
                   and all(np.isfinite(p.data).all() for p in params.values()))
        shutil.rmtree(result.run_dir)

    def samples(self, spans) -> dict[str, list[float]]:
        """Steps run from an iteration's first sample to its Adam update."""
        steps = []
        start = None
        for s in spans:
            if s.name == "train.sample_training_example" and start is None:
                start = s.start
            elif s.name == "train.adam_step" and start is not None:
                steps.append(s.end - start)
                start = None
        return {
            "job_s": _durations(spans, "bench.train"),
            "step_s": steps,
            "infer_segment_s": [
                s.duration / s.info for s in _named(spans, "train.validation_accuracy")
            ],
            "corpus_open_s_per_hour": self._open_samples(spans),
        }


class Wide(Workload):
    """Full-width conv stem: entry4 inference (reads) and entry1 steps (writes)."""

    name = "wide"
    RATES_HZ = (250.0,) * 4
    MINUTES = 5.0
    BATCH = 2

    def setup(self, tracer) -> None:
        self.entry4 = self.entry1 = self.adam = None  # free the previous set-up's
        self._write_corpus()
        open_corpus(self.root)
        self.cfg4 = model.preset_config("entry4")
        self.cfg1 = model.preset_config("entry1")
        self.entry4 = model.init_params(self.cfg4, self.seed)
        self.entry1 = model.init_params(self.cfg1, self.seed)
        tracer.register_params(self.entry4)
        tracer.register_params(self.entry1)
        self.adam = train.AdamState.fresh(self.entry1)
        self.train_cfg = train.TrainConfig(batch_size=self.BATCH, seed=self.seed)
        self.sampler = np.random.default_rng(self.seed)
        self.first_read = None

    def job(self, tracer):
        dataset, store = self._warm_opens(tracer)
        pids = sorted(dataset)
        with tracer.span("bench.read"):
            out = model.forward(self.entry4, self.cfg4, store.segments(pids[0], 0)[0])
        with tracer.span("bench.write"):
            batch = [
                train.sample_training_example(pids, store, dataset, self.sampler)
                for _ in range(self.BATCH)
            ]
            ce, mse, total = train.batch_loss_tensors(self.entry1, self.cfg1, batch)
            for p in self.entry1.values():
                p.zero_grad()
            total.backward()
            grads = {n: p.grad for n, p in self.entry1.items()}
            train.adam_step(self.entry1, grads, self.adam, self.train_cfg)
            loss = float(total.data)
            # train() keeps the previous graph alive into the next step; at
            # this width that doubles peak memory, so drop it here
            del ce, mse, total, grads
        return out, loss

    def verify(self, result) -> None:
        out, loss = result
        self.check("poor_prob in [0, 1]", 0.0 <= out.poor_prob <= 1.0)
        self.check("cpc_pred in 1..5", out.cpc_pred in (1, 2, 3, 4, 5))
        if self.first_read is None:
            self.first_read = out
        self.check("repeated segment gives identical output", out == self.first_read)
        self.check("training loss finite", math.isfinite(loss))

    def samples(self, spans) -> dict[str, list[float]]:
        phases = ("bench.open", "bench.read", "bench.write")
        return {
            "job_s": [sum(s.duration for s in spans if s.name in phases)],
            "step_s": _durations(spans, "bench.write"),
            "infer_segment_s": _durations(spans, "bench.read"),
            "corpus_open_s_per_hour": self._open_samples(spans),
        }


class Ingest(Workload):
    """Raw recordings -> cold cache -> warm open -> per-patient prediction."""

    name = "ingest"
    RATES_HZ = (250.0, 256.0, 250.0, 256.0)
    MINUTES = 5.0

    def setup(self, tracer) -> None:
        self._write_corpus()
        self.ckpt = self.workdir / "untrained.ckpt"
        cfg = model.preset_config("desk")
        checkpoint.save_checkpoint(self.ckpt, cfg, model.init_params(cfg, self.seed))

    def job(self, tracer):
        shutil.rmtree(self.root / ".preprocessed", ignore_errors=True)
        with tracer.span("bench.cold_build"):
            open_corpus(self.root)
        written = _cache_files(self.root)
        dataset, store = self._warm_opens(tracer)
        after_open = _cache_files(self.root)
        with tracer.span("bench.load_checkpoint"):
            cfg, params, _, _ = checkpoint.load_checkpoint(self.ckpt)
        preds = []
        for pid in sorted(dataset):
            with tracer.span("bench.predict"):
                preds.append(evaluation.predict_patient(params, cfg, dataset[pid][1]))
        return dataset, store, written, after_open, preds

    def verify(self, result) -> None:
        dataset, store, written, after_open, preds = result
        arrays_ok = len(written) == len(self.RATES_HZ)
        for pid in dataset:
            for hour in store.hours(pid):
                a = store.segments(pid, hour)
                arrays_ok &= (a.ndim == 3 and a.shape[0] >= 1 and a.shape[1:] == (18, 30000)
                              and float(a.min()) >= -1.0 and float(a.max()) <= 1.0)
        self.check("cache arrays [n, 18, 30000] within [-1, 1]", arrays_ok)
        self.check("warm open rewrites no cache file", written == after_open)
        self.check("one prediction per patient", len(preds) == len(self.RATES_HZ))
        for p in preds:
            self.check("poor_prob in [0, 1]", 0.0 <= p.poor_prob <= 1.0)
            self.check("cpc_pred in 1..5", p.cpc_pred in (1, 2, 3, 4, 5))
            self.check("segments used", p.n_segments_used >= 1)

    def setup_samples(self, spans) -> dict[str, list[float]]:
        return {}

    def samples(self, spans) -> dict[str, list[float]]:
        """Per pass, pooled over patients.

        The patients differ in rate (DSP cost) and in signal (the cost of
        erf in GELU depends on its argument), so per-call medians would
        jump between the groups; a pass's pooled time does not.
        """
        cold = _named(spans, "bench.cold_build")[0]
        built = [s for s in _named(spans, "train.add_recording")
                 if cold.start <= s.start and s.end <= cold.end]
        predict = _durations(spans, "bench.predict")
        infer = _named(spans, "evaluation.predict_from_segments")
        phases = ("bench.cold_build", "bench.open", "bench.load_checkpoint", "bench.predict")
        return {
            "job_s": [sum(s.duration for s in spans if s.name in phases)],
            "step_s": [sum(predict) / len(predict)],
            "infer_segment_s": [
                sum(s.duration for s in infer) / sum(s.info for s in infer)
            ],
            "corpus_open_s_per_hour": self._open_samples(spans),
            "preprocess_s_per_hour": [
                sum(s.duration for s in built) / sum(s.info for s in built)
            ],
        }


WORKLOADS = {w.name: w for w in (DeskTrain, Wide, Ingest)}
