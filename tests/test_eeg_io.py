import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prognosis import dsp, eeg_io
from prognosis.eeg_io import (
    GOOD,
    POOR,
    PatientMeta,
    RawRecording,
    SynthesisProfile,
    load_dataset,
    load_recording,
    synthesize_patient,
    write_patient,
    write_recording,
)
from prognosis.errors import (
    BadConfig,
    DataFileError,
    InsufficientData,
    NonFiniteValue,
    UnusableRecording,
)


def make_recording(n_elec=19, n_samples=1000, seed=0):
    rng = np.random.default_rng(seed)
    return RawRecording(
        patient_id="p1",
        hour_index=0,
        fs_hz=250.0,
        electrodes=eeg_io.STANDARD_ELECTRODES[:n_elec],
        samples=rng.standard_normal((n_elec, n_samples)).astype(np.float32),
    )


class TestRecordingRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        rec = make_recording()
        hdr, _ = write_recording(rec, tmp_path)
        back = load_recording(hdr)
        assert back.patient_id == rec.patient_id
        assert back.hour_index == rec.hour_index
        assert back.fs_hz == rec.fs_hz
        assert back.electrodes == rec.electrodes
        assert back.samples.dtype == np.float32
        assert np.array_equal(back.samples, rec.samples)

    def test_shape_contract(self, tmp_path):
        rec = make_recording(n_elec=19, n_samples=1000)
        hdr, _ = write_recording(rec, tmp_path)
        assert load_recording(hdr).samples.shape == (19, 1000)

    def test_signal_file_size(self, tmp_path):
        rec = RawRecording(
            patient_id="p", hour_index=0, fs_hz=100.0,
            electrodes=("Cz",), samples=np.zeros((1, 5), dtype=np.float32),
        )
        _, sig = write_recording(rec, tmp_path)
        assert sig.stat().st_size == 20

    def test_truncated_signal(self, tmp_path):
        rec = make_recording(n_samples=1000)
        hdr, sig = write_recording(rec, tmp_path)
        data = sig.read_bytes()
        sig.write_bytes(data[:-4])  # drop one sample: 19x999 + 18 values
        with pytest.raises(DataFileError, match="expected 19x1000=19000 values"):
            load_recording(hdr)

    def test_non_finite_signal_names_file(self, tmp_path):
        # one segment long, so preprocess gets as far as reading the samples
        rec = make_recording(n_samples=75000)
        hdr, sig = write_recording(rec, tmp_path)
        samples = rec.samples.copy()
        samples[3, 7] = np.nan
        samples.tofile(sig)
        loaded = load_recording(hdr)  # the open reads no samples, so it succeeds
        with pytest.raises(NonFiniteValue, match=sig.name):
            dsp.preprocess(loaded)

    def test_trailing_bytes_rejected(self, tmp_path):
        hdr, sig = write_recording(make_recording(n_samples=1000), tmp_path)
        with open(sig, "ab") as fh:
            fh.write(b"\0\0")
        with pytest.raises(DataFileError, match=f"{sig.name}.*found 76002 bytes"):
            load_recording(hdr)

    @pytest.mark.parametrize("n_elec", [19, 0])
    def test_samples_read_on_use(self, tmp_path, n_elec):
        rec = make_recording(n_elec=n_elec, n_samples=1000)
        hdr, sig = write_recording(rec, tmp_path)
        loaded = load_recording(hdr)
        assert loaded.samples.shape == (n_elec, 1000) and loaded.samples.ndim == 2
        assert np.array_equal(np.asarray(loaded.samples, dtype=np.float64), rec.samples)
        write_recording(rec, tmp_path)  # the same bytes, as a new file
        with pytest.raises(DataFileError, match="changed since the corpus was opened"):
            np.asarray(loaded.samples)

    @pytest.mark.parametrize("fs_hz", [float("nan"), float("inf"), 0.0, -250.0])
    def test_bad_rate_rejected(self, fs_hz):
        with pytest.raises(DataFileError, match="fs_hz must be positive and finite"):
            RawRecording("p", 0, fs_hz, ("Cz",), np.zeros((1, 5)))

    def test_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        with pytest.raises(DataFileError, match="cannot write recording"):
            write_recording(make_recording(), blocker / "sub")

    def test_missing_header(self, tmp_path):
        with pytest.raises(DataFileError, match="header not found"):
            load_recording(tmp_path / "nope.hdr.json")

    def test_malformed_header_unknown_field(self, tmp_path):
        rec = make_recording()
        hdr, _ = write_recording(rec, tmp_path)
        header = json.loads(hdr.read_text())
        header["surprise"] = 1
        hdr.write_text(json.dumps(header))
        with pytest.raises(DataFileError, match="unknown fields"):
            load_recording(hdr)

    def test_malformed_header_missing_field(self, tmp_path):
        rec = make_recording()
        hdr, _ = write_recording(rec, tmp_path)
        header = json.loads(hdr.read_text())
        del header["fs_hz"]
        hdr.write_text(json.dumps(header))
        with pytest.raises(DataFileError, match="missing fields"):
            load_recording(hdr)


class TestPatientMeta:
    def test_consistent(self):
        PatientMeta("p", GOOD, 1)
        PatientMeta("p", POOR, 5)

    @pytest.mark.parametrize("outcome,cpc", [(GOOD, 3), (POOR, 2), (POOR, 1)])
    def test_inconsistent_rejected(self, outcome, cpc):
        with pytest.raises(DataFileError, match="inconsistent with cpc"):
            PatientMeta("p", outcome, cpc)

    def test_bad_cpc(self):
        with pytest.raises(DataFileError, match="cpc must be in 1..5"):
            PatientMeta("p", GOOD, 0)


class TestSynthesis:
    def test_seeded_determinism(self):
        profile = SynthesisProfile(outcome=POOR, seed=7, fs_hz=80.0)
        recs1, meta1 = synthesize_patient(profile)
        recs2, meta2 = synthesize_patient(profile)
        assert meta1 == meta2
        assert np.array_equal(recs1[0].samples, recs2[0].samples)

    def test_poor_suppression_ratio(self):
        profile = SynthesisProfile(outcome=POOR, seed=3, fs_hz=100.0)
        recs, _ = synthesize_patient(profile)
        r = recs[0]
        t = np.arange(r.samples.shape[1]) / r.fs_hz
        in_suppression = np.floor(t / eeg_io.BURST_PERIOD_S).astype(int) % 2 == 1
        ratio = (
            np.abs(r.samples[:, in_suppression]).mean()
            / np.abs(r.samples[:, ~in_suppression]).mean()
        )
        assert ratio == pytest.approx(eeg_io.SUPPRESSION_AMPLITUDE, rel=0.2)

    def test_good_psd_peak_in_band(self):
        profile = SynthesisProfile(outcome=GOOD, seed=4, fs_hz=200.0)
        recs, _ = synthesize_patient(profile)
        for electrode_signal in recs[0].samples[:3]:
            freqs = np.fft.rfftfreq(electrode_signal.size, d=1.0 / profile.fs_hz)
            power = np.abs(np.fft.rfft(electrode_signal)) ** 2
            peak = freqs[np.argmax(power)]
            assert 8.0 <= peak <= 12.0

    def test_labels_match_outcome(self):
        for seed in range(5):
            _, meta = synthesize_patient(
                SynthesisProfile(outcome=GOOD, seed=seed, fs_hz=80.0)
            )
            assert meta.cpc in (1, 2)
            _, meta = synthesize_patient(
                SynthesisProfile(outcome=POOR, seed=seed, fs_hz=80.0)
            )
            assert meta.cpc in (3, 4, 5)

    def test_n_hours_and_electrodes(self):
        recs, _ = synthesize_patient(
            SynthesisProfile(outcome=GOOD, seed=1, n_hours=2, fs_hz=80.0)
        )
        assert len(recs) == 2
        assert recs[0].electrodes == eeg_io.STANDARD_ELECTRODES
        assert recs[1].hour_index == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(outcome="Middling", seed=0),
            dict(outcome=GOOD, seed=0, n_hours=0),
            dict(outcome=GOOD, seed=0, fs_hz=50.0),
            dict(outcome=GOOD, seed=0, fs_hz=float("nan")),
            dict(outcome=GOOD, seed=0, fs_hz=float("inf")),
            dict(outcome=GOOD, seed=0, fs_hz=70.0),
            dict(outcome=GOOD, seed=0, fs_hz=250.00003),
        ],
    )
    def test_invalid_profile(self, kwargs):
        with pytest.raises(BadConfig) as exc:
            SynthesisProfile(**kwargs)
        if "fs_hz" in kwargs:
            assert "fs_hz" in str(exc.value)

    @given(fs_hz=st.one_of(st.integers(1, 10**6).map(float), st.floats(1e-3, 1e7)))
    @example(fs_hz=60.0)
    @example(fs_hz=70.0)
    @example(fs_hz=80.0)
    @example(fs_hz=100.0)
    @example(fs_hz=250.0)
    @example(fs_hz=250.00003)
    @example(fs_hz=256.0)
    @settings(max_examples=200, deadline=None)
    def test_profile_takes_exactly_the_rates_preprocess_takes(self, fs_hz):
        # samples for one segment at any rate, on zeros that allocate nothing
        n = int(np.ceil(dsp.SEGMENT_SAMPLES * fs_hz / dsp.TARGET_FS_HZ)) + 1
        rec = RawRecording("p", 0, fs_hz, eeg_io.STANDARD_ELECTRODES,
                           np.broadcast_to(np.float32(0), (19, n)))
        try:
            dsp.require_usable(rec)
            refused = None
        except UnusableRecording as exc:
            refused = str(exc)
        if refused is None:
            SynthesisProfile(outcome=GOOD, seed=0, fs_hz=fs_hz)
        else:
            assert f"rate {fs_hz} Hz" in refused
            with pytest.raises(BadConfig, match="fs_hz"):
                SynthesisProfile(outcome=GOOD, seed=0, fs_hz=fs_hz)


class TestDataset:
    def _write_corpus(self, root, n_good=2, n_poor=1):
        for i in range(n_good):
            recs, meta = synthesize_patient(
                SynthesisProfile(outcome=GOOD, seed=i, fs_hz=80.0)
            )
            write_patient(meta, recs, root)
        for i in range(n_poor):
            recs, meta = synthesize_patient(
                SynthesisProfile(outcome=POOR, seed=100 + i, fs_hz=80.0)
            )
            write_patient(meta, recs, root)

    def test_count_and_order(self, tmp_path):
        self._write_corpus(tmp_path)
        dataset = load_dataset(tmp_path)
        assert len(dataset) == 3
        assert list(dataset) == sorted(dataset)

    def test_metadata_round_trip(self, tmp_path):
        recs, meta = synthesize_patient(
            SynthesisProfile(outcome=POOR, seed=9, fs_hz=80.0)
        )
        write_patient(meta, recs, tmp_path)
        loaded_meta, loaded_recs = load_dataset(tmp_path)[meta.patient_id]
        assert loaded_meta == meta
        assert len(loaded_recs) == len(recs)
        assert np.array_equal(loaded_recs[0].samples, recs[0].samples)

    def test_patient_json_with_hospital_loads(self, tmp_path):
        meta = PatientMeta("p1", GOOD, 1)
        write_patient(meta, [make_recording()], tmp_path)
        path = tmp_path / "p1" / "patient.json"
        assert set(json.loads(path.read_text())) == {"patient_id", "outcome", "cpc"}
        path.write_text(json.dumps({**json.loads(path.read_text()), "hospital": "synthetic"}))
        assert load_dataset(tmp_path)["p1"][0] == meta

    def test_patient_without_recordings_is_unusable(self, tmp_path):
        write_patient(PatientMeta("p1", GOOD, 1), [], tmp_path)
        with pytest.raises(UnusableRecording, match="patient p1: no recordings"):
            load_dataset(tmp_path)

    def test_missing_metadata_names_patient(self, tmp_path):
        self._write_corpus(tmp_path, n_good=1, n_poor=0)
        (pdir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        (pdir / "patient.json").unlink()
        with pytest.raises(DataFileError, match=pdir.name):
            load_dataset(tmp_path)

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc")
    def test_open_keeps_no_file_per_recording(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(8):
            recs = [
                RawRecording(f"p{i}", hour, 100.0, eeg_io.STANDARD_ELECTRODES,
                             rng.standard_normal((19, 10)).astype(np.float32))
                for hour in range(5)
            ]
            write_patient(PatientMeta(f"p{i}", GOOD, 1), recs, tmp_path)
        before = len(os.listdir("/proc/self/fd"))
        dataset = load_dataset(tmp_path)
        assert sum(len(recs) for _, recs in dataset.values()) == 40
        assert len(os.listdir("/proc/self/fd")) == before
        for _, recs in dataset.values():
            for rec in recs:
                np.asarray(rec.samples)  # a read keeps nothing open either
        assert len(os.listdir("/proc/self/fd")) == before
        assert str(tmp_path) not in Path("/proc/self/maps").read_text()

    def test_empty_dataset(self, tmp_path):
        with pytest.raises(InsufficientData, match="no patients found"):
            load_dataset(tmp_path)
