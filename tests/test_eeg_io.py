import json

import numpy as np
import pytest

from prognosis import eeg_io
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
from prognosis.errors import BadConfig, DataFileError, InsufficientData, NonFiniteValue


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
        rec = make_recording(n_samples=1000)
        hdr, sig = write_recording(rec, tmp_path)
        samples = rec.samples.copy()
        samples[3, 7] = np.nan
        samples.tofile(sig)
        with pytest.raises(NonFiniteValue, match=sig.name):
            load_recording(hdr)

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
        in_suppression = np.floor(t / profile.burst_period_s).astype(int) % 2 == 1
        ratio = (
            np.abs(r.samples[:, in_suppression]).mean()
            / np.abs(r.samples[:, ~in_suppression]).mean()
        )
        assert ratio == pytest.approx(profile.suppression_amplitude, rel=0.2)

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
            dict(outcome=GOOD, seed=0, oscillation_band_hz=(12.0, 8.0)),
            dict(outcome=GOOD, seed=0, fs_hz=float("nan")),
            dict(outcome=GOOD, seed=0, fs_hz=float("inf")),
        ],
    )
    def test_invalid_profile(self, kwargs):
        with pytest.raises(BadConfig) as exc:
            SynthesisProfile(**kwargs)
        if "fs_hz" in kwargs:
            assert "fs_hz" in str(exc.value)


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

    def test_missing_metadata_names_patient(self, tmp_path):
        self._write_corpus(tmp_path, n_good=1, n_poor=0)
        (pdir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        (pdir / "patient.json").unlink()
        with pytest.raises(DataFileError, match=pdir.name):
            load_dataset(tmp_path)

    def test_empty_dataset(self, tmp_path):
        with pytest.raises(InsufficientData, match="no patients found"):
            load_dataset(tmp_path)
