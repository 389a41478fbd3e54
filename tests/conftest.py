import numpy as np
import pytest

from prognosis import eeg_io
from prognosis import train as train_mod


@pytest.fixture(scope="session")
def small_dataset():
    """2 Good + 2 Poor synthetic patients, one hour each, native 250 Hz."""
    dataset = {}
    for i in range(2):
        recs, meta = eeg_io.synthesize_patient(
            eeg_io.SynthesisProfile(outcome=eeg_io.GOOD, seed=10 + i)
        )
        dataset[meta.patient_id] = (meta, recs)
    for i in range(2):
        recs, meta = eeg_io.synthesize_patient(
            eeg_io.SynthesisProfile(outcome=eeg_io.POOR, seed=100010 + i)
        )
        dataset[meta.patient_id] = (meta, recs)
    return dataset


@pytest.fixture(scope="session")
def small_store(small_dataset, tmp_path_factory):
    cache = tmp_path_factory.mktemp("segment-cache")
    return train_mod.build_store(small_dataset, cache)


@pytest.fixture(scope="session")
def one_hour_recording(small_dataset):
    pid = sorted(small_dataset)[0]
    return small_dataset[pid][1][0]


MIXED_RATES_HZ = (250.0, 60.0, 250.00003)  # hour 0 usable; 1 and 2 unusable rates


@pytest.fixture
def mixed_rate_corpus(tmp_path):
    """Patient p0 on disk: hour 0 one segment long at 250 Hz, hour 1 at 60 Hz
    (the 35 Hz band edge is above Nyquist), hour 2 at 250.00003 Hz (no
    ratio to 100 Hz with denominator <= 10000)."""
    root = tmp_path / "data"
    rng = np.random.default_rng(0)
    recs = [
        eeg_io.RawRecording("p0", hour, fs, eeg_io.STANDARD_ELECTRODES,
                            rng.standard_normal((19, 75000)).astype(np.float32))
        for hour, fs in enumerate(MIXED_RATES_HZ)
    ]
    eeg_io.write_patient(eeg_io.PatientMeta("p0", eeg_io.GOOD, 1), recs, root)
    return root


@pytest.fixture
def mixed_rate_dataset(mixed_rate_corpus):
    """``mixed_rate_corpus`` opened, then the signal files of hours 1 and 2
    deleted: reading any sample of those hours fails."""
    dataset = eeg_io.load_dataset(mixed_rate_corpus)
    for hour in (1, 2):
        (mixed_rate_corpus / "p0" / f"hour_{hour}.f32").unlink()
    return dataset
