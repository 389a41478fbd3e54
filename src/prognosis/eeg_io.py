"""Recording storage format, patient metadata, and synthetic corpus generation.

On-disk layout (one directory per patient):

    <root>/<patient_id>/patient.json
    <root>/<patient_id>/hour_<k>.hdr.json
    <root>/<patient_id>/hour_<k>.f32

The header is JSON; the signal file is raw little-endian float32,
channel-major (all samples of electrode 0, then electrode 1, ...).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import BadConfig, DataFileError, InsufficientData, NonFiniteValue, PrognosisError

SIGNAL_DTYPE = np.dtype("<f4")
FORMAT_DTYPE_TAG = "f32le"

# 10-20 referential electrodes, in canonical order.
STANDARD_ELECTRODES = (
    "Fp1", "Fp2", "F3", "F4", "F7", "F8", "Fz",
    "C3", "C4", "Cz", "T3", "T4", "T5", "T6",
    "P3", "P4", "Pz", "O1", "O2",
)

GOOD = "Good"
POOR = "Poor"


@dataclass(eq=False)
class RawRecording:
    """One hour of referential multi-channel EEG."""

    patient_id: str
    hour_index: int
    fs_hz: float
    electrodes: tuple[str, ...]
    samples: np.ndarray  # [n_electrodes, n_samples] microvolts

    def __post_init__(self):
        self.electrodes = tuple(self.electrodes)
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 2 or self.samples.shape[0] != len(self.electrodes):
            raise DataFileError(
                f"samples shape {self.samples.shape} does not match "
                f"{len(self.electrodes)} electrodes"
            )
        if not (0 < self.fs_hz <= sys.float_info.max):
            raise DataFileError(f"fs_hz must be positive and finite, got {self.fs_hz}")
        if self.samples.shape[1] < 1:
            raise DataFileError("recording has no samples")
        if self.hour_index < 0:
            raise DataFileError(f"hour_index must be >= 0, got {self.hour_index}")
        if not np.all(np.isfinite(self.samples)):
            raise NonFiniteValue(f"non-finite samples in {self.patient_id}")


@dataclass(frozen=True)
class PatientMeta:
    patient_id: str
    outcome: str  # GOOD or POOR
    cpc: int  # 1..5
    hospital: str = "synthetic"

    def __post_init__(self):
        if self.outcome not in (GOOD, POOR):
            raise DataFileError(f"outcome must be Good or Poor, got {self.outcome!r}")
        if self.cpc not in (1, 2, 3, 4, 5):
            raise DataFileError(f"cpc must be in 1..5, got {self.cpc}")
        if (self.outcome == GOOD) != (self.cpc <= 2):
            raise DataFileError(
                f"patient {self.patient_id}: outcome {self.outcome} inconsistent "
                f"with cpc {self.cpc}"
            )


@dataclass(frozen=True)
class SynthesisProfile:
    """Parameters for one synthetic patient."""

    outcome: str
    seed: int
    n_hours: int = 1
    fs_hz: float = 250.0
    burst_period_s: float = 6.0
    suppression_amplitude: float = 0.05
    oscillation_band_hz: tuple[float, float] = (8.0, 12.0)
    noise_exponent: float = 1.0

    def __post_init__(self):
        if self.outcome not in (GOOD, POOR):
            raise BadConfig(f"outcome must be Good or Poor, got {self.outcome!r}")
        if self.n_hours < 1:
            raise BadConfig(f"n_hours must be >= 1, got {self.n_hours}")
        if not (70 < self.fs_hz <= sys.float_info.max):
            raise BadConfig(
                f"fs_hz must be finite and exceed 70 so 35 Hz content is "
                f"representable, got {self.fs_hz}"
            )
        lo, hi = self.oscillation_band_hz
        if not (0 < lo < hi < self.fs_hz / 2):
            raise BadConfig(f"bad oscillation band {self.oscillation_band_hz}")


def write_recording(rec: RawRecording, directory) -> tuple[Path, Path]:
    """Write header + raw float32 signal; returns (header_path, signal_path)."""
    directory = Path(directory)
    stem = f"hour_{rec.hour_index}"
    header_path = directory / f"{stem}.hdr.json"
    signal_path = directory / f"{stem}.f32"
    header = {
        "patient_id": rec.patient_id,
        "hour_index": rec.hour_index,
        "fs_hz": rec.fs_hz,
        "electrodes": list(rec.electrodes),
        "n_samples": int(rec.samples.shape[1]),
        "signal_file": signal_path.name,
        "dtype": FORMAT_DTYPE_TAG,
    }
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(header_path, "w") as fh:
            json.dump(header, fh, indent=1)
        rec.samples.astype(SIGNAL_DTYPE).tofile(signal_path)
    except OSError as exc:
        raise DataFileError(f"cannot write recording to {directory}: {exc}") from exc
    return header_path, signal_path


def _is_name(value) -> bool:
    """A name usable as one file or directory inside another directory."""
    return (
        type(value) is str
        and value not in ("", ".", "..")
        and "\0" not in value
        and Path(value).name == value
    )


_INT = (lambda v: type(v) is int, "an int")  # JSON ints; a bool is no int
# Each header field's check and what it must be; dtype must equal FORMAT_DTYPE_TAG.
_HEADER_FIELDS = {
    "patient_id": (_is_name, "a file name"),
    "hour_index": _INT,
    "fs_hz": (
        lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max,
        "a positive finite number",
    ),
    "electrodes": (
        lambda v: type(v) is list and all(type(e) is str for e in v),
        "a list of strings",
    ),
    "n_samples": _INT,
    "signal_file": (_is_name, "a bare file name"),
}
_PATIENT_FIELDS = {"patient_id": _HEADER_FIELDS["patient_id"], "cpc": _INT}


def _read_json_object(path: Path) -> dict:
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (ValueError, OSError) as exc:
        raise DataFileError(f"{path}: {exc}") from exc
    if not isinstance(record, dict):
        raise DataFileError(f"{path}: not a JSON object")
    return record


def _check_fields(record: dict, fields: dict, path: Path) -> None:
    for key, (valid, what) in fields.items():
        if not valid(record[key]):
            raise DataFileError(f"{path}: {key} must be {what}, got {record[key]!r}")


def load_recording(header_path) -> RawRecording:
    header_path = Path(header_path)
    if not header_path.is_file():
        raise DataFileError(f"header not found: {header_path}")
    header = _read_json_object(header_path)
    fields = {*_HEADER_FIELDS, "dtype"}
    missing = fields - header.keys()
    if missing:
        raise DataFileError(f"{header_path}: missing fields {sorted(missing)}")
    unknown = header.keys() - fields
    if unknown:
        raise DataFileError(f"{header_path}: unknown fields {sorted(unknown)}")
    if header["dtype"] != FORMAT_DTYPE_TAG:
        raise DataFileError(f"{header_path}: unsupported dtype {header['dtype']!r}")
    _check_fields(header, _HEADER_FIELDS, header_path)
    signal_path = header_path.parent / header["signal_file"]
    # every failure below names the header and the signal file it points to
    where = f"{header_path}: signal file {signal_path.name}"
    if not signal_path.is_file():
        raise DataFileError(f"{where} not found")
    raw = np.fromfile(signal_path, dtype=SIGNAL_DTYPE)
    n_elec = len(header["electrodes"])
    n_samples = header["n_samples"]
    if raw.size != n_elec * n_samples:
        raise DataFileError(
            f"{where}: expected {n_elec}x{n_samples}="
            f"{n_elec * n_samples} values, found {raw.size}"
        )
    try:
        return RawRecording(
            patient_id=header["patient_id"],
            hour_index=header["hour_index"],
            fs_hz=float(header["fs_hz"]),
            electrodes=tuple(header["electrodes"]),
            samples=raw.reshape(n_elec, n_samples),
        )
    except PrognosisError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def write_patient(meta: PatientMeta, recordings, root) -> Path:
    """Write a full patient directory (metadata + all recordings)."""
    pdir = Path(root) / meta.patient_id
    try:
        pdir.mkdir(parents=True, exist_ok=True)
        with open(pdir / "patient.json", "w") as fh:
            json.dump(asdict(meta), fh, indent=1)
    except OSError as exc:
        raise DataFileError(f"cannot write patient dir {pdir}: {exc}") from exc
    for rec in recordings:
        write_recording(rec, pdir)
    return pdir


def _shaped_noise(rng: np.random.Generator, n: int, gain: np.ndarray) -> np.ndarray:
    """n samples of white noise with the rfft spectrum scaled by ``gain``, unit std."""
    x = np.fft.irfft(np.fft.rfft(rng.standard_normal(n)) * gain, n)
    return x / np.std(x)


def synthesize_patient(profile: SynthesisProfile) -> tuple[list[RawRecording], PatientMeta]:
    """Generate a labeled synthetic patient; pure function of the profile.

    Good outcome: stationary alpha-range oscillation plus 1/f noise.
    Poor outcome: burst suppression, alternating full-amplitude and
    suppressed phases of ``burst_period_s`` seconds each.
    """
    rng = np.random.default_rng(profile.seed)
    if profile.outcome == GOOD:
        cpc = int(rng.integers(1, 3))
    else:
        cpc = int(rng.integers(3, 6))
    patient_id = f"synth-{profile.outcome.lower()}-{profile.seed:05d}"
    meta = PatientMeta(patient_id=patient_id, outcome=profile.outcome, cpc=cpc)

    n = int(round(3600 * profile.fs_hz))
    freqs = np.fft.rfftfreq(n, d=1.0 / profile.fs_hz)
    lo, hi = profile.oscillation_band_hz
    band = (freqs >= lo) & (freqs <= hi)
    # 1/f^exponent power, floored below 1 Hz so power does not diverge at DC
    pink = (freqs > 0) * np.maximum(freqs, 1.0) ** (-profile.noise_exponent / 2.0)
    recordings = []
    for hour in range(profile.n_hours):
        samples = np.empty((len(STANDARD_ELECTRODES), n), dtype=np.float32)
        for e in range(len(STANDARD_ELECTRODES)):
            if profile.outcome == GOOD:
                osc = _shaped_noise(rng, n, band)
                noise = _shaped_noise(rng, n, pink)
                x = 30.0 * osc + 10.0 * noise
            else:
                base = _shaped_noise(rng, n, pink)
                t = np.arange(n) / profile.fs_hz
                phase = np.floor(t / profile.burst_period_s).astype(np.int64)
                envelope = np.where(
                    phase % 2 == 0, 1.0, profile.suppression_amplitude
                )
                x = 40.0 * base * envelope
            samples[e] = x.astype(np.float32)
        recordings.append(
            RawRecording(
                patient_id=patient_id,
                hour_index=hour,
                fs_hz=profile.fs_hz,
                electrodes=STANDARD_ELECTRODES,
                samples=samples,
            )
        )
    return recordings, meta


def load_patient(pdir) -> tuple[PatientMeta, list[RawRecording]]:
    pdir = Path(pdir)
    meta_path = pdir / "patient.json"
    if not meta_path.is_file():
        raise DataFileError(f"patient {pdir.name}: no patient.json in {pdir}")
    try:
        raw = _read_json_object(meta_path)
        _check_fields(raw, _PATIENT_FIELDS, meta_path)
        meta = PatientMeta(
            patient_id=raw["patient_id"],
            outcome=raw["outcome"],
            cpc=raw["cpc"],
            hospital=raw.get("hospital", ""),
        )
    except (DataFileError, KeyError) as exc:
        raise DataFileError(f"patient {pdir.name}: bad patient.json: {exc}") from exc
    headers = sorted(pdir.glob("*.hdr.json"))
    if not headers:
        raise InsufficientData(f"patient {pdir.name}: no recordings in {pdir}")
    recs = []
    for hp in headers:
        try:
            recs.append(load_recording(hp))
        except PrognosisError as exc:
            raise type(exc)(f"patient {pdir.name}: {exc}") from exc
        if recs[-1].patient_id != meta.patient_id:
            raise DataFileError(
                f"{hp}: patient_id {recs[-1].patient_id!r} is not the "
                f"{meta.patient_id!r} of {meta_path}"
            )
    recs.sort(key=lambda r: r.hour_index)
    return meta, recs


def load_dataset(root) -> dict[str, tuple[PatientMeta, list[RawRecording]]]:
    """Load all patients under root, keyed and ordered by patient id."""
    root = Path(root)
    if not root.is_dir():
        raise DataFileError(f"dataset root not found: {root}")
    # hidden directories are not patients (the preprocessing cache lives
    # in one next to the data)
    pdirs = sorted(
        p for p in root.iterdir() if p.is_dir() and not p.name.startswith(".")
    )
    dataset = {}
    for pdir in pdirs:
        meta, recs = load_patient(pdir)
        dataset[meta.patient_id] = (meta, recs)
    if not dataset:
        raise InsufficientData(f"no patients found under {root}")
    return dataset
