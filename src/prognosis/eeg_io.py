"""Recording storage format, patient metadata, and synthetic corpus generation.

On-disk layout (one directory per patient):

    <root>/<patient_id>/patient.json
    <root>/<patient_id>/hour_<k>.hdr.json
    <root>/<patient_id>/hour_<k>.f32

The header is JSON; the signal file is raw little-endian float32,
channel-major (all samples of electrode 0, then electrode 1, ...).

Opening a recording parses its header and checks the signal file's size;
the samples are read only when something converts them to an array.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .errors import BadConfig, DataFileError, InsufficientData, PrognosisError, UnusableRecording

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


def _file_version(st: os.stat_result) -> tuple[int, int, int]:
    """Inode, size and modification time: ``write_file`` gives a replaced file
    a new inode, so a rewrite changes this even within one mtime tick."""
    return st.st_ino, st.st_size, st.st_mtime_ns


@dataclass(frozen=True, eq=False)
class SignalFile:
    """The samples of a recording on disk, read on each use and never kept.

    ``shape``, ``dtype`` and ``ndim`` come from the header and cost nothing.
    ``np.asarray`` maps the file, copies it out and drops the mapping, so an
    open corpus holds no file descriptor or mapping per recording.
    ``header_sha256`` and ``version`` are what ``load_recording`` saw; a file
    replaced since then is refused rather than read as the old recording.
    """

    path: Path
    shape: tuple[int, int]
    header_sha256: str
    version: tuple[int, int, int]
    dtype = SIGNAL_DTYPE
    ndim = 2

    def __array__(self, dtype=None, copy=None):  # always a fresh copy
        try:
            if _file_version(self.path.stat()) != self.version:
                raise DataFileError(f"{self.path}: changed since the corpus was opened")
            if not self.shape[0]:  # no electrodes: mmap refuses an empty file
                return np.zeros(self.shape, dtype or SIGNAL_DTYPE)
            mapped = np.memmap(self.path, dtype=SIGNAL_DTYPE, mode="r", shape=self.shape)
        except (OSError, ValueError) as exc:
            raise DataFileError(f"{self.path}: {exc}") from exc
        return np.array(mapped, dtype=dtype)


@dataclass(eq=False)
class RawRecording:
    """One hour of referential multi-channel EEG.

    Non-finite samples are not checked here but by ``dsp.filter_signal``,
    the one scan every DSP input gets, at use.
    """

    patient_id: str
    hour_index: int
    fs_hz: float
    electrodes: tuple[str, ...]
    samples: np.ndarray | SignalFile  # [n_electrodes, n_samples] microvolts

    def __post_init__(self):
        self.electrodes = tuple(self.electrodes)
        if not isinstance(self.samples, SignalFile):
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


def source_key(rec: RawRecording) -> dict:
    """What ``rec``'s samples and facts were read from: for a recording on
    disk, its header bytes and its signal file's inode, size and mtime; for
    one in memory, its facts and the sha256 of its samples."""
    if isinstance(rec.samples, SignalFile):
        return {"header_sha256": rec.samples.header_sha256,
                "signal_file": rec.samples.version}
    samples = np.ascontiguousarray(rec.samples)
    return {
        "fs_hz": rec.fs_hz,
        "electrodes": rec.electrodes,
        "samples": (samples.dtype.str, samples.shape),
        "samples_sha256": hashlib.sha256(samples).hexdigest(),
    }


@dataclass(frozen=True)
class PatientMeta:
    patient_id: str
    outcome: str  # GOOD or POOR
    cpc: int  # 1..5

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


BURST_PERIOD_S = 6.0
SUPPRESSION_AMPLITUDE = 0.05
OSCILLATION_BAND_HZ = (8.0, 12.0)
NOISE_EXPONENT = 1.0


@dataclass(frozen=True)
class SynthesisProfile:
    """Parameters for one synthetic patient."""

    outcome: str
    seed: int
    n_hours: int = 1
    fs_hz: float = 250.0

    def __post_init__(self):
        if self.outcome not in (GOOD, POOR):
            raise BadConfig(f"outcome must be Good or Poor, got {self.outcome!r}")
        if self.n_hours < 1:
            raise BadConfig(f"n_hours must be >= 1, got {self.n_hours}")
        if not dsp.usable_rate(self.fs_hz):  # else preprocess would skip every hour
            raise BadConfig(f"fs_hz must be a finite rate {dsp.RATE_RULE}, got {self.fs_hz}")


def write_file(path, what: str, write, mode: str = "w") -> Path:
    """Make ``path``'s directory, then (unless ``write`` is None) fill a temp file
    beside it with ``write(fh)`` and rename that over ``path``: an interrupted
    write leaves neither. An OSError becomes DataFileError naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if write is not None:
            with open(tmp, mode, newline=None if "b" in mode else "") as fh:
                write(fh)
            os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # under a regular file, unlink fails too
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise DataFileError(f"cannot write {what} {path}: {exc}") from exc
        raise
    return path


def write_recording(rec: RawRecording, directory) -> tuple[Path, Path]:
    """Write raw float32 signal, then header; returns (header_path, signal_path)."""
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
    # signal first, so a header on disk implies its samples are complete
    write_file(signal_path, "recording", np.asarray(rec.samples, SIGNAL_DTYPE).tofile, "wb")
    write_file(header_path, "recording", lambda fh: json.dump(header, fh, indent=1))
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


def _read_json_object(path: Path) -> tuple[dict, bytes]:
    """The object a JSON file holds, and the file's bytes."""
    try:
        data = path.read_bytes()
        record = json.loads(data)
    except (ValueError, OSError) as exc:
        raise DataFileError(f"{path}: {exc}") from exc
    if not isinstance(record, dict):
        raise DataFileError(f"{path}: not a JSON object")
    return record, data


def _check_fields(record: dict, fields: dict, path: Path) -> None:
    for key, (valid, what) in fields.items():
        if not valid(record[key]):
            raise DataFileError(f"{path}: {key} must be {what}, got {record[key]!r}")


def load_recording(header_path) -> RawRecording:
    """Parse and check a header and its signal file's size; read no samples."""
    header_path = Path(header_path)
    if not header_path.is_file():
        raise DataFileError(f"header not found: {header_path}")
    header, header_bytes = _read_json_object(header_path)
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
    try:
        st = signal_path.stat()
    except OSError:
        st = None
    if st is None or not stat.S_ISREG(st.st_mode):
        raise DataFileError(f"{where} not found")
    n_elec = len(header["electrodes"])
    n_samples = header["n_samples"]
    n_values = n_elec * n_samples
    if st.st_size != n_values * SIGNAL_DTYPE.itemsize:
        raise DataFileError(
            f"{where}: expected {n_elec}x{n_samples}={n_values} values "
            f"({n_values * SIGNAL_DTYPE.itemsize} bytes), found {st.st_size} bytes"
        )
    samples = SignalFile(
        signal_path, (n_elec, n_samples),
        hashlib.sha256(header_bytes).hexdigest(), _file_version(st),
    )
    try:
        return RawRecording(
            patient_id=header["patient_id"],
            hour_index=header["hour_index"],
            fs_hz=float(header["fs_hz"]),
            electrodes=tuple(header["electrodes"]),
            samples=samples,
        )
    except PrognosisError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def write_patient(meta: PatientMeta, recordings, root) -> Path:
    """Write a full patient directory (metadata + all recordings)."""
    pdir = Path(root) / meta.patient_id
    record = asdict(meta)
    write_file(pdir / "patient.json", "patient record", lambda fh: json.dump(record, fh, indent=1))
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
    suppressed phases of ``BURST_PERIOD_S`` seconds each.
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
    lo, hi = OSCILLATION_BAND_HZ
    band = (freqs >= lo) & (freqs <= hi)
    # 1/f^exponent power, floored below 1 Hz so power does not diverge at DC
    pink = (freqs > 0) * np.maximum(freqs, 1.0) ** (-NOISE_EXPONENT / 2.0)
    t = np.arange(n) / profile.fs_hz
    phase = np.floor(t / BURST_PERIOD_S).astype(np.int64)
    envelope = np.where(phase % 2 == 0, 1.0, SUPPRESSION_AMPLITUDE)  # Poor's bursts
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
        raw, _ = _read_json_object(meta_path)
        _check_fields(raw, _PATIENT_FIELDS, meta_path)
        meta = PatientMeta(patient_id=raw["patient_id"], outcome=raw["outcome"], cpc=raw["cpc"])
    except (DataFileError, KeyError) as exc:
        raise DataFileError(f"patient {pdir.name}: bad patient.json: {exc}") from exc
    headers = sorted(pdir.glob("*.hdr.json"))
    if not headers:
        raise UnusableRecording(f"patient {pdir.name}: no recordings in {pdir}")
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
