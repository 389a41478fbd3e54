"""Preprocessing pipeline: band-pass filter, resample to 100 Hz, min-max
rescale, bipolar conversion, and 5-minute segmentation.

The pipeline order is fixed: filtering happens at the native rate, then
resampling, then per-electrode min-max rescaling over the whole recording,
then the bipolar montage, then segmentation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy import signal

from .errors import BadConfig, NonFiniteValue, ShapeMismatch, UnusableRecording

if TYPE_CHECKING:  # eeg_io imports this module for the rate rule
    from .eeg_io import RawRecording

TARGET_FS_HZ = 100.0
SEGMENT_SAMPLES = 30000  # 5 minutes at 100 Hz
DEFAULT_BAND_HZ = (0.5, 35.0)
DEFAULT_ORDER = 4
# Raise when a change here alters what ``preprocess`` returns, so that
# segment caches built by the old code are rebuilt.
PIPELINE_VERSION = 1

MAX_RESAMPLE_DENOMINATOR = 10000
RATE_RULE = (f"above {2 * DEFAULT_BAND_HZ[1]} Hz and a ratio to {TARGET_FS_HZ} Hz "
             f"with denominator <= {MAX_RESAMPLE_DENOMINATOR}")


@dataclass(frozen=True)
class MontagePair:
    anode: str
    cathode: str


# Longitudinal bipolar ("double banana") montage: 18 pairs over the
# 19 standard 10-20 electrodes.
MONTAGE: tuple[MontagePair, ...] = tuple(
    MontagePair(a, c)
    for a, c in (
        ("Fp1", "F7"), ("F7", "T3"), ("T3", "T5"), ("T5", "O1"),
        ("Fp2", "F8"), ("F8", "T4"), ("T4", "T6"), ("T6", "O2"),
        ("Fp1", "F3"), ("F3", "C3"), ("C3", "P3"), ("P3", "O1"),
        ("Fp2", "F4"), ("F4", "C4"), ("C4", "P4"), ("P4", "O2"),
        ("Fz", "Cz"), ("Cz", "Pz"),
    )
)

N_BIPOLAR_CHANNELS = len(MONTAGE)


@dataclass(frozen=True, eq=False)
class BiquadCascade:
    """Second-order sections in scipy's layout: rows (b0, b1, b2, 1, a1, a2)."""

    sos: np.ndarray

    def __post_init__(self):
        for a1, a2 in self.sos[:, 4:]:
            if not (abs(a2) < 1.0 and abs(a1) < 1.0 + a2):
                raise BadConfig(
                    f"section (a1={a1}, a2={a2}) has poles on or outside "
                    "the unit circle"
                )

    def frequency_response(self, freqs_hz, fs_hz: float) -> np.ndarray:
        """Complex response of the cascade at the given frequencies."""
        _, h = signal.sosfreqz(
            self.sos, worN=2.0 * np.pi * np.atleast_1d(freqs_hz) / fs_hz
        )
        return h


def design_butterworth_bandpass(
    low_hz: float, high_hz: float, order: int, fs_hz: float
) -> BiquadCascade:
    """Butterworth band-pass as second-order sections via bilinear transform.

    ``order`` is the analog prototype order; the band-pass transform doubles
    it, yielding exactly ``order`` sections.
    """
    if not (0 < low_hz < high_hz < fs_hz / 2):
        raise BadConfig(
            f"need 0 < low < high < fs/2, got ({low_hz}, {high_hz}) at fs={fs_hz}"
        )
    if order < 2 or order % 2 != 0:
        raise BadConfig(f"order must be even and >= 2, got {order}")
    sos = signal.butter(
        order, [low_hz, high_hz], btype="bandpass", fs=fs_hz, output="sos"
    )
    return BiquadCascade(sos / sos[:, 3:4])


def filter_signal(cascade: BiquadCascade, x) -> np.ndarray:
    """Causal direct-form-II-transposed filtering, zero initial state."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 1:
        raise ShapeMismatch("empty input")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("non-finite input to filter")
    return signal.sosfilt(cascade.sos, x, axis=-1)


@lru_cache  # a corpus has few distinct rates, and ``require_usable`` asks for every hour
def _resample_ratio(fs_in: float, fs_out: float) -> Fraction | None:
    """fs_out / fs_in within 1e-9 with denominator <= MAX_RESAMPLE_DENOMINATOR, else None."""
    ratio = fs_out / fs_in
    frac = Fraction(ratio).limit_denominator(MAX_RESAMPLE_DENOMINATOR)
    return frac if abs(float(frac) - ratio) <= 1e-9 * ratio else None


def resample_filter_taps(up: int, down: int, fs_in: float, fs_out: float) -> np.ndarray:
    """Anti-aliasing FIR for the polyphase resampler.

    Windowed sinc (Hann), 10*max(up, down) + 1 taps, cut-off at
    0.45 * min(fs_in, fs_out), designed at the upsampled rate.
    """
    n_taps = 10 * max(up, down) + 1
    fs_high = up * fs_in
    cutoff = 0.45 * min(fs_in, fs_out)
    fc = cutoff / fs_high  # cycles per sample at the high rate
    n = np.arange(n_taps) - (n_taps - 1) / 2.0
    h = 2.0 * fc * np.sinc(2.0 * fc * n)
    h *= np.hanning(n_taps)
    h /= h.sum()
    return h * up  # compensate upsampling gain


def _resampled_length(n_in: int, fs_in: float, fs_out: float) -> int:
    """Length of ``resample``'s output for ``n_in`` input samples."""
    return int(round(n_in * fs_out / fs_in))


def resample(x, fs_in: float, fs_out: float) -> np.ndarray:
    """Rational-ratio polyphase resampling with windowed-sinc anti-aliasing.

    Output length is round(n_in * fs_out / fs_in); identical rates return
    the input unchanged.
    """
    if not (0 < fs_in <= sys.float_info.max and 0 < fs_out <= sys.float_info.max):
        raise BadConfig(
            f"rates must be positive and finite, got fs_in={fs_in}, fs_out={fs_out}"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ShapeMismatch("need at least 2 samples to resample")
    if fs_in == fs_out:
        return x
    frac = _resample_ratio(fs_in, fs_out)
    if frac is None:
        raise BadConfig(
            f"cannot express {fs_out}/{fs_in} with denominator <= {MAX_RESAMPLE_DENOMINATOR}"
        )
    up, down = frac.numerator, frac.denominator
    h = resample_filter_taps(up, down, fs_in, fs_out)
    delay = (len(h) - 1) // 2
    n_out = _resampled_length(x.shape[-1], fs_in, fs_out)
    # upfirdn computes only the kept, every down-th, upsampled-rate sample.
    # Leading zeros on the taps put the group delay on that grid, so after
    # the slice output k is upsampled-rate sample delay + k * down.
    lead = (-delay) % down
    h = np.concatenate([np.zeros(lead), h])
    y = signal.upfirdn(h, x, up=up, down=down, axis=-1)[..., (delay + lead) // down :]
    return y[..., :n_out]


def minmax_rescale(x) -> np.ndarray:
    """Map to [0, 1]; a constant signal maps to all zeros."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("non-finite input to minmax_rescale")
    lo = x.min(axis=-1, keepdims=True)
    hi = x.max(axis=-1, keepdims=True)
    span = hi - lo
    out = np.zeros_like(x)
    np.divide(x - lo, span, out=out, where=span > 0)
    return out


def _require_montage(electrodes, where: str = "") -> None:
    """An hour lacking a montage electrode is unusable; the message names it."""
    present = set(electrodes)
    for pair in MONTAGE:
        for name in (pair.anode, pair.cathode):
            if name not in present:
                raise UnusableRecording(f"{where}{name}")


def _require_segment(n: int, where: str = "") -> None:
    """An hour shorter than one segment at the target rate is unusable."""
    if n < SEGMENT_SAMPLES:
        raise UnusableRecording(f"{where}need >= {SEGMENT_SAMPLES} samples, got {n}")


def usable_rate(fs_hz: float) -> bool:
    """The one rate rule, ``RATE_RULE``: a finite rate whose Nyquist frequency
    is above the band and that ``resample`` can take to 100 Hz."""
    return (2 * DEFAULT_BAND_HZ[1] < fs_hz <= sys.float_info.max
            and _resample_ratio(fs_hz, TARGET_FS_HZ) is not None)


def require_usable(rec: RawRecording) -> None:
    """Raise UnusableRecording, naming the patient and hour, unless the header
    alone shows every montage electrode, a ``usable_rate`` and one segment."""
    where = f"patient {rec.patient_id}, hour {rec.hour_index}: "
    _require_montage(rec.electrodes, where)
    if not usable_rate(rec.fs_hz):
        raise UnusableRecording(f"{where}rate {rec.fs_hz} Hz: need {RATE_RULE}")
    _require_segment(_resampled_length(rec.samples.shape[1], rec.fs_hz, TARGET_FS_HZ), where)


def usable_hours(patient_id: str, recordings) -> tuple[list[RawRecording], list[str]]:
    """The one policy for which hours are usable: the recordings that pass
    ``require_usable`` and why each other fails, or UnusableRecording if none passes."""
    usable, skipped = [], []
    for rec in recordings:
        try:
            require_usable(rec)
            usable.append(rec)
        except UnusableRecording as exc:
            skipped.append(str(exc))
    if not usable:
        raise UnusableRecording(f"patient {patient_id}: no usable hour: {'; '.join(skipped)}")
    return usable, skipped


def to_bipolar(samples, electrodes) -> np.ndarray:
    """Row i = anode_i - cathode_i, in MONTAGE order."""
    samples = np.asarray(samples)
    _require_montage(electrodes)
    index = {name: i for i, name in enumerate(electrodes)}
    rows = [samples[index[p.anode]] - samples[index[p.cathode]] for p in MONTAGE]
    return np.stack(rows)


def segment(bipolar: np.ndarray) -> np.ndarray:
    """Split into non-overlapping 30000-sample windows; remainder dropped.

    Returns one C-contiguous float32 array [n_segments, channels, 30000].
    """
    n_channels, n = bipolar.shape
    _require_segment(n)
    n_segments = n // SEGMENT_SAMPLES
    windows = bipolar[:, : n_segments * SEGMENT_SAMPLES].reshape(
        n_channels, n_segments, SEGMENT_SAMPLES
    )
    return np.ascontiguousarray(windows.transpose(1, 0, 2), dtype=np.float32)


def preprocess(rec: RawRecording) -> np.ndarray:
    """Full pipeline: filter, resample to 100 Hz, rescale, bipolar, segment.

    Returns float32 [n_segments, 18, 30000] with values in [-1, 1]. An hour
    that ``require_usable`` refuses fails before any sample is read. A
    non-finite sample is reported here, at first use, naming the signal file
    it came from.
    """
    require_usable(rec)
    try:
        cascade = design_butterworth_bandpass(*DEFAULT_BAND_HZ, DEFAULT_ORDER, rec.fs_hz)
        filtered = filter_signal(cascade, rec.samples)
        resampled = resample(filtered, rec.fs_hz, TARGET_FS_HZ)
        rescaled = minmax_rescale(resampled)
        return segment(to_bipolar(rescaled, rec.electrodes))
    except NonFiniteValue as exc:
        where = f"patient {rec.patient_id}, hour {rec.hour_index}"
        if hasattr(rec.samples, "path"):  # an eeg_io.SignalFile, read from disk
            where = f"{where}: {rec.samples.path}"
        raise NonFiniteValue(f"{where}: {exc}") from exc
