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

import numpy as np
from scipy import signal

from .eeg_io import RawRecording
from .errors import BadConfig, NonFiniteValue, ShapeMismatch, UnusableRecording

TARGET_FS_HZ = 100.0
SEGMENT_SAMPLES = 30000  # 5 minutes at 100 Hz
DEFAULT_BAND_HZ = (0.5, 35.0)
DEFAULT_ORDER = 4

MAX_RESAMPLE_DENOMINATOR = 10000


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


def _resample_ratio(fs_in: float, fs_out: float) -> Fraction:
    ratio = fs_out / fs_in
    frac = Fraction(ratio).limit_denominator(MAX_RESAMPLE_DENOMINATOR)
    if abs(float(frac) - ratio) > 1e-9 * ratio:
        raise BadConfig(
            f"cannot express {fs_out}/{fs_in} with denominator <= "
            f"{MAX_RESAMPLE_DENOMINATOR}"
        )
    return frac


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
    up, down = frac.numerator, frac.denominator
    h = resample_filter_taps(up, down, fs_in, fs_out)
    delay = (len(h) - 1) // 2
    n_out = int(round(x.shape[-1] * fs_out / fs_in))
    # upfirdn computes only the kept, every down-th, upsampled-rate sample.
    # Leading zeros on the taps put the group delay on that grid, so after
    # the slice output k is upsampled-rate sample delay + k * down.
    lead = (-delay) % down
    h = np.concatenate([np.zeros(lead), h])
    y = signal.upfirdn(h, x, up=up, down=down, axis=-1)[..., (delay + lead) // down :]
    if y.shape[-1] < n_out:
        pad = n_out - y.shape[-1]
        y = np.concatenate([y, np.zeros(y.shape[:-1] + (pad,))], axis=-1)
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


def to_bipolar(samples, electrodes) -> np.ndarray:
    """Row i = anode_i - cathode_i, in MONTAGE order."""
    samples = np.asarray(samples)
    index = {name: i for i, name in enumerate(electrodes)}
    for pair in MONTAGE:
        for name in (pair.anode, pair.cathode):
            if name not in index:
                raise UnusableRecording(name)
    rows = [samples[index[p.anode]] - samples[index[p.cathode]] for p in MONTAGE]
    return np.stack(rows)


def segment(bipolar: np.ndarray) -> np.ndarray:
    """Split into non-overlapping 30000-sample windows; remainder dropped.

    Returns one C-contiguous float32 array [n_segments, channels, 30000].
    """
    n_channels, n = bipolar.shape
    if n < SEGMENT_SAMPLES:
        raise UnusableRecording(f"need >= {SEGMENT_SAMPLES} samples, got {n}")
    n_segments = n // SEGMENT_SAMPLES
    windows = bipolar[:, : n_segments * SEGMENT_SAMPLES].reshape(
        n_channels, n_segments, SEGMENT_SAMPLES
    )
    return np.ascontiguousarray(windows.transpose(1, 0, 2), dtype=np.float32)


def preprocess(rec: RawRecording) -> np.ndarray:
    """Full pipeline: filter, resample to 100 Hz, rescale, bipolar, segment.

    Returns float32 [n_segments, 18, 30000] with values in [-1, 1].
    """
    cascade = design_butterworth_bandpass(*DEFAULT_BAND_HZ, DEFAULT_ORDER, rec.fs_hz)
    filtered = filter_signal(cascade, rec.samples)
    resampled = resample(filtered, rec.fs_hz, TARGET_FS_HZ)
    rescaled = minmax_rescale(resampled)
    try:
        return segment(to_bipolar(rescaled, rec.electrodes))
    except UnusableRecording as exc:
        raise type(exc)(
            f"patient {rec.patient_id}, hour {rec.hour_index}: {exc}"
        ) from exc
