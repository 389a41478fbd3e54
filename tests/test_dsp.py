import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from prognosis import dsp
from prognosis.dsp import (
    MONTAGE,
    design_butterworth_bandpass,
    filter_signal,
    minmax_rescale,
    preprocess,
    resample,
    segment,
    to_bipolar,
)
from prognosis.eeg_io import STANDARD_ELECTRODES
from prognosis.errors import BadConfig, NonFiniteValue, ShapeMismatch, UnusableRecording


def mag(cascade, f, fs=100.0):
    return float(np.abs(cascade.frequency_response([f], fs))[0])


class TestFilterDesign:
    def test_cutoff_magnitudes(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        assert mag(c, 0.5) == pytest.approx(math.sqrt(0.5), abs=0.01)
        assert mag(c, 35.0) == pytest.approx(math.sqrt(0.5), abs=0.01)

    def test_dc_blocked(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        assert mag(c, 0.0) == 0.0

    def test_midband_unity(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        assert mag(c, 10.0) == pytest.approx(1.0, abs=0.02)

    def test_stopband_attenuation(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        assert mag(c, 0.05) < 0.1
        assert mag(c, 49.0) < 0.1

    def test_section_count_doubles_prototype(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        assert len(c.sos) == 4

    @pytest.mark.parametrize(
        "low,high,order,fs",
        [(0.0, 35, 4, 100), (35, 0.5, 4, 100), (0.5, 60, 4, 100), (0.5, 35, 3, 100),
         (0.5, 35, 0, 100)],
    )
    def test_invalid_band(self, low, high, order, fs):
        with pytest.raises(BadConfig, match="need 0 < low < high|order must be even"):
            design_butterworth_bandpass(low, high, order, fs)

    def test_stability_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fs = rng.uniform(80, 1000)
            low = rng.uniform(0.1, 2.0)
            high = rng.uniform(low + 5, fs / 2 - 1)
            order = int(rng.choice([2, 4, 6]))
            c = design_butterworth_bandpass(low, high, order, fs)
            for a1, a2 in c.sos[:, 4:]:
                assert abs(a2) < 1 and abs(a1) < 1 + a2


class TestFiltering:
    def test_zero_in_zero_out(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        y = filter_signal(c, np.zeros(500))
        assert np.all(y == 0)

    def test_linearity(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(400), rng.standard_normal(400)
        lhs = filter_signal(c, 2.5 * x - 1.5 * y)
        rhs = 2.5 * filter_signal(c, x) - 1.5 * filter_signal(c, y)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_midband_sine_amplitude(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        t = np.arange(0, 30, 0.01)
        y = filter_signal(c, np.sin(2 * np.pi * 10 * t))
        steady = y[500:]
        assert np.max(np.abs(steady)) == pytest.approx(1.0, abs=0.05)

    def test_non_finite_rejected(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        with pytest.raises(NonFiniteValue):
            filter_signal(c, [1.0, np.nan, 2.0])

    def test_length_preserved(self):
        c = design_butterworth_bandpass(0.5, 35.0, 4, 100.0)
        assert filter_signal(c, np.ones(123)).shape == (123,)


class TestResample:
    def test_length_contract(self):
        y = resample(np.random.default_rng(0).standard_normal(1000), 200, 100)
        assert len(y) == 500

    def test_identity_rates(self):
        x = np.random.default_rng(0).standard_normal(100)
        assert np.array_equal(resample(x, 100, 100), x)

    def test_tone_shape_preserved(self):
        t = np.arange(0, 20, 1 / 250)
        x = np.sin(2 * np.pi * 5 * t)
        y = resample(x, 250, 100)
        ref = np.sin(2 * np.pi * 5 * np.arange(len(y)) / 100)
        a, b = y[100:-100], ref[100:-100]
        ncc = np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b))
        assert ncc >= 0.99

    @pytest.mark.parametrize("fs_in", [200, 250, 500])
    def test_frequency_preserved(self, fs_in):
        rng = np.random.default_rng(fs_in)
        for f in rng.uniform(1, 30, size=3):
            n = 8 * fs_in
            x = np.sin(2 * np.pi * f * np.arange(n) / fs_in)
            y = resample(x, fs_in, 100)
            spec = np.abs(np.fft.rfft(y * np.hanning(len(y))))
            freqs = np.fft.rfftfreq(len(y), d=0.01)
            bin_width = freqs[1] - freqs[0]
            assert abs(freqs[np.argmax(spec)] - f) <= bin_width

    def test_bad_rate(self):
        with pytest.raises(BadConfig, match="rates must be positive"):
            resample(np.ones(10), -1, 100)
        with pytest.raises(ShapeMismatch, match="at least 2 samples"):
            resample(np.ones(1), 200, 100)

    def test_irreducible_ratio(self):
        with pytest.raises(BadConfig, match="cannot express"):
            resample(np.ones(1000), 100 * math.pi, 100)

    @pytest.mark.parametrize("fs_in", [128, 200, 250, 256, 500, 512, 1000])
    @pytest.mark.parametrize("n", [2, 3, 17, 999])
    def test_matches_full_rate_reference(self, fs_in, n):
        # Reference: filter the whole upsampled stream, keep every down-th
        # sample from the group delay on, then zero-pad/truncate to n_out.
        frac = dsp._resample_ratio(fs_in, 100.0)
        up, down = frac.numerator, frac.denominator
        h = dsp.resample_filter_taps(up, down, fs_in, 100.0)
        delay = (len(h) - 1) // 2
        n_out = int(round(n * 100.0 / fs_in))

        def reference(x):
            x = np.asarray(x, dtype=np.float64)
            y = signal.upfirdn(h, x, up, 1)[..., delay::down]
            tail = np.zeros(y.shape[:-1] + (max(n_out - y.shape[-1], 0),))
            return np.concatenate([y, tail], axis=-1)[..., :n_out]

        rng = np.random.default_rng(fs_in * 10000 + n)
        strided = rng.standard_normal((6, 2 * n))[::2, ::2]
        for x in (
            rng.standard_normal(n),
            strided,
            rng.standard_normal((2, n)).astype(np.float32),
        ):
            y = resample(x, fs_in, 100.0)
            assert y.shape == x.shape[:-1] + (n_out,)
            assert np.array_equal(y, reference(x))

    def test_peak_memory_scales_with_input(self):
        # The full-rate stream at 512 Hz -> 100 Hz would be ~25x the input.
        x = np.random.default_rng(0).standard_normal((19, 60 * 512))
        tracemalloc.start()
        try:
            resample(x, 512, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes


class TestMinMax:
    def test_endpoints(self):
        assert np.allclose(minmax_rescale([1, 3, 5]), [0, 0.5, 1])

    def test_constant(self):
        assert np.array_equal(minmax_rescale([7.0, 7.0, 7.0]), [0, 0, 0])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_range_property(self, xs):
        y = minmax_rescale(np.array(xs))
        if max(xs) > min(xs):
            assert y.min() == 0.0 and y.max() == 1.0
        else:
            assert np.all(y == 0)


class TestBipolar:
    def test_subtraction(self):
        samples = np.ones((19, 10))
        idx = {name: i for i, name in enumerate(STANDARD_ELECTRODES)}
        samples[idx["Fp1"]] = 3.0
        samples[idx["F7"]] = 1.0
        out = to_bipolar(samples, STANDARD_ELECTRODES)
        assert np.all(out[0] == 2.0)

    def test_identical_signals_zero(self):
        out = to_bipolar(np.ones((19, 10)), STANDARD_ELECTRODES)
        assert np.all(out == 0)

    def test_eighteen_rows(self):
        out = to_bipolar(np.random.default_rng(0).standard_normal((19, 10)),
                         STANDARD_ELECTRODES)
        assert out.shape == (18, 10)

    def test_missing_electrode(self):
        electrodes = tuple(e for e in STANDARD_ELECTRODES if e != "Cz")
        with pytest.raises(UnusableRecording, match="Cz"):
            to_bipolar(np.zeros((18, 10)), electrodes)

    def test_montage_closure(self):
        used = {p.anode for p in MONTAGE} | {p.cathode for p in MONTAGE}
        assert used == set(STANDARD_ELECTRODES)
        assert len(MONTAGE) == 18
        assert all(p.anode != p.cathode for p in MONTAGE)


class TestSegmentation:
    def test_hour_gives_twelve(self):
        segs = segment(np.zeros((18, 360000)))
        assert segs.shape == (12, 18, 30000)
        assert segs.dtype == np.float32 and segs.flags.c_contiguous

    def test_exact_boundary(self):
        assert segment(np.zeros((18, 30000))).shape == (1, 18, 30000)

    def test_remainder_dropped(self):
        assert segment(np.zeros((18, 59999))).shape == (1, 18, 30000)

    def test_too_short(self):
        with pytest.raises(UnusableRecording, match="need >= 30000 samples"):
            segment(np.zeros((18, 29999)))


class TestPreprocess:
    def test_full_pipeline(self, one_hour_recording):
        segs = preprocess(one_hour_recording)
        assert segs.shape == (12, 18, 30000)
        assert segs.dtype == np.float32
        assert np.all(segs >= -1.0) and np.all(segs <= 1.0)

    def test_segment_major_layout(self, one_hour_recording):
        rec = one_hour_recording
        segs = preprocess(rec)
        cascade = dsp.design_butterworth_bandpass(
            *dsp.DEFAULT_BAND_HZ, dsp.DEFAULT_ORDER, rec.fs_hz
        )
        bipolar = to_bipolar(
            minmax_rescale(
                resample(filter_signal(cascade, rec.samples), rec.fs_hz, dsp.TARGET_FS_HZ)
            ),
            rec.electrodes,
        )
        for i in range(segs.shape[0]):
            window = bipolar[:, i * 30000 : (i + 1) * 30000].astype(np.float32)
            assert np.array_equal(segs[i], window)

    def test_determinism(self, one_hour_recording):
        a = preprocess(one_hour_recording)
        b = preprocess(one_hour_recording)
        assert np.array_equal(a, b)

    def test_missing_electrode_propagates(self, one_hour_recording):
        rec = one_hour_recording
        keep = [i for i, e in enumerate(rec.electrodes) if e != "Cz"]
        import dataclasses

        smaller = dataclasses.replace(
            rec,
            electrodes=tuple(rec.electrodes[i] for i in keep),
            samples=rec.samples[keep],
        )
        with pytest.raises(UnusableRecording, match=f"{rec.patient_id}, hour 0: Cz"):
            preprocess(smaller)
