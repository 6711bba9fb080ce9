import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex import hrv

from oracles import analyze_oracle, detect_peaks_oracle, metrics_oracle, rolling_mean_oracle
from waveforms import noisy_heartbeat, sine_wave, triangular_pulse

DATA_FILE = Path(__file__).parent.parent / "data" / "sample_hr.txt"


def recording_window(rotation, size):
    """size samples of the shipped recording, starting rotation samples in."""
    values = hrv.read_amplitudes(DATA_FILE)
    return (values[rotation:] + values[:rotation])[:size]


def rr_series(intervals, accepted=None):
    if accepted is None:
        accepted = [True] * len(intervals)
    return hrv.RRSeries(intervals, accepted)


class TestRollingMean:
    def test_constant_signal_is_unchanged(self):
        sig = hrv.Signal([5.0, 5.0, 5.0, 5.0], 1.0)
        out = hrv.rolling_mean(sig, 2.0)
        assert out.samples.tolist() == [5.0, 5.0, 5.0, 5.0]

    def test_truncated_centered_window(self):
        # window of 3 samples: one left, one right, shrunk at the edges
        sig = hrv.Signal([0.0, 1.0, 2.0, 3.0], 1.0)
        out = hrv.rolling_mean(sig, 3.0)
        assert out.samples.tolist() == [0.5, 1.0, 2.0, 2.5]

    def test_single_sample(self):
        sig = hrv.Signal([7.0], 100.0)
        out = hrv.rolling_mean(sig, 0.75)
        assert out.samples.tolist() == [7.0]

    def test_empty_signal_rejected(self):
        with pytest.raises(hrv.InvalidSignal):
            hrv.rolling_mean(hrv.Signal([], 100.0), 0.75)

    def test_nonpositive_window_rejected(self):
        sig = hrv.Signal([1.0, 2.0], 100.0)
        with pytest.raises(ValueError):
            hrv.rolling_mean(sig, 0.0)

    def test_preserves_length_rate_and_start(self):
        sig = hrv.Signal(sine_wave(1, 100, 3), 100.0, start_time_ms=1234)
        out = hrv.rolling_mean(sig, 0.75)
        assert len(out) == len(sig)
        assert out.sample_rate_hz == 100.0
        assert out.start_time_ms == 1234

    def test_matches_scan_oracle_on_random_input(self):
        rng = random.Random(11)
        for w in (1, 2, 3, 4, 7, 75):
            samples = [rng.uniform(-2, 2) for _ in range(150)]
            out = hrv.rolling_mean(hrv.Signal(samples, 1.0), float(w))
            expect = rolling_mean_oracle(samples, w)
            assert out.samples == pytest.approx(expect, rel=1e-12)


class TestDetectPeaks:
    def test_sinusoid_crests(self):
        # 1 Hz at 100 Hz for 10.5 s: crests every 100 samples starting at 25
        sig = hrv.Signal(sine_wave(1, 100, 10.5), 100.0)
        peaks = hrv.detect_peaks(sig)
        assert peaks.indices.tolist() == [25 + 100 * k for k in range(11)]
        assert set(np.diff(peaks.indices).tolist()) == {100}

    def test_constant_signal_has_no_peaks(self):
        for level in (5.0, 0.0, -5.0):
            sig = hrv.Signal([level] * 300, 100.0)
            assert len(hrv.detect_peaks(sig)) == 0

    def test_single_triangular_pulse(self):
        sig = hrv.Signal(triangular_pulse(200, 50), 100.0)
        assert hrv.detect_peaks(sig).indices.tolist() == [50]

    def test_too_short_signal_rejected(self):
        # moving-average window is 75 samples at 100 Hz; need twice that
        sig = hrv.Signal(sine_wave(1, 100, 1.0), 100.0)
        with pytest.raises(hrv.InvalidSignal):
            hrv.detect_peaks(sig)

    def test_run_open_at_end_is_dropped(self):
        # ramp ends mid-beat: the final rise has no closing edge
        samples = [0.0] * 180 + [float(i) for i in range(20)]
        sig = hrv.Signal(samples, 100.0)
        assert len(hrv.detect_peaks(sig)) == 0

    def test_dc_offset_does_not_move_peaks(self):
        # a zero-baseline trace with noise, and the same trace moved below zero
        samples = noisy_heartbeat(100, 15, seed=196)
        want = hrv.detect_peaks(hrv.Signal(samples, 100.0)).indices.tolist()
        assert 16 <= len(want) <= 19
        for offset in (-5.0, 0.5, 3.0):
            moved = hrv.Signal([v + offset for v in samples], 100.0)
            assert hrv.detect_peaks(moved).indices.tolist() == want

    def test_glitch_sample_leaves_other_peaks(self):
        samples = noisy_heartbeat(100, 15, seed=196)
        want = hrv.detect_peaks(hrv.Signal(samples, 100.0)).indices.tolist()
        for at, glitch in ((5, 5.0), (9, -5.0)):
            mid = (want[at] + want[at + 1]) // 2  # between two beats
            hit = list(samples)
            hit[mid] += glitch  # five times the beat amplitude
            got = hrv.detect_peaks(hrv.Signal(hit, 100.0)).indices.tolist()
            assert [i for i in got if i != mid] == want

    def test_matches_scan_oracle(self):
        for samples in (
            sine_wave(1.3, 100, 12),
            noisy_heartbeat(100, 20, bpm=65, seed=3),
            triangular_pulse(400, 333),
        ):
            got = hrv.detect_peaks(hrv.Signal(samples, 100.0)).indices.tolist()
            assert got == detect_peaks_oracle(samples, 100.0)

    def test_indices_valid_and_increasing(self):
        rng = random.Random(5)
        for trial in range(25):
            samples = [rng.gauss(0, 1) for _ in range(rng.randint(150, 600))]
            sig = hrv.Signal(samples, 100.0)
            idx = hrv.detect_peaks(sig).indices
            assert all(0 <= i < len(samples) for i in idx)
            assert all(b > a for a, b in zip(idx, idx[1:]))


class TestComputeRR:
    def test_uniform_spacing(self):
        rr = hrv.compute_rr(hrv.PeakList([0, 100, 200]), 100.0)
        assert rr.intervals_ms.tolist() == [1000.0, 1000.0]
        assert rr.accepted.all()

    def test_index_gap_conversion(self):
        rr = hrv.compute_rr(hrv.PeakList([0, 80, 161]), 100.0)
        assert rr.intervals_ms.tolist() == [800.0, 810.0]

    def test_single_peak_rejected(self):
        with pytest.raises(hrv.InsufficientBeats):
            hrv.compute_rr(hrv.PeakList([0]), 100.0)


class TestRejectOutliers:
    def test_no_deviation_all_accepted(self):
        out = hrv.reject_outliers(rr_series([1000, 1000, 1000]), 0.3)
        assert out.accepted.tolist() == [True, True, True]

    def test_band_rule(self):
        # mean 1333.3; |2000 - 1333.3| = 666.7 > 0.3 * 1333.3 = 400
        out = hrv.reject_outliers(rr_series([1000, 1000, 2000]), 0.3)
        assert out.accepted.tolist() == [True, True, False]

    def test_zero_band_keeps_only_exact_mean(self):
        out = hrv.reject_outliers(rr_series([900, 1100, 1000]), 0.0)
        assert out.accepted.tolist() == [False, False, True]

    def test_intervals_unchanged(self):
        out = hrv.reject_outliers(rr_series([800, 1600, 820]), 0.3)
        assert out.intervals_ms.tolist() == [800.0, 1600.0, 820.0]

    def test_band_bounds_enforced(self):
        with pytest.raises(ValueError):
            hrv.reject_outliers(rr_series([1000, 1010]), 1.0)
        with pytest.raises(ValueError):
            hrv.reject_outliers(rr_series([1000, 1010]), -0.1)


class TestComputeMetrics:
    def test_constant_series(self):
        m = hrv.compute_metrics(rr_series([1000, 1000, 1000, 1000]))
        assert m.bpm == 60.0
        assert m.ibi_ms == 1000.0
        assert m.sdnn_ms == 0.0
        assert m.sdsd_ms == 0.0
        assert m.rmssd_ms == 0.0
        assert m.pnn20 == 0.0
        assert m.pnn50 == 0.0
        assert m.mad_ms == 0.0
        assert m.beat_count == 5
        assert m.window_span_ms == 4000.0

    def test_worked_example(self):
        m = hrv.compute_metrics(rr_series([800, 820, 790, 810]))
        assert m.ibi_ms == pytest.approx(805.0, rel=1e-9)
        assert m.bpm == pytest.approx(74.53416149068323, rel=1e-9)
        assert m.sdnn_ms == pytest.approx(11.180339887498949, rel=1e-9)
        assert m.rmssd_ms == pytest.approx(23.804761428476166, rel=1e-9)
        assert m.sdsd_ms == pytest.approx(23.570226039551585, rel=1e-9)
        assert m.pnn20 == pytest.approx(1 / 3, rel=1e-9)
        assert m.pnn50 == 0.0
        assert m.mad_ms == pytest.approx(10.0, rel=1e-9)

    def test_two_intervals(self):
        m = hrv.compute_metrics(rr_series([700, 1400]))
        assert m.ibi_ms == 1050.0
        assert m.bpm == pytest.approx(60000.0 / 1050.0, rel=1e-9)
        assert m.sdnn_ms == 350.0
        assert m.rmssd_ms == 700.0
        assert m.pnn20 == 1.0
        assert m.pnn50 == 1.0
        # a single difference carries no dispersion information
        assert m.sdsd_ms is None

    def test_rejected_intervals_removed_not_bridged(self):
        m = hrv.compute_metrics(rr_series([1000, 2000, 1000], [True, False, True]))
        # accepted subsequence is [1000, 1000]: one zero difference
        assert m.rmssd_ms == 0.0
        assert m.pnn20 == 0.0
        assert m.beat_count == 3
        assert m.window_span_ms == 4000.0

    def test_too_few_accepted_rejected(self):
        with pytest.raises(hrv.InsufficientBeats):
            hrv.compute_metrics(rr_series([800, 820, 790], [True, False, False]))

    def test_bulk_oracle_equivalence(self):
        rng = random.Random(42)
        fields = ("bpm", "ibi_ms", "sdnn_ms", "sdsd_ms", "rmssd_ms", "pnn20", "pnn50", "mad_ms")
        for trial in range(1000):
            n = rng.randint(2, 500)
            intervals = [rng.uniform(300.0, 2000.0) for _ in range(n)]
            got = hrv.compute_metrics(rr_series(intervals))
            want = metrics_oracle(intervals)
            for f in fields:
                g, w = getattr(got, f), want[f]
                if w is None:
                    assert g is None, f
                else:
                    assert g == pytest.approx(w, rel=1e-9), f

    def test_bit_identical_to_numpy_reductions(self):
        # the chain's mean, std and median take numpy's own steps, so they
        # must equal numpy's results exactly, not just within a tolerance
        rng = random.Random(17)
        for trial in range(300):
            n = rng.randint(2, 300)
            kept = np.array([rng.uniform(300.0, 2000.0) for _ in range(n)])
            m = hrv.compute_metrics(rr_series(kept))
            d = np.diff(kept)
            med = float(np.median(kept))
            assert m.ibi_ms == float(np.mean(kept))
            assert m.sdnn_ms == float(np.std(kept))
            assert m.rmssd_ms == float(np.sqrt(np.mean(d * d)))
            assert m.sdsd_ms == (float(np.std(d)) if n > 2 else None)
            assert m.mad_ms == float(np.median(np.abs(kept - med)))
            assert m.window_span_ms == float(np.sum(kept))
            mean = float(np.mean(kept))
            want = np.abs(kept - mean) <= 0.1 * mean
            assert hrv.reject_outliers(rr_series(kept), 0.1).accepted.tolist() == want.tolist()


class TestMetricProperties:
    @given(st.lists(st.floats(300, 2000), min_size=2, max_size=60))
    def test_pnn_subset_monotonicity(self, intervals):
        m = hrv.compute_metrics(rr_series(intervals))
        assert m.pnn50 <= m.pnn20

    @given(
        st.lists(st.floats(300, 2000), min_size=3, max_size=60),
        st.floats(0.1, 10.0),
    )
    def test_scale_covariance(self, intervals, k):
        base = hrv.compute_metrics(rr_series(intervals))
        scaled = hrv.compute_metrics(rr_series([x * k for x in intervals]))
        assert scaled.ibi_ms == pytest.approx(base.ibi_ms * k, rel=1e-9)
        assert scaled.sdnn_ms == pytest.approx(base.sdnn_ms * k, rel=1e-9, abs=1e-9)
        assert scaled.sdsd_ms == pytest.approx(base.sdsd_ms * k, rel=1e-9, abs=1e-9)
        assert scaled.rmssd_ms == pytest.approx(base.rmssd_ms * k, rel=1e-9, abs=1e-9)
        assert scaled.mad_ms == pytest.approx(base.mad_ms * k, rel=1e-9, abs=1e-9)
        assert scaled.bpm == pytest.approx(base.bpm / k, rel=1e-9)

    @settings(max_examples=25)
    @given(st.integers(0, 2**40), st.integers(1, 99999))
    def test_time_shift_invariance(self, seed, shift_ms):
        samples = noisy_heartbeat(100, 15, seed=seed % 1000)
        a = hrv.analyze(hrv.Signal(samples, 100.0, start_time_ms=0))
        b = hrv.analyze(hrv.Signal(samples, 100.0, start_time_ms=shift_ms))
        assert a == b

    def test_determinism(self):
        sig = hrv.Signal(noisy_heartbeat(100, 20, seed=9), 100.0)
        assert hrv.analyze(sig) == hrv.analyze(sig)


class TestAnalyze:
    def test_sinusoid_end_to_end(self):
        sig = hrv.Signal(sine_wave(1, 100, 30), 100.0)
        m = hrv.analyze(sig)
        assert m.bpm == pytest.approx(60.0, abs=1.0)
        assert m.sdnn_ms <= 10.0
        # crest spacing is exactly 100 samples, so the result is exact
        assert m.bpm == pytest.approx(60.0, rel=1e-12)
        assert m.sdnn_ms == 0.0

    def test_flat_line_has_no_beats(self):
        sig = hrv.Signal([0.42] * 3000, 100.0)
        with pytest.raises(hrv.InsufficientBeats):
            hrv.analyze(sig)

    # The recording windows are the benchmark's two window sizes, each with an
    # odd and an even accepted-interval count, since the median takes the
    # middle interval for one and averages two for the other. At 300
    # samples, the even case has a single difference, so sdsd is None.
    @pytest.mark.parametrize(
        "samples",
        [
            pytest.param(noisy_heartbeat(100, 30, bpm=72, seed=7), id="noisy"),
            pytest.param(recording_window(0, 300), id="rot0-300-odd"),
            pytest.param(recording_window(1000, 300), id="rot1000-300-even"),
            pytest.param(recording_window(0, 3000), id="rot0-3000-odd"),
            pytest.param(recording_window(50, 3000), id="rot50-3000-even"),
        ],
    )
    def test_matches_chain_oracle_on_noisy_data(self, samples):
        got = hrv.analyze(hrv.Signal(samples, 100.0))
        want = analyze_oracle(samples, 100.0)
        assert got.bpm == pytest.approx(want["bpm"], rel=1e-9)
        assert got.ibi_ms == pytest.approx(want["ibi_ms"], rel=1e-9)
        assert got.sdnn_ms == pytest.approx(want["sdnn_ms"], rel=1e-9)
        assert got.rmssd_ms == pytest.approx(want["rmssd_ms"], rel=1e-9)
        assert got.mad_ms == pytest.approx(want["mad_ms"], rel=1e-9)
        assert got.pnn20 == pytest.approx(want["pnn20"], rel=1e-9)
        assert got.pnn50 == pytest.approx(want["pnn50"], rel=1e-9)
        if want["sdsd_ms"] is None:
            assert got.sdsd_ms is None
        else:
            assert got.sdsd_ms == pytest.approx(want["sdsd_ms"], rel=1e-9)


class TestSignalFromRecords:
    def test_shuffled_records_give_seq_order(self):
        values = recording_window(0, 300)
        records = [
            {"seq": 41 + i, "t_ms": 7000 + 10 * i, "value": v} for i, v in enumerate(values)
        ]
        shuffled = list(records)
        random.Random(8).shuffle(shuffled)
        assert shuffled[0]["seq"] != 41
        for given in (records, shuffled):
            sig = hrv.signal_from_records(given, 100.0)
            assert sig.samples.tolist() == values
            assert sig.start_time_ms == 7000
            assert sig.sample_rate_hz == 100.0


class TestSignalFiles:
    def test_plain_file(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("0.1\n0.2\n0.3\n")
        sig = hrv.load_signal(p)
        assert sig.samples.tolist() == [0.1, 0.2, 0.3]
        assert sig.sample_rate_hz == 100.0

    def test_header_line_skipped(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("hr\n1.5\n2.5\n")
        assert hrv.read_amplitudes(p) == [1.5, 2.5]

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("1.0\n\n2.0\n\n")
        assert hrv.read_amplitudes(p) == [1.0, 2.0]

    def test_garbage_line_rejected(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("1.0\nbogus\n")
        with pytest.raises(hrv.InvalidSignal):
            hrv.read_amplitudes(p)


    @pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_line_rejected_with_its_number(self, tmp_path, bad):
        p = tmp_path / "sig.txt"
        p.write_text(f"hr\n1.0\n{bad}\n2.0\n")
        with pytest.raises(hrv.InvalidSignal, match="line 3"):
            hrv.read_amplitudes(p)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_signal_rejects_non_finite_sample(self, bad):
        samples = sine_wave(1, 100, 30)
        samples[1500] = bad
        with pytest.raises(hrv.InvalidSignal, match="sample 1500"):
            hrv.Signal(samples, 100.0)

    def test_nan_cannot_yield_metrics_for_half_the_window(self):
        samples = sine_wave(1, 100, 30)
        samples[1500] = math.nan
        with pytest.raises(hrv.InvalidSignal):
            hrv.analyze(hrv.Signal(samples, 100.0))

    def test_non_finite_record_value_rejected(self):
        records = [
            {"seq": i + 1, "t_ms": i * 10, "value": v}
            for i, v in enumerate(sine_wave(1, 100, 5))
        ]
        records[7]["value"] = math.nan
        with pytest.raises(hrv.InvalidSignal):
            hrv.signal_from_records(records, 100.0)


class TestConfigValidation:
    def test_defaults(self):
        cfg = hrv.AnalysisConfig()
        assert cfg.ma_window_s == 0.75
        assert cfg.rel_rise == 0.20
        assert cfg.rr_outlier_band == 0.30
        assert cfg.min_bpm == 40.0
        assert cfg.max_bpm == 180.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"ma_window_s": 0.0},
            {"rel_rise": -0.1},
            {"rr_outlier_band": 1.0},
            {"rr_outlier_band": -0.2},
            {"min_bpm": 200.0},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            hrv.AnalysisConfig(**kw)

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(hrv.InvalidSignal):
            hrv.Signal([1.0], 0.0)
