"""Heart rate variability analysis over uniformly sampled amplitude signals.

The chain is rolling_mean -> detect_peaks -> compute_rr -> reject_outliers
-> compute_metrics, wrapped by analyze(). Everything in here is a pure
function over immutable inputs and safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class AnalysisError(Exception):
    """Base for errors raised by the analysis chain."""


class InvalidSignal(AnalysisError):
    """Signal is empty, unreadable, or too short for the requested operation."""


class InsufficientBeats(AnalysisError):
    """Fewer beats or intervals than the requested computation needs."""


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled amplitude trace."""

    samples: np.ndarray
    sample_rate_hz: float
    start_time_ms: int = 0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", arr)
        if not self.sample_rate_hz > 0:
            raise InvalidSignal(f"sample rate must be positive, got {self.sample_rate_hz}")

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class PeakList:
    """Strictly increasing sample indices of detected beats."""

    indices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", arr)

    def __len__(self):
        return self.indices.size


@dataclass(frozen=True)
class RRSeries:
    """Inter-beat intervals in milliseconds plus an accept/reject mask."""

    intervals_ms: np.ndarray
    accepted: np.ndarray

    def __post_init__(self):
        iv = np.asarray(self.intervals_ms, dtype=np.float64)
        acc = np.asarray(self.accepted, dtype=bool)
        if iv.shape != acc.shape:
            raise ValueError("mask length must match interval count")
        object.__setattr__(self, "intervals_ms", iv)
        object.__setattr__(self, "accepted", acc)

    def __len__(self):
        return self.intervals_ms.size


@dataclass(frozen=True)
class HrvMetrics:
    """The eight time-domain metrics plus window provenance.

    sdsd_ms is None when fewer than two successive differences exist;
    None means "not computable", which is distinct from a value of 0.
    """

    bpm: float
    ibi_ms: float
    sdnn_ms: float
    sdsd_ms: Optional[float]
    rmssd_ms: float
    pnn20: float
    pnn50: float
    mad_ms: float
    beat_count: int
    window_span_ms: float


@dataclass(frozen=True)
class AnalysisConfig:
    ma_window_s: float = 0.75
    rel_rise: float = 0.20
    rr_outlier_band: float = 0.30
    min_bpm: float = 40.0
    max_bpm: float = 180.0

    def __post_init__(self):
        if not self.ma_window_s > 0:
            raise ValueError("ma_window_s must be positive")
        if self.rel_rise < 0:
            raise ValueError("rel_rise must be non-negative")
        if not 0 <= self.rr_outlier_band < 1:
            raise ValueError("rr_outlier_band must be in [0, 1)")
        if not self.min_bpm < self.max_bpm:
            raise ValueError("min_bpm must be below max_bpm")


def _window_samples(window_s: float, sample_rate_hz: float) -> int:
    return max(1, round(window_s * sample_rate_hz))


def rolling_mean(signal: Signal, window_s: float) -> Signal:
    """Centered moving average; the window truncates at the edges, no padding."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    n = len(signal)
    if n == 0:
        raise InvalidSignal("cannot average an empty signal")
    w = _window_samples(window_s, signal.sample_rate_hz)
    # window covers (w-1)//2 samples left and w//2 right of each position
    idx = np.arange(n)
    lo = np.maximum(idx - (w - 1) // 2, 0)
    hi = np.minimum(idx + w // 2, n - 1)
    csum = np.concatenate(([0.0], np.cumsum(signal.samples)))
    means = (csum[hi + 1] - csum[lo]) / (hi + 1 - lo)
    return Signal(means, signal.sample_rate_hz, signal.start_time_ms)


def detect_peaks(signal: Signal, cfg: AnalysisConfig = AnalysisConfig()) -> PeakList:
    """Find the highest sample of each region rising above the local mean.

    A region is a maximal run of samples exceeding the rolling mean raised
    by rel_rise times the signal's span: the range left after dropping the
    n // 50 lowest and the n // 50 highest of its n samples. The threshold
    moves with a DC offset and scales with the amplitude, so neither
    changes which samples are beats, and a few glitch samples cannot
    stretch it. A run still open at the last sample is an unfinished beat
    and is dropped rather than reported.
    """
    n = len(signal)
    w = _window_samples(cfg.ma_window_s, signal.sample_rate_hz)
    if n < 2 * w:
        raise InvalidSignal(f"need at least {2 * w} samples, got {n}")
    k = n // 50
    lo, hi = np.partition(signal.samples, (k, n - 1 - k))[[k, n - 1 - k]]
    span = float(hi - lo)
    threshold = rolling_mean(signal, cfg.ma_window_s).samples + cfg.rel_rise * span
    above = signal.samples > threshold
    edges = np.diff(above.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1) + 1
    if above[0]:
        starts = np.concatenate(([0], starts))
    # zip drops a trailing start with no matching end, which is exactly
    # the unfinished-run rule
    peaks = [s + int(np.argmax(signal.samples[s:e])) for s, e in zip(starts, ends)]
    return PeakList(np.asarray(peaks, dtype=np.int64))


def compute_rr(peaks: PeakList, sample_rate_hz: float) -> RRSeries:
    """Convert consecutive peak index gaps to intervals in milliseconds."""
    if len(peaks) < 2:
        raise InsufficientBeats(f"need at least 2 peaks, got {len(peaks)}")
    gaps = np.diff(peaks.indices)
    intervals = gaps * (1000.0 / sample_rate_hz)
    return RRSeries(intervals, np.ones(intervals.size, dtype=bool))


def reject_outliers(rr: RRSeries, band: float) -> RRSeries:
    """Reject intervals deviating from the mean of all intervals by more
    than band * mean; intervals themselves are left unchanged."""
    if not 0 <= band < 1:
        raise ValueError("band must be in [0, 1)")
    if len(rr) == 0:
        raise ValueError("empty RR series")
    mean = float(np.mean(rr.intervals_ms))
    mask = np.abs(rr.intervals_ms - mean) <= band * mean
    return RRSeries(rr.intervals_ms, mask)


def compute_metrics(rr: RRSeries) -> HrvMetrics:
    """Compute the eight metrics over the accepted intervals.

    Rejected intervals are removed from the series before successive
    differences are taken, not bridged across. Standard deviations use the
    population convention (divide by n). pNN thresholds are strict.
    """
    kept = rr.intervals_ms[rr.accepted]
    if kept.size < 2:
        raise InsufficientBeats(f"need at least 2 accepted intervals, got {kept.size}")

    ibi = float(np.mean(kept))
    bpm = 60000.0 / ibi
    sdnn = float(np.std(kept))

    d = np.diff(kept)
    rmssd = float(np.sqrt(np.mean(d * d)))
    pnn20 = float(np.count_nonzero(np.abs(d) > 20.0) / d.size)
    pnn50 = float(np.count_nonzero(np.abs(d) > 50.0) / d.size)
    # a lone difference gives no dispersion estimate; report absent, not 0
    sdsd = float(np.std(d)) if d.size >= 2 else None

    med = float(np.median(kept))
    mad = float(np.median(np.abs(kept - med)))

    return HrvMetrics(
        bpm=bpm,
        ibi_ms=ibi,
        sdnn_ms=sdnn,
        sdsd_ms=sdsd,
        rmssd_ms=rmssd,
        pnn20=pnn20,
        pnn50=pnn50,
        mad_ms=mad,
        beat_count=int(kept.size) + 1,
        window_span_ms=float(np.sum(rr.intervals_ms)),
    )


def analyze(signal: Signal, cfg: AnalysisConfig = AnalysisConfig()) -> HrvMetrics:
    """Run the full chain from raw samples to metrics."""
    peaks = detect_peaks(signal, cfg)
    rr = compute_rr(peaks, signal.sample_rate_hz)
    rr = reject_outliers(rr, cfg.rr_outlier_band)
    return compute_metrics(rr)


def read_amplitudes(path) -> list[float]:
    """Read a plain-text signal file: one amplitude per line, optional
    single 'hr' header line."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line == "hr":
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise InvalidSignal(f"{path}: line {lineno} is not a number: {line!r}")
    return values


def load_signal(path, sample_rate_hz: float = 100.0, start_time_ms: int = 0) -> Signal:
    """Load a heart-signal text file into a Signal."""
    return Signal(read_amplitudes(path), sample_rate_hz, start_time_ms)


def signal_from_records(records, sample_rate_hz: float) -> Signal:
    """Rebuild a Signal from sensor records {"seq", "t_ms", "value"}.

    Records are ordered by seq; the first record's timestamp becomes the
    signal start time.
    """
    if not records:
        raise InvalidSignal("no records in window")
    ordered = sorted(records, key=lambda r: r["seq"])
    return Signal(
        [r["value"] for r in ordered],
        sample_rate_hz,
        start_time_ms=int(ordered[0]["t_ms"]),
    )
