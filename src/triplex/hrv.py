"""Heart rate variability analysis over uniformly sampled amplitude signals.

The chain is rolling_mean -> detect_peaks -> compute_rr -> reject_outliers
-> compute_metrics, wrapped by analyze(). Everything in here is a pure
function over immutable inputs and safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

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
        # One NaN or inf poisons the detector's cumulative sums, so beats
        # are found only before it: refuse rather than answer for part of
        # the window.
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise InvalidSignal(f"sample {bad} is not finite: {arr[bad]}")

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


def _centred_means(samples: np.ndarray, w: int) -> np.ndarray:
    """rolling_mean's averages as a bare array, without building a Signal."""
    n = samples.size
    # window covers (w-1)//2 samples left and w//2 right of each position
    idx = np.arange(n)
    lo = np.maximum(idx - (w - 1) // 2, 0)
    hi_end = np.minimum(idx + (w // 2 + 1), n)
    csum = np.zeros(n + 1)
    np.cumsum(samples, out=csum[1:])
    return (csum[hi_end] - csum[lo]) / (hi_end - lo)


def rolling_mean(signal: Signal, window_s: float) -> Signal:
    """Centered moving average; the window truncates at the edges, no padding."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if len(signal) == 0:
        raise InvalidSignal("cannot average an empty signal")
    w = _window_samples(window_s, signal.sample_rate_hz)
    means = _centred_means(signal.samples, w)
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
    samples = signal.samples
    n = samples.size
    w = _window_samples(cfg.ma_window_s, signal.sample_rate_hz)
    if n < 2 * w:
        raise InvalidSignal(f"need at least {2 * w} samples, got {n}")
    k = n // 50
    part = np.partition(samples, (k, n - 1 - k))
    span = float(part[n - 1 - k] - part[k])
    threshold = _centred_means(samples, w)
    threshold += cfg.rel_rise * span
    above = samples > threshold
    # indices where a run of beat samples starts or ends; starts and ends
    # alternate, so pairing them drops a trailing start with no matching
    # end, which is exactly the unfinished-run rule
    bounds = (np.flatnonzero(above[1:] != above[:-1]) + 1).tolist()
    if above[0]:
        bounds.insert(0, 0)
    peaks = []
    for s, e in zip(bounds[0::2], bounds[1::2]):
        # list max and index pick the first highest sample, as np.argmax does
        run = samples[s:e].tolist()
        peaks.append(s + run.index(max(run)))
    return PeakList(np.asarray(peaks, dtype=np.int64))


def compute_rr(peaks: PeakList, sample_rate_hz: float) -> RRSeries:
    """Convert consecutive peak index gaps to intervals in milliseconds."""
    if len(peaks) < 2:
        raise InsufficientBeats(f"need at least 2 peaks, got {len(peaks)}")
    idx = peaks.indices
    intervals = (idx[1:] - idx[:-1]) * (1000.0 / sample_rate_hz)
    return RRSeries(intervals, np.ones(intervals.size, dtype=bool))


def reject_outliers(rr: RRSeries, band: float) -> RRSeries:
    """Reject intervals deviating from the mean of all intervals by more
    than band * mean; intervals themselves are left unchanged."""
    if not 0 <= band < 1:
        raise ValueError("band must be in [0, 1)")
    if len(rr) == 0:
        raise ValueError("empty RR series")
    mean = _mean(rr.intervals_ms)
    mask = np.abs(rr.intervals_ms - mean) <= band * mean
    return RRSeries(rr.intervals_ms, mask)


# np.mean, np.std and np.median cost more in argument handling than in
# arithmetic on a window's few intervals. These take the same steps numpy
# takes (one pairwise np.add.reduce, then divide; deviations squared, summed,
# divided and rooted; the middle of a sorted copy, two middles averaged), so
# every result is bit-identical to numpy's.


def _mean(x: np.ndarray) -> float:
    return float(np.add.reduce(x)) / x.size


def _std(x: np.ndarray, mean: float) -> float:
    """Population standard deviation of x, whose mean is mean."""
    dev = x - mean
    return math.sqrt(float(np.add.reduce(dev * dev)) / x.size)


def _sorted_median(s: np.ndarray) -> float:
    h = s.size // 2
    if s.size % 2:
        return float(s[h])
    return float(s[h - 1] + s[h]) / 2


def compute_metrics(rr: RRSeries) -> HrvMetrics:
    """Compute the eight metrics over the accepted intervals.

    Rejected intervals are removed from the series before successive
    differences are taken, not bridged across. Standard deviations use the
    population convention (divide by n). pNN thresholds are strict.
    """
    kept = rr.intervals_ms[rr.accepted]
    if kept.size < 2:
        raise InsufficientBeats(f"need at least 2 accepted intervals, got {kept.size}")

    ibi = _mean(kept)
    bpm = 60000.0 / ibi
    sdnn = _std(kept, ibi)

    d = kept[1:] - kept[:-1]
    rmssd = math.sqrt(_mean(d * d))
    abs_d = np.abs(d)
    pnn20 = float(np.count_nonzero(abs_d > 20.0) / d.size)
    pnn50 = float(np.count_nonzero(abs_d > 50.0) / d.size)
    # a lone difference gives no dispersion estimate; report absent, not 0
    sdsd = _std(d, _mean(d)) if d.size >= 2 else None

    med = _sorted_median(np.sort(kept))
    mad = _sorted_median(np.sort(np.abs(kept - med)))

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
        window_span_ms=float(np.add.reduce(rr.intervals_ms)),
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
                value = float(line)
            except ValueError:
                raise InvalidSignal(f"{path}: line {lineno} is not a number: {line!r}")
            if not math.isfinite(value):
                raise InvalidSignal(f"{path}: line {lineno} is not a finite number: {line!r}")
            values.append(value)
    return values


def load_signal(path, sample_rate_hz: float = 100.0, start_time_ms: int = 0) -> Signal:
    """Load a heart-signal text file into a Signal."""
    return Signal(read_amplitudes(path), sample_rate_hz, start_time_ms)


_SEQ = itemgetter("seq")
_VALUE = itemgetter("value")


def signal_from_records(records, sample_rate_hz: float) -> Signal:
    """Rebuild a Signal from sensor records {"seq", "t_ms", "value"}.

    Records are ordered by seq; the first record's timestamp becomes the
    signal start time.
    """
    if not records:
        raise InvalidSignal("no records in window")
    ordered = sorted(records, key=_SEQ)
    return Signal(
        list(map(_VALUE, ordered)),
        sample_rate_hz,
        start_time_ms=int(ordered[0]["t_ms"]),
    )
