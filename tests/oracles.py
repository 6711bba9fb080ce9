"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written from the metric definitions with
plain Python loops and the statistics module -- no numpy, no imports from
the package under test. Keep it that way: these functions are the second
route that the implementation is checked against.
"""

import math
import statistics


def rolling_mean_oracle(samples, window_samples):
    """Centered moving average, window truncated at the edges.

    The window covers (w-1)//2 samples to the left and w//2 to the right
    of each position.
    """
    n = len(samples)
    w = window_samples
    out = []
    for i in range(n):
        lo = max(0, i - (w - 1) // 2)
        hi = min(n - 1, i + w // 2)
        chunk = samples[lo : hi + 1]
        out.append(sum(chunk) / len(chunk))
    return out


def detect_peaks_oracle(samples, sample_rate_hz, ma_window_s=0.75, rel_rise=0.20):
    """Brute-force scan: argmax of each maximal run where the sample exceeds
    the rolling mean plus rel_rise times the signal's span, the range of the
    sorted samples without their n // 50 lowest and n // 50 highest.

    A run still open at the last sample is an unfinished beat and is dropped.
    """
    w = max(1, round(ma_window_s * sample_rate_hz))
    means = rolling_mean_oracle(samples, w)
    ordered = sorted(samples)
    k = len(samples) // 50
    rise = rel_rise * (ordered[-1 - k] - ordered[k])
    above = [s > m + rise for s, m in zip(samples, means)]
    peaks = []
    i = 0
    n = len(samples)
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j < n and above[j]:
            j += 1
        if j == n:
            break
        best = i
        for k in range(i, j):
            if samples[k] > samples[best]:
                best = k
        peaks.append(best)
        i = j
    return peaks


def pstdev(values):
    """Population standard deviation (divide by n)."""
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def metrics_oracle(intervals_ms, accepted=None):
    """Straight-from-definition metric computation over accepted intervals.

    Returns a dict with the eight metric fields; sdsd_ms is None when fewer
    than two successive differences exist.
    """
    if accepted is None:
        accepted = [True] * len(intervals_ms)
    rr = [x for x, ok in zip(intervals_ms, accepted) if ok]
    if len(rr) < 2:
        raise ValueError("need at least 2 accepted intervals")

    ibi = sum(rr) / len(rr)
    bpm = 60000.0 / ibi
    sdnn = pstdev(rr)

    d = [rr[i + 1] - rr[i] for i in range(len(rr) - 1)]
    rmssd = math.sqrt(sum(x * x for x in d) / len(d))
    pnn20 = sum(1 for x in d if abs(x) > 20.0) / len(d)
    pnn50 = sum(1 for x in d if abs(x) > 50.0) / len(d)
    sdsd = pstdev(d) if len(d) >= 2 else None

    med = statistics.median(rr)
    mad = statistics.median(abs(x - med) for x in rr)

    return {
        "bpm": bpm,
        "ibi_ms": ibi,
        "sdnn_ms": sdnn,
        "sdsd_ms": sdsd,
        "rmssd_ms": rmssd,
        "pnn20": pnn20,
        "pnn50": pnn50,
        "mad_ms": mad,
    }


def reject_outliers_oracle(intervals_ms, band):
    """Mask is False exactly when the interval deviates from the mean of all
    intervals by more than band * mean."""
    m = sum(intervals_ms) / len(intervals_ms)
    return [abs(x - m) <= band * m for x in intervals_ms]


def analyze_oracle(samples, sample_rate_hz, ma_window_s=0.75, rel_rise=0.20, band=0.30):
    """Independent reimplementation of the five-stage analysis chain."""
    peaks = detect_peaks_oracle(samples, sample_rate_hz, ma_window_s, rel_rise)
    if len(peaks) < 2:
        raise ValueError("insufficient beats")
    rr = [(peaks[i + 1] - peaks[i]) * 1000.0 / sample_rate_hz for i in range(len(peaks) - 1)]
    accepted = reject_outliers_oracle(rr, band)
    return metrics_oracle(rr, accepted)


def topic_match_oracle(filter_levels, name_levels):
    """Recursive wildcard matcher used as the table oracle for topic filters."""
    if not filter_levels:
        return not name_levels
    head, rest = filter_levels[0], filter_levels[1:]
    if head == "#":
        # trailing multi-level wildcard: matches the parent and any deeper name
        return not rest
    if not name_levels:
        return False
    if head == "+" or head == name_levels[0]:
        return topic_match_oracle(rest, name_levels[1:])
    return False


def varint_encode_oracle(value):
    """Base-128 remaining-length encoding, little end first."""
    out = []
    while True:
        byte = value % 128
        value //= 128
        if value:
            byte |= 0x80
        out.append(byte)
        if not value:
            return bytes(out)


class CappedListModel:
    """List-backed model of the capped store used for randomized comparison."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.docs = []  # (seq, body)
        self.next_seq = 1

    def insert(self, body):
        seq = self.next_seq
        self.next_seq += 1
        self.docs.append((seq, body))
        while len(self.docs) > self.threshold:
            self.docs.pop(0)
        return seq

    def get_all(self):
        return list(self.docs)

    def delete_all(self):
        n = len(self.docs)
        self.docs = []
        return n

    def count(self):
        return len(self.docs)
