"""Metrics report records: one JSON object per line, one line per tick.

Every pipeline writes the same schema, so comparing two runs is a
streaming diff over these lines.
"""

from __future__ import annotations

import json
import time

from .hrv import AnalysisConfig, HrvMetrics

METRIC_FIELDS = (
    "bpm",
    "ibi_ms",
    "sdnn_ms",
    "sdsd_ms",
    "rmssd_ms",
    "pnn20",
    "pnn50",
    "mad_ms",
    "beat_count",
    "window_span_ms",
)


def metrics_to_dict(m: HrvMetrics) -> dict:
    return {name: getattr(m, name) for name in METRIC_FIELDS}


def flags_for(bpm: float, cfg: AnalysisConfig) -> list:
    """Abnormality flags; empty exactly when bpm sits inside the bounds."""
    flags = []
    if bpm < cfg.min_bpm:
        flags.append("bpm_below_min")
    if bpm > cfg.max_bpm:
        flags.append("bpm_above_max")
    return flags


def make_report(metrics: dict, mode: str, cfg: AnalysisConfig) -> dict:
    """One report record over metrics_to_dict's fields, stamped now."""
    record = {"ts_ms": int(time.time() * 1000), "mode": mode}
    record.update((name, metrics.get(name)) for name in METRIC_FIELDS)
    record["flags"] = flags_for(record["bpm"], cfg)
    return record


def format_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


class ReportWriter:
    """Append-mode report sink: one flushed line per record."""

    def __init__(self, path):
        self._fh = open(path, "a", encoding="utf-8")

    def __call__(self, record: dict):
        self._fh.write(format_line(record) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()
