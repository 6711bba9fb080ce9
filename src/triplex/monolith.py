"""The direct-call pipeline: one process, two objects, no middle layer.

WindowAnalyzer turns whatever the capped window currently holds into
metrics, and SensorIngestor pumps broker messages into that window,
asking the analyzer for fresh numbers every decimation-th stored seq.
The other two pipelines reach the same window and analysis through a
flow graph or a function host; this one just calls methods.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import hrv
from .source import MqttSource
from .store import CappedCollection


class WindowAnalyzer:
    """Metrics over the window as it stands right now."""

    def __init__(
        self,
        window: CappedCollection,
        analysis: Optional[hrv.AnalysisConfig] = None,
        sample_rate_hz: float = 100.0,
    ):
        self.window = window
        self.analysis = analysis if analysis is not None else hrv.AnalysisConfig()
        self.sample_rate_hz = sample_rate_hz

    def current_metrics(self) -> hrv.HrvMetrics:
        records = [doc.body for doc in self.window.get_all()]
        signal = hrv.signal_from_records(records, self.sample_rate_hz)
        return hrv.analyze(signal, self.analysis)


class SensorIngestor:
    """Subscribes to the sensor topic and feeds the window.

    One source thread, so records land in arrival order. Every message is
    stored (duplicates are dropped by seq); every decimation-th fresh seq
    triggers an analysis, whose result goes to on_metrics. A window still
    too small to analyze just bumps a counter.
    """

    def __init__(
        self,
        window: CappedCollection,
        analyzer: WindowAnalyzer,
        address,
        topic: str,
        decimation_n: int = 100,
        on_metrics: Optional[Callable[[hrv.HrvMetrics], None]] = None,
    ):
        if decimation_n < 1:
            raise ValueError("decimation_n must be a positive integer")
        self.window = window
        self.analyzer = analyzer
        self.decimation_n = decimation_n
        self.on_metrics = on_metrics
        self.skipped_analyses = 0
        self.errors: list = []
        self.source = MqttSource(address, topic, self._store, self._reject, name="ingest")

    def _store(self, record):
        try:
            fresh = self.window.insert_unique(record)
            if fresh and record["seq"] % self.decimation_n == 0:
                try:
                    metrics = self.analyzer.current_metrics()
                except hrv.AnalysisError:
                    self.skipped_analyses += 1
                else:
                    if self.on_metrics is not None:
                        self.on_metrics(metrics)
        except Exception as exc:  # a bad record must not kill the pump
            self._reject(record, exc)

    def _reject(self, payload, exc: Exception):
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def drained(self, published: int) -> bool:
        return self.source.delivered >= published

    def finalize(self):
        """One last analysis over the final window, when it can be analyzed."""
        try:
            metrics = self.analyzer.current_metrics()
        except hrv.AnalysisError:
            return
        if self.on_metrics is not None:
            self.on_metrics(metrics)

    def counters(self) -> dict:
        return {
            "delivered": self.source.delivered,
            "pump_errors": len(self.errors),
            "skipped_analyses": self.skipped_analyses,
        }

    def stop(self):
        self.source.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
