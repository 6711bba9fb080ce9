"""The direct-call pipeline: one process, three objects, no middle layer.

WindowGateway owns the capped window, WindowAnalyzer turns whatever the
window currently holds into metrics, and SensorIngestor pumps broker
messages into the gateway, asking the analyzer for fresh numbers every
decimation-th stored seq. The other two pipelines reach the same three
responsibilities through a flow graph or a function host; this one just
calls methods.
"""

from __future__ import annotations

import json
import threading
import uuid
from typing import Callable, Optional

from . import hrv
from .mqtt import SessionClosed, client_connect
from .store import DocStore


class WindowGateway:
    """All access to the retained sensor window goes through here."""

    def __init__(self, store: DocStore, collection: str = "window"):
        self._coll = store.collection(collection)

    def add(self, record) -> bool:
        return self._coll.insert_unique(record)

    def fetch(self) -> list:
        return [doc.body for doc in self._coll.get_all()]

    def clear(self) -> int:
        return self._coll.delete_all()

    def count(self) -> int:
        return self._coll.count()

    def seq_range(self) -> Optional[tuple]:
        docs = self._coll.get_all()
        if not docs:
            return None
        return (docs[0].body["seq"], docs[-1].body["seq"])


class WindowAnalyzer:
    """Metrics over the window as it stands right now.

    metrics_fn exists so a run can swap the analysis chain out from under
    this one pipeline; the cross-pipeline comparison uses that to prove
    it notices when one of them drifts.
    """

    def __init__(
        self,
        gateway: WindowGateway,
        analysis: Optional[hrv.AnalysisConfig] = None,
        sample_rate_hz: float = 100.0,
        metrics_fn: Optional[Callable[[list], hrv.HrvMetrics]] = None,
    ):
        self.gateway = gateway
        self.analysis = analysis if analysis is not None else hrv.AnalysisConfig()
        self.sample_rate_hz = sample_rate_hz
        self._metrics_fn = metrics_fn

    def current_metrics(self) -> hrv.HrvMetrics:
        records = self.gateway.fetch()
        if self._metrics_fn is not None:
            return self._metrics_fn(records)
        signal = hrv.signal_from_records(records, self.sample_rate_hz)
        return hrv.analyze(signal, self.analysis)


class SensorIngestor:
    """Subscribes to the sensor topic and feeds the gateway.

    One pump thread, so records land in arrival order. Every message is
    stored (duplicates are dropped by seq); every decimation-th fresh seq
    triggers an analysis, whose result goes to on_metrics. A window still
    too small to analyze just bumps a counter.
    """

    def __init__(
        self,
        gateway: WindowGateway,
        analyzer: WindowAnalyzer,
        address,
        topic: str,
        decimation_n: int = 100,
        on_metrics: Optional[Callable[[hrv.HrvMetrics], None]] = None,
    ):
        if decimation_n < 1:
            raise ValueError("decimation_n must be a positive integer")
        self.gateway = gateway
        self.analyzer = analyzer
        self.topic = topic
        self.decimation_n = decimation_n
        self.on_metrics = on_metrics
        self.delivered = 0
        self.skipped_analyses = 0
        self.errors: list = []
        self._stop = threading.Event()
        self._session = client_connect(
            address, client_id=f"ingest-{uuid.uuid4().hex[:8]}", keep_alive_s=30
        )
        self._session.subscribe(topic, qos=1)
        self._thread = threading.Thread(target=self._pump, name="ingestor", daemon=True)
        self._thread.start()

    def _pump(self):
        while not self._stop.is_set():
            try:
                messages = self._session.poll(timeout_s=0.1)
            except SessionClosed:
                return
            for msg in messages:
                self._handle(msg)
                self.delivered += 1

    def _handle(self, msg):
        try:
            record = json.loads(msg.payload.decode("utf-8"))
            fresh = self.gateway.add(record)
            if fresh and record["seq"] % self.decimation_n == 0:
                try:
                    metrics = self.analyzer.current_metrics()
                except hrv.AnalysisError:
                    self.skipped_analyses += 1
                else:
                    if self.on_metrics is not None:
                        self.on_metrics(metrics)
        except Exception as exc:  # a bad record must not kill the pump
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def stop(self):
        self._stop.set()
        # closing the session wakes the pump out of its poll at once
        self._session.close()
        self._thread.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
