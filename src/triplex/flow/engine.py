"""Flow execution: each message runs through the graph on its source's thread.

The thread that fires a source (the mqtt-in pump, an interval-inject timer,
the caller of inject) runs the message to completion under the flow lock,
so each source keeps its order. A node's result goes to its out-wires in
declaration order, depth first; the first wire gets the payload itself,
later wires a deep copy taken before the first runs. A failing node's
error goes to the error sink and the flow keeps running.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from .. import hrv
from ..mqtt import MqttError
from ..report import make_report, metrics_to_dict
from ..source import MqttSource
from ..store import CappedCollection
from .parser import FlowGraph


@dataclass
class FlowRuntime:
    """Everything node behaviors need that is not in the flow file."""

    window: CappedCollection
    analysis: hrv.AnalysisConfig = field(default_factory=hrv.AnalysisConfig)
    broker_address: Optional[tuple] = None
    sample_rate_hz: float = 100.0
    report: Callable[[dict], None] = lambda record: None


class FlowHandle:
    """A running flow; stop() lets the message each source is running finish."""

    def __init__(self, graph: FlowGraph, runtime: FlowRuntime):
        self.graph = graph
        self.runtime = runtime
        self.errors: list = []
        self.debug: list = []
        self.sources: list = []  # one MqttSource per mqtt-in node
        self._lock = threading.Lock()  # held while a message runs
        self._stop_timers = threading.Event()
        self._stopped = False
        self._timers = []
        for node in graph.nodes:
            if node.type == "interval-inject":
                t = threading.Thread(
                    target=self._interval_loop, args=(node,), name=f"flow-{node.id}", daemon=True
                )
                t.start()
                self._timers.append(t)
            elif node.type == "mqtt-in":
                self._start_source(node)

    # -- sources --------------------------------------------------------

    def inject(self, node_id: str, payload=None):
        """Fire a manual-inject source once."""
        node = self.graph.node(node_id)
        if node.type != "manual-inject":
            raise ValueError(f"node {node_id!r} is {node.type!r}, not manual-inject")
        self._fire(node_id, payload)

    def _interval_loop(self, node):
        period_s = node.config.get("period_ms", 1000) / 1000.0
        tick = 0
        while not self._stop_timers.wait(period_s):
            self._fire(node.id, {"tick": tick})
            tick += 1

    def _start_source(self, node):
        # a source that cannot subscribe stops the flow and raises, as in the other modes
        try:
            if self.runtime.broker_address is None:
                raise MqttError("the flow runtime has no broker address")
            source = MqttSource(
                self.runtime.broker_address,
                node.config["topic"],
                lambda record: self._fire(node.id, record),
                lambda payload, exc: self._fail(node.id, exc),
                name=f"flow-{node.id}",
            )
        except MqttError:
            self.stop()
            raise
        self.sources.append(source)

    # -- execution --------------------------------------------------------

    def _fire(self, source_id: str, payload):
        with self._lock:
            self._fan_out(source_id, payload)

    def _fan_out(self, from_id: str, payload):
        targets = self.graph.out_wires(from_id)
        payloads = [payload] + [copy.deepcopy(payload) for _ in targets[1:]]
        for to, out in zip(targets, payloads):
            try:
                self._execute(self.graph.node(to), out)
            except Exception as exc:
                self._fail(to, exc)

    def _execute(self, node, payload):
        rt = self.runtime
        kind = node.type
        if kind == "store-insert":
            rt.window.insert_unique(payload)  # drops qos-1 redeliveries
            self._fan_out(node.id, payload)
        elif kind == "store-get-all":
            self._fan_out(node.id, [doc.body for doc in rt.window.get_all()])
        elif kind == "store-delete-all":
            self._fan_out(node.id, rt.window.delete_all())
        elif kind == "hrv-analyze":
            signal = hrv.signal_from_records(payload, rt.sample_rate_hz)
            metrics = hrv.analyze(signal, rt.analysis)
            self._fan_out(node.id, metrics_to_dict(metrics))
        elif kind == "debug":
            label = node.config.get("label", node.id)
            self.debug.append((label, payload))
        elif kind == "report":
            rt.report(make_report(payload, "flow", rt.analysis))
        else:
            # sources never appear here: wires into them are rejected at parse
            raise AssertionError(f"message routed to source node {node.id!r}")

    def _fail(self, node_id: str, exc: Exception):
        self.errors.append((node_id, f"{type(exc).__name__}: {exc}"))

    # -- lifecycle --------------------------------------------------------

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Wait until no message is running; False if one still is after timeout_s."""
        if not self._lock.acquire(timeout=timeout_s):
            return False
        self._lock.release()
        return True

    def drained(self, published: int) -> bool:
        """Every mqtt-in source has run the first `published` records through."""
        return all(s.delivered >= published for s in self.sources)

    def finalize(self):
        """Fire every manual-inject source once; each runs before inject returns."""
        for node in self.graph.nodes:
            if node.type == "manual-inject":
                self.inject(node.id)

    def counters(self) -> dict:
        return {"node_errors": len(self.errors)}

    def stop(self):
        """Stop the timers and sources; each finishes the message it is running."""
        if self._stopped:
            return
        self._stopped = True
        self._stop_timers.set()
        for source in self.sources:
            source.stop()
        for t in self._timers:
            t.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def run_flow(graph: FlowGraph, runtime: FlowRuntime) -> FlowHandle:
    """Start executing a validated graph; returns its handle."""
    return FlowHandle(graph, runtime)
