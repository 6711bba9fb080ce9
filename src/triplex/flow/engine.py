"""Flow execution: one worker thread per flow, run-to-completion per message.

Sources (mqtt-in, interval-inject, manual-inject) feed a FIFO queue; the
worker pops one message, runs the target node, and fans the result out to
the node's out-wires in declaration order. The first wire receives the
payload itself, later wires a deep copy, so downstream nodes never share
mutable state. A failing node routes the error to the flow's error sink
and the flow keeps running.
"""

from __future__ import annotations

import copy
import json
import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .. import hrv
from ..mqtt import SessionClosed, client_connect
from ..report import metrics_to_dict, report_from_metric_dict
from ..store import DocStore
from .parser import FlowGraph

_SHUTDOWN = object()


def _now_ms() -> int:
    return int(time.time() * 1000)


@dataclass(frozen=True)
class FlowMessage:
    payload: Any
    source_node: str
    ts_ms: int


@dataclass
class FlowRuntime:
    """Everything node behaviors need that is not in the flow file."""

    store: DocStore
    analysis: hrv.AnalysisConfig = field(default_factory=hrv.AnalysisConfig)
    broker_address: Optional[tuple] = None
    sample_rate_hz: float = 100.0
    default_collection: str = "window"
    mode_tag: str = "flow"
    report: Callable[[dict], None] = lambda record: None
    clock_ms: Callable[[], int] = _now_ms


class FlowHandle:
    """A running flow; stop() drains in-flight messages before closing."""

    def __init__(self, graph: FlowGraph, runtime: FlowRuntime):
        self.graph = graph
        self.runtime = runtime
        self.errors: list = []
        self.debug: list = []
        self._queue: queue.Queue = queue.Queue()
        self._stop_sources = threading.Event()
        self._stopped = False
        self._sessions = []
        self._source_threads = []
        self._ready_events = []

        self._worker = threading.Thread(target=self._work_loop, name="flow-worker", daemon=True)
        self._worker.start()
        for node in graph.nodes:
            if node.type == "interval-inject":
                t = threading.Thread(
                    target=self._interval_loop, args=(node,), name=f"flow-{node.id}", daemon=True
                )
                t.start()
                self._source_threads.append(t)
            elif node.type == "mqtt-in":
                ready = threading.Event()
                self._ready_events.append(ready)
                t = threading.Thread(
                    target=self._mqtt_in_loop, args=(node, ready), name=f"flow-{node.id}", daemon=True
                )
                t.start()
                self._source_threads.append(t)

    # -- sources --------------------------------------------------------

    def inject(self, node_id: str, payload=None):
        """Fire a manual-inject source once."""
        node = self.graph.node(node_id)
        if node.type != "manual-inject":
            raise ValueError(f"node {node_id!r} is {node.type!r}, not manual-inject")
        self._fan_out(node_id, payload)

    def wait_sources(self, timeout_s: float = 5.0) -> bool:
        """Block until every mqtt-in source has its subscription up."""
        deadline = time.monotonic() + timeout_s
        for event in self._ready_events:
            if not event.wait(max(0.0, deadline - time.monotonic())):
                return False
        return True

    def _interval_loop(self, node):
        period_s = node.config.get("period_ms", 1000) / 1000.0
        tick = 0
        while not self._stop_sources.wait(period_s):
            self._fan_out(node.id, {"tick": tick})
            tick += 1

    def _mqtt_in_loop(self, node, ready):
        try:
            session = client_connect(
                self.runtime.broker_address,
                client_id=f"flow-{node.id}-{uuid.uuid4().hex[:8]}",
                keep_alive_s=30,
            )
        except Exception as exc:
            self._fail(node.id, exc)
            ready.set()
            return
        self._sessions.append(session)
        try:
            session.subscribe(node.config["topic"], qos=1)
        except SessionClosed:
            return  # stop() closed the session before its subscription was up
        ready.set()  # subscription live: publishers may start
        while not self._stop_sources.is_set():
            try:
                messages = session.poll(timeout_s=0.1)
            except SessionClosed:
                break
            for msg in messages:
                try:
                    record = json.loads(msg.payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    self._fail(node.id, exc)
                    continue
                self._fan_out(node.id, record)

    # -- message pump -----------------------------------------------------

    def _fan_out(self, from_id: str, payload):
        targets = self.graph.out_wires(from_id)
        for i, to in enumerate(targets):
            out = payload if i == 0 else copy.deepcopy(payload)
            self._queue.put((to, FlowMessage(out, from_id, self.runtime.clock_ms())))

    def _work_loop(self):
        while True:
            item = self._queue.get()
            try:
                if item is _SHUTDOWN:
                    return
                node_id, msg = item
                try:
                    self._execute(self.graph.node(node_id), msg)
                except Exception as exc:
                    self._fail(node_id, exc)
            finally:
                self._queue.task_done()

    def _execute(self, node, msg: FlowMessage):
        rt = self.runtime
        kind = node.type
        if kind == "store-insert":
            coll = rt.store.collection(node.config.get("collection", rt.default_collection))
            payload = msg.payload
            if isinstance(payload, dict) and "seq" in payload:
                coll.insert_unique(payload)  # drops qos-1 redeliveries
            else:
                coll.insert(payload)
            self._fan_out(node.id, payload)
        elif kind == "store-get-all":
            coll = rt.store.collection(node.config.get("collection", rt.default_collection))
            self._fan_out(node.id, [doc.body for doc in coll.get_all()])
        elif kind == "store-delete-all":
            coll = rt.store.collection(node.config.get("collection", rt.default_collection))
            self._fan_out(node.id, coll.delete_all())
        elif kind == "hrv-analyze":
            rate = node.config.get("sample_rate_hz", rt.sample_rate_hz)
            signal = hrv.signal_from_records(msg.payload, rate)
            metrics = hrv.analyze(signal, rt.analysis)
            self._fan_out(node.id, metrics_to_dict(metrics))
        elif kind == "debug":
            label = node.config.get("label", node.id)
            self.debug.append((label, msg.payload))
        elif kind == "report":
            record = report_from_metric_dict(
                msg.payload, rt.mode_tag, rt.clock_ms(), rt.analysis
            )
            rt.report(record)
        else:
            # sources never appear here: wires into them are rejected at parse
            raise AssertionError(f"message routed to source node {node.id!r}")

    def _fail(self, node_id: str, exc: Exception):
        self.errors.append((node_id, f"{type(exc).__name__}: {exc}"))

    # -- lifecycle --------------------------------------------------------

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Wait until every queued message has been fully processed."""
        # task_done() notifies this condition when the last task finishes
        done = self._queue.all_tasks_done
        with done:
            return done.wait_for(lambda: self._queue.unfinished_tasks == 0, timeout_s)

    def stop(self, drain_timeout_s: float = 10.0):
        """Sources first, then drain in-flight messages, then the worker."""
        if self._stopped:
            return
        self._stopped = True
        self._stop_sources.set()
        # closing a session wakes its mqtt-in loop out of its poll at once;
        # the second pass closes any a still-connecting loop opened meanwhile
        for session in self._sessions:
            session.close()
        for t in self._source_threads:
            t.join(timeout=5.0)
        for session in self._sessions:
            session.close()
        self.drain(drain_timeout_s)
        self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def run_flow(graph: FlowGraph, runtime: FlowRuntime) -> FlowHandle:
    """Start executing a validated graph; returns its handle."""
    return FlowHandle(graph, runtime)
