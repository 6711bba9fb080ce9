"""Local function host: stateless handlers invoked with event envelopes.

Handlers run on warm worker threads: an invocation hands its job to an
idle worker, or starts one when none is idle, and waits at most the
descriptor's timeout for the result. A handler that overruns gets a
"timeout" record at the deadline and its result is discarded; its worker
stays busy until the handler returns and then rejoins the pool. Handlers
receive (ctx, envelope) and must keep no state between calls. Everything
they may touch arrives through the context: the run's capped window, the
analysis settings, and invoke() for calling sibling functions. An
envelope carries an event id and the payload, nothing else.

The built-in trio wires a telemetry pipeline out of chained functions:
subscriber stores each sensor record through store_ops and periodically
asks metrics_calc for fresh numbers, which in turn pulls the window back
out through store_ops. An MQTT trigger feeds subscriber one message at a
time, serialized, so seq order survives the hop, and hands every set of
numbers subscriber returns to its on_metrics, as SensorIngestor does.
"""

from __future__ import annotations

import copy
import threading
import time
import uuid
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import hrv
from .report import metrics_to_dict
from .source import MqttSource
from .store import CappedCollection


class FaasError(Exception):
    """Base for host-level failures (handler failures go in the record)."""


class RegistrationError(FaasError):
    """The function name is already taken."""


class NoSuchFunction(FaasError):
    """Invoke or trigger named a function that was never registered."""


@dataclass(frozen=True)
class FunctionDescriptor:
    name: str
    handler: Callable
    timeout_ms: int = 60_000
    # Carried for parity with hosted platforms; nothing enforces it here.
    memory_mb: int = 128

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("function name must be a non-empty string")
        if not callable(self.handler):
            raise ValueError("handler must be callable")
        if not _positive_int(self.timeout_ms):
            raise ValueError("timeout_ms must be a positive integer")
        if not _positive_int(self.memory_mb):
            raise ValueError("memory_mb must be a positive integer")


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class EventEnvelope:
    event_id: str
    payload: Any


@dataclass(frozen=True)
class InvocationRecord:
    event_id: str
    function: str
    outcome: str  # "ok" | "error" | "timeout"
    duration_ms: float
    result: Any = None
    error: Optional[str] = None


def make_envelope(payload: Any) -> EventEnvelope:
    return EventEnvelope(uuid.uuid4().hex, payload)


class InvocationContext:
    """The complete set of things a handler is allowed to touch."""

    __slots__ = ("_host",)

    def __init__(self, host: "FunctionHost"):
        self._host = host

    @property
    def analysis(self) -> hrv.AnalysisConfig:
        return self._host.analysis

    @property
    def sample_rate_hz(self) -> float:
        return self._host.sample_rate_hz

    def window(self) -> CappedCollection:
        """The capped sensor window."""
        return self._host.window

    def invoke(self, name: str, payload: Any) -> InvocationRecord:
        return self._host.invoke(name, make_envelope(payload))


class _Worker:
    """One pooled thread; it sleeps on its wake lock between jobs."""

    __slots__ = ("_pool", "_job", "_wake")

    def __init__(self, pool: "_WorkerPool"):
        self._pool = pool
        self._job = None
        self._wake = threading.Lock()
        self._wake.acquire()
        threading.Thread(target=self._serve, name="faas-worker", daemon=True).start()

    def hand(self, job) -> None:
        """Run job, a (callable, held lock) pair, or exit when it is None."""
        self._job = job
        self._wake.release()

    def _serve(self) -> None:
        while True:
            self._wake.acquire()
            job, self._job = self._job, None
            if job is None:
                return
            run, done = job
            job = None
            run()
            # The job's closure holds its host; a parked worker must not
            # keep an abandoned host alive.
            run = None
            # Back on the idle list before the caller wakes, so a caller
            # that invokes again straight away finds this worker warm.
            parked = self._pool.park(self)
            done.release()
            if not parked:
                return


class _WorkerPool:
    """Idle workers, reused last-in first-out; grows on demand, never capped.

    A handler that invokes a sibling holds its worker while the inner call
    needs another, so any fixed cap could deadlock a nested chain.
    """

    def __init__(self):
        self._idle: list[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False

    def submit(self, run: Callable[[], None], done: threading.Lock) -> None:
        with self._lock:
            worker = self._idle.pop() if self._idle else None
        if worker is None:
            worker = _Worker(self)
        worker.hand((run, done))

    def park(self, worker: _Worker) -> bool:
        with self._lock:
            if self._closed:
                return False
            self._idle.append(worker)
            return True

    def close(self) -> None:
        """Retire idle workers; busy ones exit when their job ends."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.hand(None)


class FunctionHost:
    """Registry plus invoker. Thread-safe; invocations may overlap freely."""

    def __init__(
        self,
        window: CappedCollection,
        analysis: Optional[hrv.AnalysisConfig] = None,
        sample_rate_hz: float = 100.0,
    ):
        self.window = window
        self.analysis = analysis if analysis is not None else hrv.AnalysisConfig()
        self.sample_rate_hz = sample_rate_hz
        # only invocations that did not return ok; the rest are counted
        self.records: list[InvocationRecord] = []
        self._calls: dict[str, int] = {}
        self._functions: dict[str, FunctionDescriptor] = {}
        self._lock = threading.Lock()
        # Handlers hold no state, so every invocation can share one context.
        self._ctx = InvocationContext(self)
        self._pool = _WorkerPool()
        # A host dropped without close() must not leave its idle workers
        # parked; it sits in a cycle with its context, so gc retires them.
        weakref.finalize(self, self._pool.close)

    def register(self, descriptor: FunctionDescriptor) -> None:
        with self._lock:
            if descriptor.name in self._functions:
                raise RegistrationError(f"function {descriptor.name!r} is already registered")
            self._functions[descriptor.name] = descriptor

    def descriptor(self, name: str) -> FunctionDescriptor:
        with self._lock:
            try:
                return self._functions[name]
            except KeyError:
                raise NoSuchFunction(f"no function named {name!r}") from None

    def invoke(self, name: str, envelope: EventEnvelope) -> InvocationRecord:
        desc = self.descriptor(name)
        ctx = self._ctx
        # The handler gets its own copy of the payload, so a mutating
        # handler cannot reach back into the caller's objects.
        guarded = EventEnvelope(envelope.event_id, copy.deepcopy(envelope.payload))
        box: dict = {}

        def run():
            try:
                box["value"] = desc.handler(ctx, guarded)
            except BaseException as exc:  # failures belong in the record, not on stderr
                box["exc"] = exc

        done = threading.Lock()
        done.acquire()
        started = time.perf_counter()
        self._pool.submit(run, done)
        finished = done.acquire(timeout=desc.timeout_ms / 1000.0)
        duration_ms = (time.perf_counter() - started) * 1000.0
        if not finished:
            rec = InvocationRecord(
                envelope.event_id, name, "timeout", duration_ms,
                None, f"no result within {desc.timeout_ms} ms",
            )
        elif "exc" in box:
            exc = box["exc"]
            rec = InvocationRecord(
                envelope.event_id, name, "error", duration_ms,
                None, f"{type(exc).__name__}: {exc}",
            )
        else:
            rec = InvocationRecord(envelope.event_id, name, "ok", duration_ms, box.get("value"), None)
        with self._lock:
            self._calls[name] = self._calls.get(name, 0) + 1
            if rec.outcome != "ok":
                self.records.append(rec)
        return rec

    def invocation_count(self, name: str) -> int:
        with self._lock:
            return self._calls.get(name, 0)

    def close(self) -> None:
        self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def fn_store_ops(ctx: InvocationContext, env: EventEnvelope):
    """Window ops: insert, get_all, delete_all."""
    payload = env.payload
    if not isinstance(payload, dict):
        raise ValueError("store_ops payload must be an object")
    op = payload.get("op")
    coll = ctx.window()
    if op == "insert":
        # qos-1 redeliveries die here, same rule as every other pipeline
        return {"inserted": coll.insert_unique(payload.get("body"))}
    if op == "get_all":
        return {"documents": [doc.body for doc in coll.get_all()]}
    if op == "delete_all":
        return {"deleted": coll.delete_all()}
    raise ValueError(f"unknown op: {op!r}")


def fn_metrics_calc(ctx: InvocationContext, env: EventEnvelope):
    """Pull the window back out through store_ops and analyze it."""
    fetched = ctx.invoke("store_ops", {"op": "get_all"})
    if fetched.outcome != "ok":
        raise RuntimeError(f"store_ops get_all failed: {fetched.error}")
    try:
        signal = hrv.signal_from_records(fetched.result["documents"], ctx.sample_rate_hz)
        metrics = hrv.analyze(signal, ctx.analysis)
    except hrv.AnalysisError as exc:
        raise ValueError("insufficient data") from exc
    return metrics_to_dict(metrics)


def fn_subscriber(ctx: InvocationContext, env: EventEnvelope):
    """Store one sensor record; every decimation-th seq, return fresh numbers.

    Only store_ops judges the record. Returns metrics_calc's result, or None.
    """
    payload = env.payload
    if not isinstance(payload, dict) or "record" not in payload:
        raise ValueError("subscriber payload must carry a sensor record")
    record = payload["record"]
    decimation = payload.get("decimation", 1)
    stored = ctx.invoke("store_ops", {"op": "insert", "body": record})
    if stored.outcome != "ok":
        raise RuntimeError(f"store_ops insert failed: {stored.error}")
    # A redelivered message must not retrigger analysis, or the pipelines
    # would disagree on how many reports they wrote.
    if stored.result["inserted"] and record["seq"] % decimation == 0:
        # A window still too short to analyze is routine early on; that
        # failure is already in the host's records, nothing to add here.
        return ctx.invoke("metrics_calc", {}).result


_BUILTINS = (
    ("store_ops", fn_store_ops),
    ("metrics_calc", fn_metrics_calc),
    ("subscriber", fn_subscriber),
)


def register_builtins(host: FunctionHost) -> None:
    for name, handler in _BUILTINS:
        host.register(FunctionDescriptor(name, handler))


class TriggerHandle:
    """A live broker subscription feeding subscriber, one message at a time."""

    def __init__(self, host, address, topic, decimation_n, on_metrics):
        self.decimation_n = decimation_n
        self.on_metrics = on_metrics
        self._host = host
        self.source = MqttSource(
            address, topic, self._invoke, self._invoke_undecoded, name="faas-trigger"
        )

    def _invoke(self, record):
        env = make_envelope({"record": record, "decimation": self.decimation_n})
        self._report(self._host.invoke("subscriber", env).result)

    def _report(self, metrics):
        if metrics is not None and self.on_metrics is not None:
            self.on_metrics(metrics)

    def _invoke_undecoded(self, payload: bytes, exc: Exception):
        # Hand the raw text over anyway; store_ops refuses it and the
        # refusal shows up as error records.
        self._invoke(payload.decode("utf-8", "replace"))

    def drained(self, published: int) -> bool:
        return self.source.delivered >= published

    def finalize(self):
        """One last analysis over the final window."""
        self._report(self._host.invoke("metrics_calc", make_envelope({})).result)

    def counters(self) -> dict:
        return {
            "delivered": self.source.delivered,
            "invocations": sum(self._host.invocation_count(name) for name, _ in _BUILTINS),
            "metrics_calls": self._host.invocation_count("metrics_calc"),
        }

    def stop(self):
        self.source.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def bind_mqtt_trigger(
    host: FunctionHost,
    address,
    topic: str,
    decimation_n: int = 100,
    on_metrics: Optional[Callable[[dict], None]] = None,
) -> TriggerHandle:
    """Feed topic's records to subscriber; on_metrics gets each metrics dict."""
    host.descriptor("subscriber")  # fail now, not on the pump thread
    if not _positive_int(decimation_n):
        raise ValueError("decimation_n must be a positive integer")
    # a broker that never answers raises BrokerUnreachable, as SensorIngestor does
    return TriggerHandle(host, address, topic, decimation_n, on_metrics)
