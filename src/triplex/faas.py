"""Local function host: stateless handlers invoked with event envelopes.

Handlers run on warm worker threads: an invocation hands its job to an
idle worker, or starts one when none is idle, and waits at most the
descriptor's timeout for the result. A handler that overruns gets a
"timeout" record at the deadline and its result is discarded; its worker
stays busy until the handler returns and then rejoins the pool. Handlers
receive (ctx, envelope) and must keep no state between calls. Everything
they may touch arrives through the context: the capped window collection,
the analysis settings, and invoke() for calling sibling functions.

The built-in trio wires a telemetry pipeline out of chained functions:
subscriber stores each sensor record through store_ops and periodically
asks metrics_calc for fresh numbers, which in turn pulls the window back
out through store_ops. An MQTT trigger feeds subscriber one message at a
time, serialized, so seq order survives the hop.
"""

from __future__ import annotations

import copy
import json
import threading
import time
import uuid
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import hrv
from .mqtt import MqttError, SessionClosed, client_connect
from .report import metrics_to_dict
from .store import DocStore


class FaasError(Exception):
    """Base for host-level failures (handler failures go in the record)."""


class RegistrationError(FaasError):
    """The function name is already taken."""


class NoSuchFunction(FaasError):
    """Invoke or trigger named a function that was never registered."""


class TriggerError(FaasError):
    """The MQTT trigger could not reach the broker."""


def _now_ms() -> int:
    return int(time.time() * 1000)


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
    source: str
    ts_ms: int
    payload: Any


@dataclass(frozen=True)
class InvocationRecord:
    event_id: str
    function: str
    outcome: str  # "ok" | "error" | "timeout"
    duration_ms: float
    result: Any = None
    error: Optional[str] = None


def make_envelope(source: str, payload: Any, ts_ms: Optional[int] = None) -> EventEnvelope:
    if ts_ms is None:
        ts_ms = _now_ms()
    return EventEnvelope(uuid.uuid4().hex, source, ts_ms, payload)


def record_to_dict(rec: InvocationRecord) -> dict:
    return {
        "event_id": rec.event_id,
        "function": rec.function,
        "outcome": rec.outcome,
        "duration_ms": rec.duration_ms,
        "result": rec.result,
        "error": rec.error,
    }


class InvocationContext:
    """The complete set of things a handler is allowed to touch."""

    __slots__ = ("_host", "function")

    def __init__(self, host: "FunctionHost", function: str):
        self._host = host
        self.function = function

    @property
    def analysis(self) -> hrv.AnalysisConfig:
        return self._host.analysis

    @property
    def sample_rate_hz(self) -> float:
        return self._host.sample_rate_hz

    def window(self):
        """The capped collection holding the sensor window."""
        return self._host.store.collection(self._host.collection)

    def invoke(self, name: str, payload: Any) -> InvocationRecord:
        env = make_envelope(f"fn/{self.function}", payload, self._host.clock_ms())
        return self._host.invoke(name, env)


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
        store: DocStore,
        collection: str = "window",
        analysis: Optional[hrv.AnalysisConfig] = None,
        sample_rate_hz: float = 100.0,
        log_path=None,
        clock_ms: Callable[[], int] = _now_ms,
    ):
        self.store = store
        self.collection = collection
        self.analysis = analysis if analysis is not None else hrv.AnalysisConfig()
        self.sample_rate_hz = sample_rate_hz
        self.clock_ms = clock_ms
        self.records: list[InvocationRecord] = []
        self.observers: list[Callable[[InvocationRecord], None]] = []
        self._functions: dict[str, FunctionDescriptor] = {}
        self._lock = threading.Lock()
        self._log = open(log_path, "a", encoding="utf-8") if log_path else None
        self._log_lock = threading.Lock()
        self._pool = _WorkerPool()
        # A host dropped without close() must not leave its idle workers
        # parked for the rest of the process.
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
        ctx = InvocationContext(self, name)
        # The handler gets its own copy of the payload, so a mutating
        # handler cannot reach back into the caller's objects.
        guarded = EventEnvelope(
            envelope.event_id, envelope.source, envelope.ts_ms, copy.deepcopy(envelope.payload)
        )
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
        self._append(rec)
        return rec

    def _append(self, rec: InvocationRecord) -> None:
        with self._lock:
            self.records.append(rec)
        if self._log is not None:
            with self._log_lock:
                if self._log is not None:
                    self._log.write(json.dumps(record_to_dict(rec), separators=(",", ":"), default=repr) + "\n")
                    self._log.flush()
        for observer in list(self.observers):
            observer(rec)

    def invocation_count(self, name: str) -> int:
        with self._lock:
            return sum(1 for r in self.records if r.function == name)

    def close(self) -> None:
        self._pool.close()
        with self._log_lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def fn_store_ops(ctx: InvocationContext, env: EventEnvelope):
    """Window collection ops: insert, get_all, delete_all."""
    payload = env.payload
    if not isinstance(payload, dict):
        raise ValueError("store_ops payload must be an object")
    op = payload.get("op")
    coll = ctx.window()
    if op == "insert":
        body = payload.get("body")
        if isinstance(body, dict) and "seq" in body:
            # qos-1 redeliveries die here, same rule as every other pipeline
            return {"inserted": coll.insert_unique(body)}
        if body is None:
            raise ValueError("insert needs a body")
        coll.insert(body)
        return {"inserted": True}
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
    """Store one sensor record; every decimation-th seq, run the numbers."""
    payload = env.payload
    if not isinstance(payload, dict) or not isinstance(payload.get("record"), dict):
        raise ValueError("subscriber payload must carry a sensor record object")
    record = payload["record"]
    if "seq" not in record:
        raise ValueError("sensor record has no seq")
    decimation = payload.get("decimation", 1)
    stored = ctx.invoke("store_ops", {"op": "insert", "body": record})
    if stored.outcome != "ok":
        raise RuntimeError(f"store_ops insert failed: {stored.error}")
    # A redelivered message must not retrigger analysis, or the pipelines
    # would disagree on how many reports they wrote.
    if stored.result["inserted"] and record["seq"] % decimation == 0:
        # A window still too short to analyze is routine early on; that
        # failure is already on the invocation log, nothing to add here.
        ctx.invoke("metrics_calc", {})


def register_builtins(host: FunctionHost, timeout_ms: int = 60_000, memory_mb: int = 128) -> None:
    for name, handler in (
        ("store_ops", fn_store_ops),
        ("metrics_calc", fn_metrics_calc),
        ("subscriber", fn_subscriber),
    ):
        host.register(FunctionDescriptor(name, handler, timeout_ms, memory_mb))


class TriggerHandle:
    """A live broker subscription feeding one function, one message at a time."""

    def __init__(self, host, session, topic, function_name, decimation_n):
        self.topic = topic
        self.function = function_name
        self.decimation_n = decimation_n
        self.delivered = 0
        self._host = host
        self._session = session
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._pump, name=f"trigger-{topic}", daemon=True)
        self._thread.start()

    def _pump(self):
        while not self._stop.is_set():
            try:
                messages = self._session.poll(timeout_s=0.1)
            except SessionClosed:
                return
            for msg in messages:
                try:
                    record = json.loads(msg.payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    # Hand the raw text over anyway; subscriber rejects it
                    # and the rejection shows up as an error record.
                    record = msg.payload.decode("utf-8", "replace")
                env = make_envelope(
                    f"mqtt/{msg.topic}",
                    {"record": record, "decimation": self.decimation_n},
                    self._host.clock_ms(),
                )
                self._host.invoke(self.function, env)
                self.delivered += 1

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._session.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def bind_mqtt_trigger(
    host: FunctionHost,
    address,
    topic: str,
    function_name: str = "subscriber",
    decimation_n: int = 100,
    connect_attempts: int = 4,
    backoff_s: float = 0.1,
) -> TriggerHandle:
    host.descriptor(function_name)  # fail now, not on the pump thread
    if not _positive_int(decimation_n):
        raise ValueError("decimation_n must be a positive integer")
    delay = backoff_s
    last_exc: Optional[Exception] = None
    session = None
    for attempt in range(connect_attempts):
        try:
            session = client_connect(
                address, client_id=f"faas-trigger-{uuid.uuid4().hex[:8]}", keep_alive_s=30
            )
            break
        except (OSError, MqttError) as exc:
            last_exc = exc
            if attempt < connect_attempts - 1:
                time.sleep(delay)
                delay *= 2
    if session is None:
        raise TriggerError(
            f"broker at {address} unreachable after {connect_attempts} attempts"
        ) from last_exc
    session.subscribe(topic, qos=1)
    return TriggerHandle(host, session, topic, function_name, decimation_n)
