"""Seq-keyed probes wrapped around triplex's public boundaries.

Nothing under src/ knows about the benchmark. Probes replace a handful of
methods and module functions for the life of one pipeline run and record
perf_counter timestamps keyed by the sensor record's seq:

- ``ClientSession.publish``: when the replay session sends each record and
  when its PUBACK returns;
- ``CappedCollection.insert``: when each record lands in the window;
- ``CappedCollection.get_all``: the newest seq in the window an analysis
  read, so a report can be timed from that record's due time;
- ``Broker.__init__`` and ``ClientSession.subscribe``: set-up, from broker
  start to subscription live.

``Probes(traced=True)`` also records spans (name, start, end, parent, with
seq as the trace id) around calls into every layer, plus counters for the
codec and the poll loop. Spans stay in memory until the run is over.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
from time import perf_counter

from triplex import hrv
from triplex.faas import FunctionHost
from triplex.flow.engine import FlowHandle
from triplex.monolith import SensorIngestor, WindowAnalyzer
from triplex.mqtt import broker as mqtt_broker
from triplex.mqtt import client as mqtt_client
from triplex.mqtt.broker import Broker
from triplex.mqtt.client import ClientSession
from triplex.store import CappedCollection

_SEQ_PREFIX = b'{"seq":'


def payload_seq(payload: bytes) -> int:
    """seq of an emulator record without a full JSON parse."""
    if payload.startswith(_SEQ_PREFIX):
        end = payload.find(b",", len(_SEQ_PREFIX))
        if end > 0:
            return int(payload[len(_SEQ_PREFIX):end])
    return int(json.loads(payload)["seq"])


class Probes:
    """Installs the wrappers; ``with Probes(n) as p:`` restores them on exit."""

    def __init__(self, n_records: int, traced: bool = False):
        n = n_records + 1
        self.traced = traced
        self.publish_start = [0.0] * n
        self.publish_end = [0.0] * n
        self.insert_at = [0.0] * n
        self.duplicate_inserts = 0
        self.reports: list = []  # (perf_counter, newest seq of the analysed window)
        self.window_seq = 0
        self.broker_started = None
        self.subscribed: list = []
        self.analysis_errors = 0
        self.collection = None
        self.broker = None
        self.host = None
        self.flow = None
        self.ingestor = None
        # traced run only
        self.spans: list = []  # [id, parent id, name, trace seq, start, end]
        self.encode_s: list = []
        self.decode_s: list = []
        self.decoded: list = []  # one entry per complete packet decoded
        self.poll_batches: list = []
        self.polled_at = [0.0] * n
        self.invocations: list = []  # (function, outcome, error)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self):
        self._patch(ClientSession, "publish", self._wrap_publish)
        self._patch(ClientSession, "subscribe", self._wrap_subscribe)
        self._patch(CappedCollection, "insert", self._wrap_insert)
        self._patch(CappedCollection, "get_all", self._wrap_get_all)
        self._patch(Broker, "__init__", self._capture("broker", mark="broker_started"))
        self._patch(FunctionHost, "__init__", self._capture("host"))
        self._patch(FlowHandle, "__init__", self._capture("flow"))
        self._patch(SensorIngestor, "__init__", self._capture("ingestor"))
        if self.traced:
            for name in ("signal_from_records", "analyze"):
                self._patch(hrv, name, lambda fn, name=name: self._wrap_hrv(fn, "hrv." + name))
            self._patch(ClientSession, "poll", self._wrap_poll)
            for module in (mqtt_client, mqtt_broker):
                self._patch(module, "encode_packet", self._wrap_encode)
                self._patch(module, "decode_packet", self._wrap_decode)
            self._patch(WindowAnalyzer, "current_metrics", self._wrap_span("monolith.current_metrics"))
            self._patch(FunctionHost, "invoke", self._wrap_invoke)
            self._patch(FunctionHost, "descriptor", self._wrap_descriptor)
            self._patch(FlowHandle, "drain", self._wrap_span("flow.drain"))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _capture(self, attr, mark=None):
        def make(original):
            def init(obj, *args, **kwargs):
                if mark is not None:
                    setattr(self, mark, perf_counter())
                original(obj, *args, **kwargs)
                setattr(self, attr, obj)

            return init

        return make

    # -- end-to-end boundaries --------------------------------------------

    def _wrap_publish(self, original):
        start, end = self.publish_start, self.publish_end
        if not self.traced:

            def publish(session, topic, payload, qos=1):
                seq = payload_seq(payload)
                start[seq] = perf_counter()
                try:
                    return original(session, topic, payload, qos)
                finally:
                    end[seq] = perf_counter()

            return publish

        def publish_traced(session, topic, payload, qos=1):
            seq = payload_seq(payload)
            span = self.begin("mqtt.publish", seq)
            start[seq] = span[4]
            try:
                return original(session, topic, payload, qos)
            finally:
                self.end(span)
                end[seq] = span[5]

        return publish_traced

    def _wrap_subscribe(self, original):
        def subscribe(session, *args, **kwargs):
            granted = original(session, *args, **kwargs)
            self.subscribed.append(perf_counter())
            return granted

        return subscribe

    def _wrap_insert(self, original):
        inserted = self.insert_at
        traced = self.traced

        def insert(coll, body):
            span = self.begin("store.insert", body["seq"]) if traced else None
            try:
                out = original(coll, body)
            finally:
                if span is not None:
                    self.end(span)
            seq = body["seq"]
            if inserted[seq]:
                self.duplicate_inserts += 1
            inserted[seq] = perf_counter()
            self.collection = coll
            return out

        return insert

    def _wrap_get_all(self, original):
        traced = self.traced

        def get_all(coll):
            span = self.begin("store.get_all") if traced else None
            try:
                docs = original(coll)
            finally:
                if span is not None:
                    self.end(span)
            if docs:
                self.window_seq = docs[-1].body["seq"]
            return docs

        return get_all

    def on_report(self, record):
        self.reports.append((perf_counter(), self.window_seq))

    # -- spans (traced run) -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, seq=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if seq is None:
            seq = parent[3] if parent is not None else self.window_seq
        span = [next(self._ids), parent[0] if parent is not None else None, name, seq, perf_counter(), 0.0]
        stack.append(span)
        return span

    def end(self, span):
        span[5] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def _wrap_span(self, name):
        def make(original):
            def call(*args, **kwargs):
                span = self.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.end(span)

            return call

        return make

    def _wrap_invoke(self, original):
        def invoke(host, name, envelope):
            payload = envelope.payload
            record = payload.get("record") if isinstance(payload, dict) else None
            seq = record.get("seq") if isinstance(record, dict) else None
            span = self.begin("faas.invoke." + name, seq)
            rec = None
            try:
                rec = original(host, name, envelope)
                return rec
            finally:
                self.end(span)
                if rec is not None:
                    self.invocations.append((name, rec.outcome, rec.error))

        return invoke

    def _wrap_descriptor(self, original):
        # Handlers run on a thread of their own; carry the invoke span over
        # so nested invocations and store/hrv calls get the right parent.
        def descriptor(host, name):
            desc = original(host, name)
            stack = self._stack()
            if not stack or not stack[-1][2].startswith("faas.invoke."):
                return desc
            parent, handler = stack[-1], desc.handler

            def run_under_parent(ctx, env):
                own = self._stack()
                own.append(parent)
                try:
                    return handler(ctx, env)
                finally:
                    own.pop()

            return dataclasses.replace(desc, handler=run_under_parent)

        return descriptor

    # -- counters (traced run) ----------------------------------------------

    def _wrap_hrv(self, original, name):
        def call(*args, **kwargs):
            span = self.begin(name)
            try:
                return original(*args, **kwargs)
            except hrv.AnalysisError:
                self.analysis_errors += 1
                raise
            finally:
                self.end(span)

        return call

    def _wrap_encode(self, original):
        durations = self.encode_s

        def encode_packet(packet):
            t0 = perf_counter()
            wire = original(packet)
            durations.append(perf_counter() - t0)
            return wire

        return encode_packet

    def _wrap_decode(self, original):
        # Reader threads of the broker and every client decode at once, so
        # counts are list appends, which cannot lose an update.
        durations, decoded = self.decode_s, self.decoded

        def decode_packet(buf):
            t0 = perf_counter()
            out = original(buf)
            durations.append(perf_counter() - t0)
            if out:  # NeedMoreBytes is falsy
                decoded.append(1)
            return out

        return decode_packet

    def _wrap_poll(self, original):
        polled = self.polled_at

        def poll(session, *args, **kwargs):
            messages = original(session, *args, **kwargs)
            if messages:
                now = perf_counter()
                self.poll_batches.append(len(messages))
                for msg in messages:
                    seq = payload_seq(msg.payload)
                    if 0 < seq < len(polled) and not polled[seq]:
                        polled[seq] = now
            return messages

        return poll
