import gc
import json
import socket
import sys
import threading
import time

import pytest

from triplex import hrv
from triplex.faas import (
    EventEnvelope,
    FunctionDescriptor,
    FunctionHost,
    NoSuchFunction,
    RegistrationError,
    TriggerError,
    bind_mqtt_trigger,
    make_envelope,
    register_builtins,
)
from triplex.mqtt import BrokerConfig, broker_start, client_connect
from triplex.store import DocStore

from polling import all_exit_within, stop_seconds_mid_poll
from waveforms import sine_wave


def fresh_host(threshold=3000, **kw) -> FunctionHost:
    store = DocStore()
    store.create_collection("window", threshold=threshold)
    host = FunctionHost(store, **kw)
    register_builtins(host)
    return host


def echo(ctx, env):
    return env.payload


def records_from(samples, rate=100.0):
    return [
        {"seq": i + 1, "t_ms": round(i * 1000 / rate), "value": v}
        for i, v in enumerate(samples)
    ]


def send(host, name, payload):
    return host.invoke(name, make_envelope("test", payload))


def insert_records(host):
    """store_ops records that were inserts (distinguished by result shape)."""
    return [
        r
        for r in host.records
        if r.function == "store_ops"
        and isinstance(r.result, dict)
        and "inserted" in r.result
    ]


class TestRegistry:
    def test_register_then_invoke(self):
        host = fresh_host()
        host.register(FunctionDescriptor("echo", echo))
        rec = send(host, "echo", {"a": 1})
        assert rec.outcome == "ok"
        assert rec.result == {"a": 1}
        assert rec.error is None

    def test_duplicate_name_rejected(self):
        host = fresh_host()
        host.register(FunctionDescriptor("f", echo))
        with pytest.raises(RegistrationError, match="'f'"):
            host.register(FunctionDescriptor("f", echo))

    def test_unregistered_function(self):
        host = fresh_host()
        with pytest.raises(NoSuchFunction, match="'nope'"):
            send(host, "nope", {})

    def test_descriptor_defaults(self):
        d = FunctionDescriptor("f", echo)
        assert d.timeout_ms == 60_000
        assert d.memory_mb == 128

    @pytest.mark.parametrize(
        "kw",
        [
            {"timeout_ms": 0},
            {"timeout_ms": -5},
            {"timeout_ms": True},
            {"timeout_ms": "fast"},
            {"memory_mb": 0},
            {"memory_mb": 2.5},
        ],
    )
    def test_descriptor_validation(self, kw):
        with pytest.raises(ValueError):
            FunctionDescriptor("f", echo, **kw)

    def test_descriptor_empty_name(self):
        with pytest.raises(ValueError):
            FunctionDescriptor("", echo)


class TestInvoke:
    def test_handler_exception_becomes_error_record(self):
        host = fresh_host()

        def boom(ctx, env):
            raise KeyError("missing thing")

        host.register(FunctionDescriptor("boom", boom))
        rec = send(host, "boom", {})
        assert rec.outcome == "error"
        assert rec.result is None
        assert "KeyError" in rec.error and "missing thing" in rec.error

    def test_failure_does_not_poison_the_function(self):
        host = fresh_host()
        calls = []

        def flaky(ctx, env):
            calls.append(env.payload)
            if env.payload == "bad":
                raise RuntimeError("tripped")
            return "fine"

        host.register(FunctionDescriptor("flaky", flaky))
        assert send(host, "flaky", "bad").outcome == "error"
        assert send(host, "flaky", "good").outcome == "ok"
        assert send(host, "flaky", "good").result == "fine"
        assert len(calls) == 3

    def test_timeout_cuts_off_slow_handler(self):
        host = fresh_host()

        def slow(ctx, env):
            time.sleep(0.5)
            return "too late"

        host.register(FunctionDescriptor("slow", slow, timeout_ms=150))
        started = time.monotonic()
        rec = send(host, "slow", {})
        elapsed = time.monotonic() - started
        assert rec.outcome == "timeout"
        assert rec.result is None  # result discarded
        assert "150 ms" in rec.error
        assert elapsed < 0.45  # invoke returned at the deadline, not after the sleep

    def test_host_serviceable_after_timeout(self):
        host = fresh_host()

        def slow(ctx, env):
            time.sleep(0.4)

        host.register(FunctionDescriptor("slow", slow, timeout_ms=100))
        host.register(FunctionDescriptor("echo", echo))
        assert send(host, "slow", {}).outcome == "timeout"
        assert send(host, "echo", 42).outcome == "ok"
        assert send(host, "slow", {}).outcome == "timeout"

    def test_ok_duration_stays_under_timeout(self):
        host = fresh_host()
        host.register(FunctionDescriptor("echo", echo, timeout_ms=500))
        for i in range(20):
            rec = send(host, "echo", i)
            assert rec.outcome == "ok"
            # generous slack: the contract is about the timeout mechanism,
            # not scheduler jitter
            assert rec.duration_ms <= 500 + 100

    def test_handler_cannot_mutate_callers_payload(self):
        host = fresh_host()

        def vandal(ctx, env):
            env.payload["stolen"] = True
            env.payload["items"].append(99)

        host.register(FunctionDescriptor("vandal", vandal))
        mine = {"items": [1, 2]}
        rec = send(host, "vandal", mine)
        assert rec.outcome == "ok"
        assert mine == {"items": [1, 2]}

    def test_event_ids_unique(self):
        host = fresh_host()
        host.register(FunctionDescriptor("echo", echo))
        for i in range(200):
            send(host, "echo", i)
        ids = [r.event_id for r in host.records]
        assert len(set(ids)) == len(ids)

    def test_overlapping_invocations_of_one_function(self):
        host = fresh_host()

        def napper(ctx, env):
            time.sleep(0.05)
            return env.payload

        host.register(FunctionDescriptor("napper", napper, timeout_ms=2000))
        results = []
        results_lock = threading.Lock()

        def call(i):
            rec = send(host, "napper", i)
            with results_lock:
                results.append(rec)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(16)]
        started = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - started
        assert elapsed < 0.5  # ran concurrently, not 16 x 50 ms serially
        assert sorted(r.result for r in results) == list(range(16))
        assert all(r.outcome == "ok" for r in results)


def new_workers(before):
    return [
        t for t in threading.enumerate() if t.name == "faas-worker" and t not in before
    ]


def stuck_until(release, finished=None):
    def stuck(ctx, env):
        release.wait(5.0)
        if finished is not None:
            finished.set()

    return stuck


class TestWorkerPool:
    def test_thread_count_flat_over_500_nested_invocations(self):
        host = fresh_host()
        start = threading.active_count()
        for rec in records_from(sine_wave(1.0, 100, 5.0)):
            host.invoke("subscriber", make_envelope("test", {"record": rec, "decimation": 100}))
        # subscriber -> metrics_calc -> store_ops is the deepest chain
        assert threading.active_count() - start <= 3
        # 500 subscriber + 500 inserts + 5 x (metrics_calc + get_all)
        assert len(host.records) == 1010
        host.close()

    def test_concurrent_callers_get_their_own_results(self):
        host = fresh_host()
        host.register(FunctionDescriptor("echo", echo))
        host.register(
            FunctionDescriptor("relay", lambda ctx, env: ctx.invoke("echo", env.payload).result)
        )
        before = set(threading.enumerate())
        wrong = []

        def caller(k):
            for i in range(100):
                rec = send(host, "relay", [k, i])
                if rec.outcome != "ok" or rec.result != [k, i]:
                    wrong.append(rec)

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(host.records) == 8 * 100 * 2
        assert len(new_workers(before)) <= 8 * 2  # two deep per caller at most
        host.close()

    def test_close_retires_idle_workers(self):
        before = set(threading.enumerate())
        host = fresh_host()
        send(host, "subscriber", {"record": {"seq": 1, "t_ms": 0, "value": 0.5}})
        workers = new_workers(before)
        assert workers
        host.close()
        for t in workers:
            t.join(timeout=2.0)
        assert not any(t.is_alive() for t in workers)

    def test_dropped_host_retires_its_workers(self):
        before = set(threading.enumerate())
        host = fresh_host()
        send(host, "store_ops", {"op": "get_all"})
        workers = new_workers(before)
        assert workers
        del host
        gc.collect()
        for t in workers:
            t.join(timeout=2.0)
        assert not any(t.is_alive() for t in workers)

    def test_overrun_ending_after_close_exits_its_worker(self):
        release = threading.Event()
        host = fresh_host()
        host.register(FunctionDescriptor("stuck", stuck_until(release), timeout_ms=50))
        before = set(threading.enumerate())
        assert send(host, "stuck", {}).outcome == "timeout"
        (worker,) = new_workers(before)
        host.close()
        assert worker.is_alive()  # still inside the overrunning handler
        release.set()
        worker.join(timeout=2.0)
        assert not worker.is_alive()

    def test_invocation_after_timeout_is_served_at_once(self):
        release, finished = threading.Event(), threading.Event()
        host = fresh_host()
        host.register(FunctionDescriptor("stuck", stuck_until(release, finished), timeout_ms=50))
        host.register(FunctionDescriptor("whoami", lambda ctx, env: threading.current_thread()))
        before = set(threading.enumerate())
        assert send(host, "stuck", {}).outcome == "timeout"
        (overrun,) = new_workers(before)
        started = time.monotonic()
        rec = send(host, "whoami", {})
        assert rec.outcome == "ok" and rec.result is not overrun
        assert time.monotonic() - started < 0.1  # a second worker, no wait for the first
        # once the overrun ends, its worker rejoins the pool and is reused
        release.set()
        assert finished.wait(2.0)
        deadline = time.monotonic() + 2.0
        while send(host, "whoami", {}).result is not overrun:
            assert time.monotonic() < deadline
        assert len(new_workers(before)) == 2
        host.close()


class TestLogFile:
    def test_one_json_record_per_line(self, tmp_path):
        log = tmp_path / "invocations.log"
        store = DocStore()
        store.create_collection("window", threshold=10)
        host = FunctionHost(store, log_path=log)
        host.register(FunctionDescriptor("echo", echo))

        def boom(ctx, env):
            raise ValueError("nope")

        def slow(ctx, env):
            time.sleep(0.3)

        host.register(FunctionDescriptor("boom", boom))
        host.register(FunctionDescriptor("slow", slow, timeout_ms=100))
        send(host, "echo", {"x": 1})
        send(host, "boom", {})
        send(host, "slow", {})
        host.close()

        lines = log.read_text().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        for entry in parsed:
            assert set(entry) == {
                "event_id", "function", "outcome", "duration_ms", "result", "error",
            }
        assert [e["outcome"] for e in parsed] == ["ok", "error", "timeout"]
        assert parsed[0]["result"] == {"x": 1}
        assert "ValueError" in parsed[1]["error"]


class TestStoreOps:
    def test_insert_get_delete_round(self):
        host = fresh_host()
        rec = {"seq": 1, "t_ms": 0, "value": 0.5}
        assert send(host, "store_ops", {"op": "insert", "body": rec}).result == {"inserted": True}
        got = send(host, "store_ops", {"op": "get_all"})
        assert got.result == {"documents": [rec]}
        assert send(host, "store_ops", {"op": "delete_all"}).result == {"deleted": 1}
        assert send(host, "store_ops", {"op": "get_all"}).result == {"documents": []}

    def test_insert_dedups_by_seq(self):
        host = fresh_host()

        def put(seq):
            return send(
                host, "store_ops", {"op": "insert", "body": {"seq": seq, "t_ms": seq, "value": 0.0}}
            ).result["inserted"]

        assert put(5) is True
        assert put(5) is False  # redelivery
        assert put(4) is False  # stale
        assert put(6) is True
        docs = send(host, "store_ops", {"op": "get_all"}).result["documents"]
        assert [d["seq"] for d in docs] == [5, 6]

    def test_capped_at_threshold(self):
        host = fresh_host(threshold=3000)
        for rec in records_from([0.0] * 6000):
            send(host, "store_ops", {"op": "insert", "body": rec})
        docs = send(host, "store_ops", {"op": "get_all"}).result["documents"]
        assert len(docs) == 3000
        assert docs[0]["seq"] == 3001
        assert docs[-1]["seq"] == 6000

    def test_unknown_op(self):
        host = fresh_host()
        rec = send(host, "store_ops", {"op": "upsert"})
        assert rec.outcome == "error"
        assert "unknown op" in rec.error and "upsert" in rec.error

    def test_payload_must_be_object(self):
        host = fresh_host()
        assert send(host, "store_ops", "insert").outcome == "error"

    def test_insert_needs_body(self):
        host = fresh_host()
        rec = send(host, "store_ops", {"op": "insert"})
        assert rec.outcome == "error"
        assert "body" in rec.error


class TestMetricsCalc:
    def test_matches_direct_analysis(self):
        samples = sine_wave(1.0, 100, 30.0)
        host = fresh_host()
        for rec in records_from(samples):
            send(host, "store_ops", {"op": "insert", "body": rec})
        out = send(host, "metrics_calc", {})
        assert out.outcome == "ok"

        direct = hrv.analyze(hrv.Signal(samples, 100.0), hrv.AnalysisConfig())
        assert out.result["bpm"] == direct.bpm
        assert out.result["sdnn_ms"] == direct.sdnn_ms
        assert out.result["beat_count"] == direct.beat_count
        assert abs(out.result["bpm"] - 60.0) < 1e-6

    def test_empty_window_is_insufficient(self):
        host = fresh_host()
        rec = send(host, "metrics_calc", {})
        assert rec.outcome == "error"
        assert "insufficient data" in rec.error

    def test_flat_window_is_insufficient(self):
        host = fresh_host()
        for rec in records_from([1.0] * 500):
            send(host, "store_ops", {"op": "insert", "body": rec})
        out = send(host, "metrics_calc", {})
        assert out.outcome == "error"
        assert "insufficient data" in out.error


class TestSubscriber:
    def test_decimation_gates_analysis(self):
        host = fresh_host()
        send(host, "subscriber", {"record": {"seq": 1, "t_ms": 0, "value": 0.1}, "decimation": 2})
        assert host.invocation_count("metrics_calc") == 0
        send(host, "subscriber", {"record": {"seq": 2, "t_ms": 10, "value": 0.2}, "decimation": 2})
        assert host.invocation_count("metrics_calc") == 1

    def test_redelivery_does_not_retrigger_analysis(self):
        host = fresh_host()
        msg = {"record": {"seq": 2, "t_ms": 10, "value": 0.2}, "decimation": 2}
        send(host, "subscriber", {"record": {"seq": 1, "t_ms": 0, "value": 0.1}, "decimation": 2})
        send(host, "subscriber", msg)
        send(host, "subscriber", msg)  # qos-1 style duplicate
        assert host.invocation_count("metrics_calc") == 1
        assert host.store.count("window") == 2

    def test_malformed_record_is_an_error(self):
        host = fresh_host()
        rec = send(host, "subscriber", {"record": "not a record", "decimation": 1})
        assert rec.outcome == "error"
        assert host.store.count("window") == 0

    def test_record_without_seq_is_an_error(self):
        host = fresh_host()
        rec = send(host, "subscriber", {"record": {"t_ms": 0, "value": 1.0}, "decimation": 1})
        assert rec.outcome == "error"
        assert "seq" in rec.error


class TestStatelessness:
    def test_replay_gives_identical_store_and_metrics(self):
        samples = sine_wave(1.0, 100, 12.0)
        envelopes = [
            EventEnvelope(f"evt-{i}", "replay", i, {"record": rec, "decimation": 400})
            for i, rec in enumerate(records_from(samples))
        ]

        def run_once():
            host = fresh_host(threshold=800)
            for env in envelopes:
                host.invoke("subscriber", env)
            final = send(host, "metrics_calc", {})
            bodies = [d.body for d in host.store.collection("window").get_all()]
            return bodies, final.result

        store_a, metrics_a = run_once()
        store_b, metrics_b = run_once()
        assert store_a == store_b
        assert metrics_a == metrics_b
        assert metrics_a is not None and metrics_a["bpm"] == pytest.approx(60.0, abs=1.0)


class TestMqttTrigger:
    def test_invocation_counts_at_decimation_100(self):
        host = fresh_host()
        with broker_start(BrokerConfig()) as broker:
            with bind_mqtt_trigger(host, broker.address, "hr/p1", decimation_n=100) as trig:
                with client_connect(broker.address, "sensor") as pub:
                    for rec in records_from([0.0] * 100):
                        pub.publish("hr/p1", json.dumps(rec).encode(), qos=1)
                deadline = time.monotonic() + 10.0
                while trig.delivered < 100 and time.monotonic() < deadline:
                    time.sleep(0.02)
        assert trig.delivered == 100
        assert host.invocation_count("subscriber") == 100
        assert len(insert_records(host)) == 100
        assert host.invocation_count("metrics_calc") == 1
        # metrics_calc reads the window back through store_ops, so the raw
        # store_ops total is inserts plus one get_all
        assert host.invocation_count("store_ops") == 101
        assert host.store.count("window") == 100

    def test_decimation_one_analyzes_every_message(self):
        host = fresh_host()
        with broker_start(BrokerConfig()) as broker:
            with bind_mqtt_trigger(host, broker.address, "hr/p1", decimation_n=1) as trig:
                with client_connect(broker.address, "sensor") as pub:
                    for rec in records_from([0.0] * 10):
                        pub.publish("hr/p1", json.dumps(rec).encode(), qos=1)
                deadline = time.monotonic() + 10.0
                while trig.delivered < 10 and time.monotonic() < deadline:
                    time.sleep(0.02)
        assert host.invocation_count("metrics_calc") == 10

    def test_no_messages_no_invocations(self):
        host = fresh_host()
        with broker_start(BrokerConfig()) as broker:
            with bind_mqtt_trigger(host, broker.address, "hr/p1", decimation_n=1):
                time.sleep(0.3)
        assert host.records == []

    def test_stop_mid_poll_returns_at_once(self):
        host = fresh_host()
        with broker_start(BrokerConfig()) as broker:
            trig = bind_mqtt_trigger(host, broker.address, "hr/p1")
            took = stop_seconds_mid_poll(trig._session, trig.stop)
        assert not trig._thread.is_alive()
        assert took < 0.05  # the pump polls with a 0.1 s timeout

    def test_pump_exits_when_the_broker_stops(self):
        host = fresh_host()
        broker = broker_start(BrokerConfig())
        trig = bind_mqtt_trigger(host, broker.address, "hr/p1")
        try:
            broker.stop()
            assert all_exit_within([trig._thread], 1.0)
        finally:
            trig.stop()

    def test_messages_arrive_in_seq_order(self):
        host = fresh_host()
        with broker_start(BrokerConfig()) as broker:
            with bind_mqtt_trigger(host, broker.address, "hr/p1", decimation_n=1000) as trig:
                with client_connect(broker.address, "sensor") as pub:
                    for rec in records_from([float(i) for i in range(200)]):
                        pub.publish("hr/p1", json.dumps(rec).encode(), qos=1)
                deadline = time.monotonic() + 10.0
                while trig.delivered < 200 and time.monotonic() < deadline:
                    time.sleep(0.02)
        docs = host.store.get_all("window")
        assert [d.body["seq"] for d in docs] == list(range(1, 201))

    def test_unreachable_broker(self):
        # grab a port nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        host = fresh_host()
        started = time.monotonic()
        with pytest.raises(TriggerError, match="unreachable"):
            bind_mqtt_trigger(
                host, dead_address, "hr/p1", connect_attempts=3, backoff_s=0.05
            )
        # two sleeps between three attempts: 0.05 + 0.1
        assert time.monotonic() - started >= 0.15 - 0.02

    def test_trigger_needs_registered_function(self):
        host = fresh_host()
        with broker_start(BrokerConfig()) as broker:
            with pytest.raises(NoSuchFunction):
                bind_mqtt_trigger(host, broker.address, "hr/p1", function_name="ghost")

    def test_bad_decimation_rejected(self):
        host = fresh_host()
        with pytest.raises(ValueError):
            bind_mqtt_trigger(host, ("127.0.0.1", 1), "hr/p1", decimation_n=0)
