import json
import random
import string
import time
from pathlib import Path

import pytest

from triplex import hrv
from triplex.flow import FlowRuntime, ParseError, load_flow, parse_flow, run_flow
from triplex.mqtt import BrokerConfig, broker_start, client_connect
from triplex.store import DocStore

from flowcases import malformed_flows
from polling import all_exit_within, stop_seconds_mid_poll
from waveforms import sine_wave

FLOWS_DIR = Path(__file__).parent.parent / "src" / "triplex" / "flows"


def make_runtime(**kw):
    store = DocStore()
    store.create_collection("window", threshold=kw.pop("threshold", 5000))
    reports = []
    rt = FlowRuntime(store=store, report=reports.append, **kw)
    return rt, reports


def records_from(samples, rate=100.0):
    return [
        {"seq": i + 1, "t_ms": round(i * 1000 / rate), "value": v}
        for i, v in enumerate(samples)
    ]


class TestParser:
    def test_minimal_two_node_flow(self):
        g = parse_flow(
            json.dumps(
                {
                    "nodes": [
                        {"id": "in", "type": "mqtt-in", "config": {"topic": "t"}},
                        {"id": "keep", "type": "store-insert", "config": {}},
                    ],
                    "wires": [["in", "keep"]],
                }
            )
        )
        assert len(g.nodes) == 2
        assert g.wires == (("in", "keep"),)
        assert g.out_wires("in") == ["keep"]

    def test_dangling_wire_names_the_id(self):
        text = json.dumps(
            {"nodes": [{"id": "a", "type": "debug", "config": {}}], "wires": [["a", "x"]]}
        )
        with pytest.raises(ParseError, match="'x'"):
            parse_flow(text)

    def test_unknown_type_named(self):
        text = json.dumps({"nodes": [{"id": "n", "type": "pythn-function"}], "wires": []})
        with pytest.raises(ParseError, match="unknown node type"):
            parse_flow(text)

    def test_duplicate_id(self):
        text = json.dumps(
            {"nodes": [{"id": "n", "type": "debug"}, {"id": "n", "type": "report"}], "wires": []}
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_flow(text)

    def test_config_defaults_are_optional(self):
        g = parse_flow(json.dumps({"nodes": [{"id": "t", "type": "interval-inject"}], "wires": []}))
        assert g.node("t").config == {}

    @pytest.mark.parametrize("label,text", malformed_flows())
    def test_malformed_corpus(self, label, text):
        with pytest.raises(ParseError) as err:
            parse_flow(text)
        assert str(err.value)  # a located diagnostic, not a bare crash

    def test_arbitrary_text_never_crashes(self):
        rng = random.Random(31)
        alphabet = string.printable
        for trial in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            try:
                parse_flow(text)
            except ParseError:
                pass

    def test_shipped_flows_parse(self):
        names = ["debug_delete", "ingest_window", "analyze_report", "health_monitor"]
        for name in names:
            g = load_flow(FLOWS_DIR / f"{name}.json")
            assert len(g.nodes) >= 2


class TestEngineLocal:
    def test_debug_delete_flow(self):
        rt, _ = make_runtime()
        for i in range(3):
            rt.store.insert("window", {"seq": i + 1, "t_ms": i, "value": 0.0})
        with run_flow(load_flow(FLOWS_DIR / "debug_delete.json"), rt) as handle:
            handle.inject("wipe")
            assert handle.drain(5.0)
            assert handle.debug == [("removed", 3)]
            assert rt.store.count("window") == 0
            assert handle.errors == []

    def test_get_all_analyze_report_chain(self):
        rt, reports = make_runtime()
        for rec in records_from(sine_wave(1, 100, 30)):
            rt.store.insert("window", rec)
        graph = parse_flow(
            json.dumps(
                {
                    "nodes": [
                        {"id": "go", "type": "manual-inject"},
                        {"id": "fetch", "type": "store-get-all"},
                        {"id": "calc", "type": "hrv-analyze"},
                        {"id": "out", "type": "report"},
                    ],
                    "wires": [["go", "fetch"], ["fetch", "calc"], ["calc", "out"]],
                }
            )
        )
        with run_flow(graph, rt) as handle:
            handle.inject("go")
            assert handle.drain(5.0)
        assert len(reports) == 1
        rec = reports[0]
        assert rec["mode"] == "flow"
        assert rec["bpm"] == pytest.approx(60.0, abs=1.0)
        assert rec["flags"] == []
        assert handle.errors == []

    def test_interval_inject_ticks(self):
        rt, _ = make_runtime()
        graph = parse_flow(
            json.dumps(
                {
                    "nodes": [
                        {"id": "t", "type": "interval-inject", "config": {"period_ms": 50}},
                        {"id": "d", "type": "debug"},
                    ],
                    "wires": [["t", "d"]],
                }
            )
        )
        with run_flow(graph, rt) as handle:
            time.sleep(0.42)
        assert len(handle.debug) >= 3
        ticks = [payload["tick"] for _label, payload in handle.debug]
        assert ticks == sorted(ticks)

    def test_fan_out_order_and_isolation(self):
        rt, _ = make_runtime()
        graph = parse_flow(
            json.dumps(
                {
                    "nodes": [
                        {"id": "go", "type": "manual-inject"},
                        {"id": "first", "type": "debug"},
                        {"id": "second", "type": "debug"},
                    ],
                    "wires": [["go", "first"], ["go", "second"]],
                }
            )
        )
        payload = {"k": [1, 2]}
        with run_flow(graph, rt) as handle:
            handle.inject("go", payload)
            assert handle.drain(5.0)
        assert [label for label, _ in handle.debug] == ["first", "second"]
        assert handle.debug[0][1] is payload  # first wire gets the original
        assert handle.debug[1][1] == payload
        assert handle.debug[1][1] is not payload  # later wires get copies
        assert handle.debug[1][1]["k"] is not payload["k"]

    def test_node_failure_logged_and_flow_continues(self):
        rt, reports = make_runtime()
        graph = parse_flow(
            json.dumps(
                {
                    "nodes": [
                        {"id": "go", "type": "manual-inject"},
                        {"id": "fetch", "type": "store-get-all"},
                        {"id": "calc", "type": "hrv-analyze"},
                        {"id": "out", "type": "report"},
                    ],
                    "wires": [["go", "fetch"], ["fetch", "calc"], ["calc", "out"]],
                }
            )
        )
        with run_flow(graph, rt) as handle:
            handle.inject("go")  # empty window: the analyze node must fail
            assert handle.drain(5.0)
            assert len(handle.errors) == 1
            assert handle.errors[0][0] == "calc"
            assert reports == []
            for rec in records_from(sine_wave(1, 100, 30)):
                rt.store.insert("window", rec)
            handle.inject("go")
            assert handle.drain(5.0)
        assert len(reports) == 1  # the same flow recovered on the next tick

    def test_store_insert_dedups_by_seq(self):
        rt, _ = make_runtime()
        graph = parse_flow(
            json.dumps(
                {
                    "nodes": [
                        {"id": "go", "type": "manual-inject"},
                        {"id": "keep", "type": "store-insert"},
                    ],
                    "wires": [["go", "keep"]],
                }
            )
        )
        rec = {"seq": 1, "t_ms": 0, "value": 0.5}
        with run_flow(graph, rt) as handle:
            handle.inject("go", rec)
            handle.inject("go", dict(rec))  # qos-1 style redelivery
            handle.inject("go", {"seq": 2, "t_ms": 10, "value": 0.6})
            assert handle.drain(5.0)
        assert [d.body["seq"] for d in rt.store.get_all("window")] == [1, 2]

    def test_per_source_ordering(self):
        rt, _ = make_runtime()
        graph = parse_flow(
            json.dumps(
                {
                    "nodes": [
                        {"id": "go", "type": "manual-inject"},
                        {"id": "keep", "type": "store-insert"},
                        {"id": "d", "type": "debug"},
                    ],
                    "wires": [["go", "keep"], ["keep", "d"]],
                }
            )
        )
        with run_flow(graph, rt) as handle:
            for i in range(100):
                handle.inject("go", {"seq": i + 1, "t_ms": i * 10, "value": float(i)})
            assert handle.drain(5.0)
        seen = [payload["seq"] for _label, payload in handle.debug]
        assert seen == list(range(1, 101))

    def test_stop_drains_pending_messages(self):
        rt, _ = make_runtime()
        graph = parse_flow(
            json.dumps(
                {
                    "nodes": [
                        {"id": "go", "type": "manual-inject"},
                        {"id": "keep", "type": "store-insert"},
                    ],
                    "wires": [["go", "keep"]],
                }
            )
        )
        handle = run_flow(graph, rt)
        for i in range(200):
            handle.inject("go", {"seq": i + 1, "t_ms": i, "value": 0.0})
        handle.stop()
        assert rt.store.count("window") == 200

    def test_inject_requires_manual_inject_node(self):
        rt, _ = make_runtime()
        graph = parse_flow(json.dumps({"nodes": [{"id": "d", "type": "debug"}], "wires": []}))
        with run_flow(graph, rt) as handle:
            with pytest.raises(ValueError):
                handle.inject("d")
            with pytest.raises(KeyError):
                handle.inject("missing")


class TestEngineWithBroker:
    def test_mqtt_ingest_flow(self):
        with broker_start(BrokerConfig()) as broker:
            rt, _ = make_runtime(broker_address=broker.address)
            graph = load_flow(FLOWS_DIR / "ingest_window.json")
            with run_flow(graph, rt) as handle:
                time.sleep(0.3)  # subscription settles
                with client_connect(broker.address, "sensor") as pub:
                    for rec in records_from(sine_wave(1, 100, 0.5)):
                        pub.publish("hr/patient1", json.dumps(rec).encode(), qos=1)
                deadline = time.monotonic() + 5.0
                while rt.store.count("window") < 50 and time.monotonic() < deadline:
                    time.sleep(0.05)
            docs = rt.store.get_all("window")
            assert [d.body["seq"] for d in docs] == list(range(1, 51))
            assert handle.errors == []

    def test_stop_mid_poll_returns_at_once(self):
        with broker_start(BrokerConfig()) as broker:
            rt, _ = make_runtime(broker_address=broker.address)
            handle = run_flow(load_flow(FLOWS_DIR / "ingest_window.json"), rt)
            assert handle.wait_sources(5.0)
            took = stop_seconds_mid_poll(handle._sessions[0], handle.stop)
        assert not any(t.is_alive() for t in handle._source_threads)
        assert took < 0.05  # the mqtt-in loop polls with a 0.1 s timeout

    def test_mqtt_in_loop_exits_when_the_broker_stops(self):
        broker = broker_start(BrokerConfig())
        rt, _ = make_runtime(broker_address=broker.address)
        handle = run_flow(load_flow(FLOWS_DIR / "ingest_window.json"), rt)
        try:
            assert handle.wait_sources(5.0)
            broker.stop()
            assert all_exit_within(handle._source_threads, 1.0)
        finally:
            handle.stop()

    def test_bad_sensor_payload_goes_to_error_sink(self):
        with broker_start(BrokerConfig()) as broker:
            rt, _ = make_runtime(broker_address=broker.address)
            graph = load_flow(FLOWS_DIR / "ingest_window.json")
            with run_flow(graph, rt) as handle:
                time.sleep(0.3)
                with client_connect(broker.address, "sensor") as pub:
                    pub.publish("hr/patient1", b"not json at all", qos=1)
                    pub.publish(
                        "hr/patient1", json.dumps({"seq": 1, "t_ms": 0, "value": 1.0}).encode(), qos=1
                    )
                deadline = time.monotonic() + 5.0
                while rt.store.count("window") < 1 and time.monotonic() < deadline:
                    time.sleep(0.05)
            assert rt.store.count("window") == 1
            assert len(handle.errors) == 1
            assert handle.errors[0][0] == "sensor-in"
