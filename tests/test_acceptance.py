"""Acceptance gate: nine checks, one verdict line each.

Each criterion records a single PASS/FAIL line; conftest replays the lines
in the terminal summary so they are visible however pytest is invoked.
"""

import json
import math
import random
import threading
import time
from pathlib import Path

import numpy as np

from triplex import hrv
from triplex.config import RunConfig
from triplex.faas import FunctionDescriptor, FunctionHost, make_envelope, register_builtins
from triplex.flow import FlowRuntime, ParseError, load_flow, parse_flow, run_flow
from triplex.mqtt import (
    BrokerConfig,
    NeedMoreBytes,
    ProtocolError,
    broker_start,
    client_connect,
    decode_packet,
    encode_packet,
)
from triplex.mqtt.packets import decode_varint, encode_varint
from triplex.report import METRIC_FIELDS
from triplex.runner import compare_modes, run_pipeline
from triplex.store import CappedCollection

from flowcases import malformed_flows
from oracles import CappedListModel, metrics_oracle
from test_codec import random_packet
from waveforms import sine_wave

ROOT = Path(__file__).parent.parent
DATA_FILE = ROOT / "data" / "sample_hr.txt"
FLOWS_DIR = ROOT / "src" / "triplex" / "flows"


VERDICT_LINES = []


def verdict(number, description, failures, detail=""):
    ok = not failures
    status = "PASS" if ok else "FAIL"
    tail = detail if ok else "; ".join(str(f) for f in failures[:5])
    line = f"[criterion {number}] {status} {description}" + (f" ({tail})" if tail else "")
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, f"criterion {number}: {failures[:5]}"


def close(a, b, tol=1e-9):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class TestAcceptance:
    def test_criterion_1_metric_oracle(self):
        rng = random.Random(0xC1)
        failures = []
        started = time.perf_counter()
        for case in range(1000):
            n = rng.randint(2, 300)
            intervals = [rng.uniform(250.0, 2000.0) for _ in range(n)]
            expected = metrics_oracle(intervals)
            got = hrv.compute_metrics(hrv.RRSeries(intervals, [True] * n))
            for name, want in expected.items():
                if not close(getattr(got, name), want):
                    failures.append(f"case {case} field {name}: {getattr(got, name)} != {want}")
                    break
        elapsed = time.perf_counter() - started
        if elapsed >= 10.0:
            failures.append(f"took {elapsed:.1f}s, budget 10s")
        verdict(
            1,
            "eight metrics match the brute-force oracle on 1000 random series within 1e-9",
            failures,
            f"{elapsed:.2f}s",
        )

    def test_criterion_2_worked_example(self):
        got = hrv.compute_metrics(hrv.RRSeries([800.0, 820.0, 790.0, 810.0], [True] * 4))
        expected = {
            "ibi_ms": 805.0,
            "bpm": 74.53416149068323,
            "sdnn_ms": 11.180339887498949,
            "rmssd_ms": 23.804761428476166,
            "sdsd_ms": 23.570226039551585,
            "pnn20": 1.0 / 3.0,
            "pnn50": 0.0,
            "mad_ms": 10.0,
        }
        failures = [
            f"{name}: {getattr(got, name)} != {want}"
            for name, want in expected.items()
            if not close(getattr(got, name), want)
        ]
        verdict(2, "worked example [800,820,790,810] reproduced within 1e-9", failures)

    def test_criterion_3_codec(self):
        rng = random.Random(0xC3)
        failures = []
        started = time.perf_counter()

        for case in range(10_000):
            packet = random_packet(rng)
            blob = encode_packet(packet)
            decoded, consumed = decode_packet(blob)
            if decoded != packet or consumed != len(blob):
                failures.append(f"round-trip {case}: {packet}")
                break

        for case in range(100_000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
            try:
                out = decode_packet(blob)
            except ProtocolError:
                continue
            except Exception as exc:  # anything else is a crash escape
                failures.append(f"fuzz {case}: {type(exc).__name__} on {blob.hex()}")
                break
            if out is not NeedMoreBytes and not isinstance(out, tuple):
                failures.append(f"fuzz {case}: unexpected result {out!r}")
                break

        # full-range varint bijectivity, vectorized in 2^24 chunks
        chunk = 1 << 24
        top = 268_435_455
        for base in range(0, top + 1, chunk):
            values = np.arange(base, min(base + chunk, top + 1), dtype=np.int64)
            b0 = (values & 0x7F) | np.where(values >= 0x80, 0x80, 0)
            r1 = values >> 7
            b1 = (r1 & 0x7F) | np.where(r1 >= 0x80, 0x80, 0)
            r2 = r1 >> 7
            b2 = (r2 & 0x7F) | np.where(r2 >= 0x80, 0x80, 0)
            r3 = r2 >> 7
            rebuilt = (
                (b0 & 0x7F)
                | ((b1 & 0x7F) << 7)
                | ((b2 & 0x7F) << 14)
                | ((r3 & 0x7F) << 21)
            )
            if not np.array_equal(rebuilt, values):
                failures.append(f"varint model broke near {base}")
                break
            for probe in (base, min(base + chunk, top + 1) - 1, *(int(values[rng.randrange(values.size)]) for _ in range(8))):
                blob = encode_varint(probe)
                expected = [int(b0[probe - base]), int(b1[probe - base]), int(b2[probe - base]), int(r3[probe - base])]
                while len(expected) > 1 and expected[-1] == 0 and expected[-2] < 0x80:
                    expected.pop()
                if list(blob) != expected or decode_varint(blob) != (probe, len(blob)):
                    failures.append(f"varint {probe}: {list(blob)} != {expected}")
                    break

        elapsed = time.perf_counter() - started
        if elapsed >= 30.0:
            failures.append(f"took {elapsed:.1f}s, budget 30s")
        verdict(
            3,
            "10k round trips, 100k fuzz inputs, varint bijective over its full range",
            failures,
            f"{elapsed:.2f}s",
        )

    def test_criterion_4_delivery_under_ack_drop(self):
        failures = []
        started = time.perf_counter()
        coll = CappedCollection(6000)
        stop = threading.Event()

        with broker_start(BrokerConfig(ack_drop_rate=0.1, ack_drop_seed=42)) as broker:
            sub = client_connect(broker.address, "collector")
            sub.subscribe("hr/acc4", qos=1)

            def pump():
                while not stop.is_set():
                    for msg in sub.poll(timeout_s=0.1):
                        coll.insert_unique(json.loads(msg.payload.decode()))

            pump_thread = threading.Thread(target=pump, daemon=True)
            pump_thread.start()

            pub = client_connect(
                broker.address, "sensor", ack_timeout_s=0.05, ack_attempts=12
            )
            for seq in range(1, 6001):
                pub.publish(
                    "hr/acc4",
                    json.dumps({"seq": seq, "t_ms": seq * 10, "value": 0.5}).encode(),
                    qos=1,
                )
            deadline = time.monotonic() + 45.0
            while coll.count() < 6000 and time.monotonic() < deadline:
                time.sleep(0.05)
            stop.set()
            pump_thread.join(timeout=5.0)
            pub.close()
            sub.close()
            dropped = broker.stats["acks_dropped"]
            redelivered = broker.stats["dup_publishes_received"]

        seqs = [doc.body["seq"] for doc in coll.get_all()]
        if seqs != list(range(1, 6001)):
            failures.append(f"stored {len(seqs)} records, unique {len(set(seqs))}")
        if dropped < 1:
            failures.append("fault injection never fired")
        elapsed = time.perf_counter() - started
        if elapsed >= 60.0:
            failures.append(f"took {elapsed:.1f}s, budget 60s")
        verdict(
            4,
            "6000 qos-1 publishes under 10% ack drop all stored exactly once",
            failures,
            f"{elapsed:.1f}s, {dropped} acks dropped, {redelivered} redeliveries",
        )

    def test_criterion_5_capped_window_oracle(self):
        failures = []
        rng = random.Random(0xC5)
        real = CappedCollection(50)
        model = CappedListModel(50)
        for op_index in range(10_000):
            roll = rng.random()
            if roll < 0.70:
                body = {"n": rng.randrange(1000)}
                if real.insert(dict(body)) != model.insert(dict(body)):
                    failures.append(f"op {op_index}: seq mismatch")
                    break
            elif roll < 0.90:
                got = [(d.seq, d.body) for d in real.get_all()]
                if got != model.get_all():
                    failures.append(f"op {op_index}: window mismatch")
                    break
            elif roll < 0.97:
                if real.count() != model.count():
                    failures.append(f"op {op_index}: count mismatch")
                    break
            else:
                if real.delete_all() != model.delete_all():
                    failures.append(f"op {op_index}: delete count mismatch")
                    break

        # concurrent stress: count must never exceed the threshold
        coll = CappedCollection(100)
        overflow = []
        done = threading.Event()

        def watch():
            while not done.is_set():
                n = coll.count()
                if n > 100:
                    overflow.append(n)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        writers = [
            threading.Thread(
                target=lambda: [coll.insert({"x": 0}) for _ in range(1000)], daemon=True
            )
            for _ in range(8)
        ]
        for w in writers:
            w.start()
        for w in writers:
            w.join()
        done.set()
        watcher.join(timeout=5.0)
        if overflow:
            failures.append(f"count exceeded threshold: {overflow[:3]}")
        final = [d.seq for d in coll.get_all()]
        if final != list(range(7901, 8001)):
            failures.append(f"final window seqs wrong: {final[:3]}...{final[-3:]}")
        verdict(
            5,
            "10k randomized store ops match the list model; concurrent count stays capped",
            failures,
        )

    def test_criterion_6_timeout_and_defaults(self):
        failures = []
        host = FunctionHost(CappedCollection(10))
        register_builtins(host)

        def sleepy(ctx, env):
            time.sleep(0.35)
            return "done"

        host.register(FunctionDescriptor("sleepy", sleepy, timeout_ms=200))
        host.register(FunctionDescriptor("echo", lambda ctx, env: env.payload))

        rec = host.invoke("sleepy", make_envelope({}))
        if rec.outcome != "timeout":
            failures.append(f"outcome {rec.outcome}, wanted timeout")
        if rec.result is not None:
            failures.append("timed-out result was not discarded")
        after = host.invoke("echo", make_envelope({"still": "alive"}))
        if after.outcome != "ok" or after.result != {"still": "alive"}:
            failures.append("host not serviceable after a timeout")

        defaults = FunctionDescriptor("d", sleepy)
        if defaults.timeout_ms != 60_000:
            failures.append(f"default timeout_ms {defaults.timeout_ms}")
        if defaults.memory_mb != 128:
            failures.append(f"default memory_mb {defaults.memory_mb}")
        verdict(
            6,
            "overrun yields outcome timeout, host stays serviceable, 60s/128mb defaults hold",
            failures,
        )

    def test_criterion_7_cross_architecture_equivalence(self):
        failures = []
        started = time.perf_counter()
        cfg = RunConfig(data=str(DATA_FILE), speedup=0.0, threshold=3000, decimation=100)
        comparison = compare_modes(cfg)
        if comparison.verdict != "EQUAL":
            failures.append(f"verdict {comparison.verdict} field {comparison.field}")
        finals = {m: comparison.modes[m]["final_metrics"] for m in comparison.modes}
        ranges = {tuple(comparison.modes[m]["seq_range"]) for m in comparison.modes}
        if any(f is None for f in finals.values()):
            failures.append("a mode produced no final metrics")
        else:
            for name in METRIC_FIELDS:
                values = [finals[m][name] for m in ("monolith", "flow", "faas")]
                if not (close(values[0], values[1]) and close(values[0], values[2])):
                    failures.append(f"field {name} diverges: {values}")
        if len(ranges) != 1:
            failures.append(f"seq ranges differ: {ranges}")
        elapsed = time.perf_counter() - started
        if elapsed >= 120.0:
            failures.append(f"took {elapsed:.1f}s, budget 120s")
        walls = ", ".join(
            f"{m} {comparison.modes[m]['wall_ms']:.0f}ms" for m in comparison.modes
        )
        verdict(
            7,
            "monolith, flow, and faas agree on final metrics and retained window",
            failures,
            f"{elapsed:.1f}s total; {walls}",
        )

    def test_criterion_8_flow_parser_totality(self):
        failures = []
        corpus = malformed_flows()
        if len(corpus) < 50:
            failures.append(f"corpus has only {len(corpus)} cases")
        for label, text in corpus:
            try:
                parse_flow(text)
                failures.append(f"{label}: accepted")
            except ParseError as exc:
                if not str(exc):
                    failures.append(f"{label}: empty diagnostic")
            except Exception as exc:
                failures.append(f"{label}: crashed with {type(exc).__name__}")

        for name in ("debug_delete.json", "ingest_window.json", "analyze_report.json"):
            try:
                load_flow(FLOWS_DIR / name)
            except Exception as exc:
                failures.append(f"{name} failed to parse: {exc}")

        # and they run, not just parse
        try:
            window = CappedCollection(5000)
            rt = FlowRuntime(window=window)
            for i in range(3):
                window.insert({"seq": i + 1, "t_ms": i * 10, "value": 0.5})
            with run_flow(load_flow(FLOWS_DIR / "debug_delete.json"), rt) as handle:
                handle.inject("wipe")
                handle.drain(5.0)
                if handle.debug != [("removed", 3)]:
                    failures.append(f"debug_delete misbehaved: {handle.debug}")

            reports = []
            window2 = CappedCollection(5000)
            rt2 = FlowRuntime(window=window2, report=reports.append)
            for rec in (
                {"seq": i + 1, "t_ms": round(i * 10), "value": 0.5 + v}
                for i, v in enumerate(sine_wave(1.0, 100, 15.0))
            ):
                window2.insert(rec)
            with broker_start(BrokerConfig()) as broker:
                rt3 = FlowRuntime(window=window2, broker_address=broker.address)
                # a source that cannot subscribe raises into the except below
                with run_flow(load_flow(FLOWS_DIR / "ingest_window.json"), rt3):
                    pass
                with run_flow(load_flow(FLOWS_DIR / "analyze_report.json"), rt2) as analyzer:
                    deadline = time.monotonic() + 5.0
                    while not reports and time.monotonic() < deadline:
                        time.sleep(0.05)
            if not reports:
                failures.append("analyze_report produced no report")
            elif abs(reports[0]["bpm"] - 60.0) > 1.0:
                failures.append(f"analyze_report bpm {reports[0]['bpm']}")
        except Exception as exc:
            failures.append(f"shipped flow run crashed: {type(exc).__name__}: {exc}")

        verdict(
            8,
            f"{len(corpus)} malformed flows all diagnosed; shipped flows parse and run",
            failures,
        )

    def test_criterion_9_synthetic_end_to_end(self, tmp_path):
        failures = []
        samples = [0.5 + v for v in sine_wave(1.0, 100, 30.0)]
        data = tmp_path / "sine.txt"
        data.write_text("\n".join(f"{v:.6f}" for v in samples) + "\n")
        cfg = RunConfig(
            data=str(data), speedup=0.0, threshold=3000, decimation=1000, rate=100.0
        )
        bpms = {}
        for mode in ("monolith", "flow", "faas"):
            result = run_pipeline(mode, cfg)
            final = result.final_metrics
            if final is None:
                failures.append(f"{mode}: no final report")
                continue
            bpms[mode] = final["bpm"]
            if abs(final["bpm"] - 60.0) > 1.0:
                failures.append(f"{mode}: bpm {final['bpm']}")
        detail = ", ".join(f"{m} {b:.3f}" for m, b in bpms.items())
        verdict(9, "1 Hz sinusoid replay reports 60 bpm (±1) in every mode", failures, detail)
