import json
import threading
import time
from pathlib import Path

import pytest

from triplex import hrv
from triplex.config import ConfigError, RunConfig
from triplex.flow import ParseError, parse_flow
from triplex.monolith import SensorIngestor, WindowAnalyzer
from triplex.mqtt import BrokerConfig, broker_start, client_connect
from triplex.report import METRIC_FIELDS
from triplex.runner import (
    compare_modes,
    graph_for_run,
    load_samples,
    run_pipeline,
    shipped_flow_text,
)
from triplex.store import CappedCollection

from polling import all_exit_within, stop_seconds_mid_poll
from waveforms import sine_wave

DATA_FILE = str(Path(__file__).parent.parent / "data" / "sample_hr.txt")


def records_from(samples, rate=100.0):
    return [
        {"seq": i + 1, "t_ms": round(i * 1000 / rate), "value": v}
        for i, v in enumerate(samples)
    ]


def write_signal(tmp_path, values, name="signal.txt"):
    path = tmp_path / name
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


def gapped_pulse_signal(duration_s=14, rate=100, skip_beat=6):
    """Steady pulse train with one beat missing: a guaranteed RR outlier."""
    n = round(duration_s * rate)
    samples = [0.5] * n
    beat = 0
    t = 0.35
    while t < duration_s - 0.1:
        beat += 1
        if beat != skip_beat:
            center = round(t * rate)
            for k in range(-4, 5):
                if 0 <= center + k < n:
                    samples[center + k] += 1.0 - abs(k) / 5.0
        t += 1.0
    return samples


class TestWindowAnalyzer:
    def test_matches_direct_analysis(self):
        samples = sine_wave(1.0, 100, 20.0)
        window = CappedCollection(5000)
        for rec in records_from(samples):
            window.insert_unique(rec)
        analyzer = WindowAnalyzer(window, sample_rate_hz=100.0)
        metrics = analyzer.current_metrics()
        direct = hrv.analyze(hrv.Signal(samples, 100.0))
        assert metrics == direct

    def test_empty_window_raises(self):
        analyzer = WindowAnalyzer(CappedCollection(10))
        with pytest.raises(hrv.AnalysisError):
            analyzer.current_metrics()


class TestSensorIngestor:
    def test_stores_and_fires_on_decimation(self):
        window = CappedCollection(5000)
        analyzer = WindowAnalyzer(window)
        analyzer.current_metrics = window.count
        seen = []
        with broker_start(BrokerConfig()) as broker:
            with SensorIngestor(
                window, analyzer, broker.address, "hr/p1", decimation_n=10, on_metrics=seen.append
            ) as ingestor:
                with client_connect(broker.address, "sensor") as pub:
                    for rec in records_from([0.5] * 25):
                        pub.publish("hr/p1", json.dumps(rec).encode(), qos=1)
                deadline = time.monotonic() + 5.0
                while ingestor.source.delivered < 25 and time.monotonic() < deadline:
                    time.sleep(0.02)
        assert window.count() == 25
        # analyses at seqs 10 and 20, over 10 then 20 records
        assert seen == [10, 20]
        assert ingestor.errors == []

    def test_bad_payload_survives(self):
        window = CappedCollection(100)
        analyzer = WindowAnalyzer(window)
        with broker_start(BrokerConfig()) as broker:
            with SensorIngestor(window, analyzer, broker.address, "hr/p1") as ingestor:
                with client_connect(broker.address, "sensor") as pub:
                    pub.publish("hr/p1", b"\xff\xfe not a record", qos=1)
                    pub.publish(
                        "hr/p1", json.dumps({"seq": 1, "t_ms": 0, "value": 1.0}).encode(), qos=1
                    )
                deadline = time.monotonic() + 5.0
                while window.count() < 1 and time.monotonic() < deadline:
                    time.sleep(0.02)
        assert window.count() == 1
        assert len(ingestor.errors) == 1

    def test_insufficient_window_counts_skips(self):
        window = CappedCollection(100)
        analyzer = WindowAnalyzer(window, sample_rate_hz=100.0)
        with broker_start(BrokerConfig()) as broker:
            with SensorIngestor(
                window, analyzer, broker.address, "hr/p1", decimation_n=2
            ) as ingestor:
                with client_connect(broker.address, "sensor") as pub:
                    for rec in records_from([0.5] * 4):
                        pub.publish("hr/p1", json.dumps(rec).encode(), qos=1)
                deadline = time.monotonic() + 5.0
                while ingestor.source.delivered < 4 and time.monotonic() < deadline:
                    time.sleep(0.02)
        assert ingestor.skipped_analyses == 2

    def test_stop_mid_poll_returns_at_once(self):
        window = CappedCollection(10)
        with broker_start(BrokerConfig()) as broker:
            ingestor = SensorIngestor(window, WindowAnalyzer(window), broker.address, "hr/p1")
            took = stop_seconds_mid_poll(ingestor.source.session, ingestor.stop)
        assert not ingestor.source.thread.is_alive()
        assert took < 0.05  # the pump polls with a 0.1 s timeout

    def test_pump_exits_when_the_broker_stops(self):
        window = CappedCollection(10)
        broker = broker_start(BrokerConfig())
        ingestor = SensorIngestor(window, WindowAnalyzer(window), broker.address, "hr/p1")
        try:
            broker.stop()
            assert all_exit_within([ingestor.source.thread], 1.0)
        finally:
            ingestor.stop()

    def test_rejects_bad_decimation(self):
        window = CappedCollection(10)
        with pytest.raises(ValueError):
            SensorIngestor(window, WindowAnalyzer(window), ("127.0.0.1", 1), "t", decimation_n=0)


class TestLoadSamples:
    def test_reads_values(self, tmp_path):
        path = write_signal(tmp_path, [1.0, 2.0])
        assert load_samples(RunConfig(data=path)) == [1.0, 2.0]

    def test_no_data_configured(self):
        with pytest.raises(ConfigError, match="no data file"):
            load_samples(RunConfig())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_samples(RunConfig(data=str(tmp_path / "nope.txt")))

    def test_garbled_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnope\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_samples(RunConfig(data=str(path)))


class TestGraphForRun:
    def test_shipped_flow_parses(self):
        # the runner feeds mqtt-in, counts on store-insert, and ends the run
        # through manual-inject
        shipped = {n.type for n in parse_flow(shipped_flow_text()).nodes}
        assert {"mqtt-in", "store-insert", "manual-inject"} <= shipped
        graph = graph_for_run(RunConfig(topic="hr/override"))
        mqtt_nodes = [n for n in graph.nodes if n.type == "mqtt-in"]
        assert len(mqtt_nodes) == 1
        assert mqtt_nodes[0].config["topic"] == "hr/override"

    def test_custom_flow_file(self, tmp_path):
        flow = {
            "nodes": [
                {"id": "in", "type": "mqtt-in", "config": {"topic": "oldtopic"}},
                {"id": "keep", "type": "store-insert", "config": {}},
            ],
            "wires": [["in", "keep"]],
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(flow))
        graph = graph_for_run(RunConfig(flow_file=str(path), topic="hr/new"))
        assert graph.node("in").config["topic"] == "hr/new"

    def test_missing_flow_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read flow file"):
            graph_for_run(RunConfig(flow_file=str(tmp_path / "ghost.json")))

    def test_malformed_flow_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"nodes\": []")
        with pytest.raises(ParseError):
            graph_for_run(RunConfig(flow_file=str(path)))


class TestRunPipeline:
    def run_cfg(self, tmp_path, **kw):
        samples = [0.5 + v for v in sine_wave(1.0, 100, 12.0)]
        data = write_signal(tmp_path, samples)
        defaults = dict(data=data, speedup=0.0, threshold=600, decimation=200)
        defaults.update(kw)
        return RunConfig(**defaults)

    @pytest.mark.parametrize("mode", ["monolith", "flow", "faas"])
    def test_each_mode_lands_every_seq(self, mode, tmp_path):
        cfg = self.run_cfg(tmp_path)
        result = run_pipeline(mode, cfg)
        assert result.published == 1200
        assert result.total_inserted == 1200
        assert result.stored == 600
        assert result.seq_range == (601, 1200)
        assert result.counts["drained"] is True
        assert result.reports, "expected at least the final report"
        assert result.reports[-1]["mode"] == mode
        assert result.final_metrics["bpm"] == pytest.approx(60.0, abs=1.0)

    def test_modes_agree_exactly(self, tmp_path):
        cfg = self.run_cfg(tmp_path)
        finals = [run_pipeline(m, cfg).final_metrics for m in ("monolith", "flow", "faas")]
        assert finals[0] == finals[1] == finals[2]

    def test_empty_data_gives_no_metrics(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        cfg = RunConfig(data=str(path), speedup=0.0)
        result = run_pipeline("monolith", cfg)
        assert result.published == 0
        assert result.stored == 0
        assert result.seq_range is None
        assert result.final_metrics is None

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown mode"):
            run_pipeline("serverful", self.run_cfg(tmp_path))

    def test_report_stream_callback(self, tmp_path):
        cfg = self.run_cfg(tmp_path, decimation=400)
        streamed = []
        result = run_pipeline("monolith", cfg, on_report=streamed.append)
        assert streamed == result.reports


class TestThreadsEndWithTheRun:
    def test_every_mode_leaves_no_thread_behind(self):
        cfg = RunConfig(data=DATA_FILE, speedup=0.0)
        start = threading.active_count()
        for mode in ("monolith", "flow", "faas") * 2:
            assert run_pipeline(mode, cfg).counts["drained"] is True
        deadline = time.monotonic() + 3.0
        while threading.active_count() > start and time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= start, threading.enumerate()


class TestThreadsPerRun:
    @pytest.mark.parametrize("mode, most", [("monolith", 3), ("flow", 4), ("faas", 6)])
    def test_peak_thread_count(self, tmp_path, mode, most):
        head = Path(DATA_FILE).read_text().splitlines()[:4001]  # header and 4000 records
        cfg = RunConfig(data=write_signal(tmp_path, head), speedup=0.0)
        peak = [0]
        done = threading.Event()

        def sample():
            while not done.is_set():
                peak[0] = max(peak[0], threading.active_count())
                time.sleep(0.002)

        sampler = threading.Thread(target=sample)
        sampler.start()
        # the threads alive now: the main thread, the sampler and any a test left
        before = threading.active_count()
        try:
            assert run_pipeline(mode, cfg).counts["drained"] is True
        finally:
            done.set()
            sampler.join()
        # the run's own threads plus the main thread
        assert peak[0] - before + 1 <= most


class TestCompareModes:
    def test_equal_on_clean_data(self, tmp_path):
        samples = [0.5 + v for v in sine_wave(1.0, 100, 10.0)]
        cfg = RunConfig(
            data=write_signal(tmp_path, samples), speedup=0.0, threshold=500, decimation=250
        )
        comparison = compare_modes(cfg)
        assert comparison.verdict == "EQUAL"
        assert comparison.field is None
        assert set(comparison.modes) == {"monolith", "flow", "faas"}
        for summary in comparison.modes.values():
            assert summary["published"] == 1000
            assert summary["seq_range"] == [501, 1000]
            assert summary["wall_ms"] > 0
        json.dumps(comparison.to_dict())  # must be serializable as-is

    def test_tampered_mode_is_caught(self, tmp_path, monkeypatch):
        samples = gapped_pulse_signal()
        cfg = RunConfig(
            data=write_signal(tmp_path, samples), speedup=0.0, threshold=5000, decimation=5000
        )
        clean = compare_modes(cfg)
        assert clean.verdict == "EQUAL"

        def outliers_kept(analyzer):
            records = [doc.body for doc in analyzer.window.get_all()]
            signal = hrv.signal_from_records(records, analyzer.sample_rate_hz)
            peaks = hrv.detect_peaks(signal, analyzer.analysis)
            return hrv.compute_metrics(hrv.compute_rr(peaks, signal.sample_rate_hz))

        # only the monolith analyses through WindowAnalyzer, so only its
        # run loses reject_outliers
        monkeypatch.setattr(WindowAnalyzer, "current_metrics", outliers_kept)
        tampered = compare_modes(cfg)
        assert tampered.verdict == "DIVERGED"
        assert tampered.field in METRIC_FIELDS

    def test_empty_dataset_verdict(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("hr\n")  # header only, zero samples
        cfg = RunConfig(data=str(path), speedup=0.0)
        comparison = compare_modes(cfg)
        assert comparison.verdict == "EQUAL-EMPTY"
        for summary in comparison.modes.values():
            assert summary["final_metrics"] is None
