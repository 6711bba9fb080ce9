"""Wiring for full runs: broker, pipeline, replay, drain, final report.

Every mode follows the same script, written once in run_pipeline. Start
an embedded broker and build the run's one capped window, then enter the
mode's entry in _PIPELINES, which builds the pipeline (direct calls, a
flow graph, or the function host) on that window with its subscription
live and yields its handle. Flood or pace the data file through a
publisher session, wait until every published seq has landed in the
window and handle.drained(published) holds, then call
handle.finalize() so each run ends with a report over its final window.
Leaving the entry stops the pipeline, source first; the broker stops last.
handle.counters() gives the run's per-mode counts.

All three pipelines share the storage dedup rule and the analysis chain,
so their final windows and final metrics must agree; compare_modes runs
them back to back and says so, or names the first field that drifted.
"""

from __future__ import annotations

import math
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Optional

from . import hrv
from .config import MODES, ConfigError, RunConfig
from .emulator import ReplayConfig, ReplayReport, replay
from .faas import FunctionHost, bind_mqtt_trigger, register_builtins
from .flow import FlowRuntime, parse_flow, run_flow
from .monolith import SensorIngestor, WindowAnalyzer
from .mqtt import BrokerConfig, broker_start, client_connect
from .report import METRIC_FIELDS, make_report, metrics_to_dict
from .store import CappedCollection

DEFAULT_FLOW = "health_monitor.json"


@dataclass
class RunResult:
    mode: str
    reports: list
    published: int
    stored: int
    total_inserted: int
    seq_range: Optional[tuple]
    wall_ms: float
    counts: dict

    @property
    def final_metrics(self) -> Optional[dict]:
        """Metric fields of the last report, or None if nothing was analyzable."""
        if not self.reports:
            return None
        last = self.reports[-1]
        return {name: last[name] for name in METRIC_FIELDS}


def load_samples(cfg: RunConfig) -> list:
    """Pre-read the data file; any defect is a configuration problem."""
    if cfg.data is None:
        raise ConfigError("no data file configured (--data or the config file)")
    try:
        return hrv.read_amplitudes(cfg.data)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {cfg.data}: {exc}") from exc
    except hrv.InvalidSignal as exc:
        raise ConfigError(str(exc)) from exc


def shipped_flow_text() -> str:
    return resources.files("triplex").joinpath("flows").joinpath(DEFAULT_FLOW).read_text("utf-8")


def graph_for_run(cfg: RunConfig):
    """The flow to run, with every mqtt-in node retargeted at cfg.topic."""
    if cfg.flow_file:
        try:
            with open(cfg.flow_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read flow file {cfg.flow_file}: {exc}") from exc
    else:
        text = shipped_flow_text()
    graph = parse_flow(text)
    nodes = tuple(
        replace(node, config={**node.config, "topic": cfg.topic})
        if node.type == "mqtt-in"
        else node
        for node in graph.nodes
    )
    return replace(graph, nodes=nodes)


def _wait_for(pred: Callable[[], bool], timeout_s: float, interval_s: float = 0.02) -> bool:
    # The first polls come 1 ms apart, since a drain often ends within a few
    # milliseconds and a coarse poll would add up to a whole interval to the
    # run. The gap then doubles up to interval_s, so that a long drain does
    # not keep taking the CPU from the pipeline it waits for.
    deadline = time.monotonic() + timeout_s
    delay_s = min(0.001, interval_s)
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(delay_s)
        delay_s = min(2 * delay_s, interval_s)
    return pred()


def replay_into(address, cfg: RunConfig) -> ReplayReport:
    """Publish cfg.data to cfg.topic at the broker at address, qos 1."""
    with client_connect(address, client_id=f"replay-{uuid.uuid4().hex[:8]}", keep_alive_s=30) as pub:
        return replay(
            ReplayConfig(cfg.data, topic=cfg.topic, sample_rate_hz=cfg.rate, speedup=cfg.speedup),
            pub,
        )


@contextmanager
def _monolith(cfg: RunConfig, address, window: CappedCollection, emit):
    analysis = cfg.analysis()
    with SensorIngestor(
        window,
        WindowAnalyzer(window, analysis, cfg.rate),
        address,
        cfg.topic,
        cfg.decimation,
        on_metrics=lambda m: emit(make_report(metrics_to_dict(m), "monolith", analysis)),
    ) as ingestor:
        yield ingestor


@contextmanager
def _flow(cfg: RunConfig, address, window: CappedCollection, emit):
    graph = graph_for_run(cfg)
    runtime = FlowRuntime(
        window=window,
        analysis=cfg.analysis(),
        broker_address=address,
        sample_rate_hz=cfg.rate,
        report=emit,
    )
    with run_flow(graph, runtime) as handle:
        yield handle


@contextmanager
def _faas(cfg: RunConfig, address, window: CappedCollection, emit):
    analysis = cfg.analysis()
    with FunctionHost(window, analysis=analysis, sample_rate_hz=cfg.rate) as host:
        register_builtins(host)
        with bind_mqtt_trigger(
            host,
            address,
            cfg.topic,
            cfg.decimation,
            on_metrics=lambda m: emit(make_report(m, "faas", analysis)),
        ) as trigger:
            yield trigger


# Each entry starts one pipeline and yields its handle, which the runner
# drives through drained(published), finalize() and counters(); leaving
# the context stops the pipeline and closes whatever it owns.
_PIPELINES = {"monolith": _monolith, "flow": _flow, "faas": _faas}


def run_pipeline(
    mode: str, cfg: RunConfig, on_report: Optional[Callable[[dict], None]] = None
) -> RunResult:
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    samples = load_samples(cfg)
    expected = len(samples)

    reports: list = []

    def emit(record: dict):
        reports.append(record)
        if on_report is not None:
            on_report(record)

    started = time.perf_counter()
    with broker_start(BrokerConfig(host=cfg.host, port=cfg.port)) as broker:
        coll = CappedCollection(cfg.threshold)
        with _PIPELINES[mode](cfg, broker.address, coll, emit) as pipeline:
            published = replay_into(broker.address, cfg).published_count if expected else 0
            settled = _wait_for(lambda: coll.total_inserted() >= published, 30.0)
            settled = _wait_for(lambda: pipeline.drained(published), 30.0) and settled
            pipeline.finalize()

        docs = coll.get_all()
        seq_range = (docs[0].body["seq"], docs[-1].body["seq"]) if docs else None
        run_counts = pipeline.counters()
        run_counts["drained"] = settled
        stored = coll.count()
        total_inserted = coll.total_inserted()

    wall_ms = (time.perf_counter() - started) * 1000.0
    return RunResult(
        mode, reports, published, stored, total_inserted, seq_range, wall_ms, run_counts
    )


@dataclass
class ComparisonReport:
    verdict: str  # EQUAL | EQUAL-EMPTY | DIVERGED
    field: Optional[str]
    modes: dict

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "field": self.field, "modes": self.modes}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _verdict(results: dict) -> tuple:
    finals = [results[m].final_metrics for m in MODES]
    if all(f is None for f in finals):
        return "EQUAL-EMPTY", None
    if any(f is None for f in finals):
        return "DIVERGED", "final_metrics"
    reference = results[MODES[0]].final_metrics
    for name in METRIC_FIELDS:
        for mode in MODES[1:]:
            if not _close(reference[name], results[mode].final_metrics[name]):
                return "DIVERGED", name
    if len({results[m].seq_range for m in MODES}) > 1:
        return "DIVERGED", "seq_range"
    return "EQUAL", None


def compare_modes(cfg: RunConfig) -> ComparisonReport:
    results = {mode: run_pipeline(mode, cfg) for mode in MODES}
    verdict, field = _verdict(results)
    modes = {
        mode: {
            "wall_ms": round(result.wall_ms, 3),
            "published": result.published,
            "stored": result.stored,
            "total_inserted": result.total_inserted,
            "seq_range": list(result.seq_range) if result.seq_range else None,
            "reports": len(result.reports),
            "final_metrics": result.final_metrics,
            "counts": result.counts,
        }
        for mode, result in results.items()
    }
    return ComparisonReport(verdict, field, modes)
