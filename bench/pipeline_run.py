"""One pipeline run in a fresh process: replay a data file, report timings.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 bench/pipeline_run.py --mode faas --data FILE --records 3000 \
        --decimation 100 --threshold 3000 --speedup 0 [--trace] [--spans-out FILE]

Runs ``triplex.runner.run_pipeline`` once under the probes and prints one
JSON object as the last line of standard output: what the correctness gate
needs (final metrics, seq range, the stored window, error counts) and the
timings, in the units the benchmark reports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

import numpy as np

from probes import Probes
from triplex import hrv
from triplex.config import RunConfig
from triplex.runner import run_pipeline

RATE_HZ = 100.0
# Latencies leave out the records due in a paced run's first 0.1 s: the
# pipeline took its first record some 35 ms after the first publish, and
# the records queued behind it drained only after that.
SETTLE_S = 0.1
# Exception names of the analysis chain; a window too short to analyse is
# routine early in a run and is not counted as an error.
_TOO_SHORT = tuple(
    cls.__name__ + ":" for cls in (hrv.AnalysisError, *hrv.AnalysisError.__subclasses__())
)


def _pct(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def due_times(probes: Probes, n: int, speedup: float) -> np.ndarray:
    """When each record was due: its scheduled slot when paced, else its send."""
    start = np.asarray(probes.publish_start[1 : n + 1])
    if speedup <= 0:
        return start
    period_s = 1.0 / (RATE_HZ * speedup)
    # The replay's pacing origin is taken just before the first send.
    return start[0] + np.arange(n) * period_s


def error_counts(probes: Probes, result, expected: int) -> dict:
    inserted = sum(1 for t in probes.insert_at[1 : expected + 1] if t)
    counts = {
        "missing": expected - inserted,
        "duplicated": probes.duplicate_inserts,
        "undrained": 0 if result.counts.get("drained") else 1,
        "pump": len(probes.ingestor.errors) if probes.ingestor is not None else 0,
        "node": 0,
        "invocation": 0,
    }
    if probes.flow is not None:
        counts["node"] = sum(
            1
            for node_id, message in probes.flow.errors
            if not (probes.flow.graph.node(node_id).type == "hrv-analyze" and message.startswith(_TOO_SHORT))
        )
    if probes.host is not None:
        counts["invocation"] = sum(
            1
            for rec in probes.host.records
            if rec.outcome != "ok"
            and not (rec.function == "metrics_calc" and rec.error == "ValueError: insufficient data")
        )
    return counts


def window_is_tail(probes: Probes, expected: int, threshold: int) -> bool:
    """The stored window holds exactly the newest min(N, threshold) seqs.

    Called after the probes are removed, so get_all is the real one.
    """
    if probes.collection is None:
        return expected == 0
    seqs = [doc.body["seq"] for doc in probes.collection.get_all()]
    first = max(1, expected - threshold + 1)
    return seqs == list(range(first, expected + 1))


def self_times(spans: list) -> dict:
    """Per span name: count, total seconds, and self seconds (minus children)."""
    child_s: dict = {}
    for span in spans:
        if span[1] is not None:
            child_s[span[1]] = child_s.get(span[1], 0.0) + (span[5] - span[4])
    table: dict = {}
    for span in spans:
        dur = span[5] - span[4]
        row = table.setdefault(span[2], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += max(0.0, dur - child_s.get(span[0], 0.0))
    return table


def layer_metrics(probes: Probes, result, mode: str, n: int, speedup: float, timing: dict) -> dict:
    """Per-layer figures of one traced run (see bench/README.md for the map)."""
    table = self_times(probes.spans)

    def per_call_us(name, col):
        row = table.get(name)
        return row[col] / row[0] * 1e6 if row else None

    pub_start = np.asarray(probes.publish_start[1 : n + 1])
    pub_end = np.asarray(probes.publish_end[1 : n + 1])
    due = due_times(probes, n, speedup)
    rtt_us = (pub_end - pub_start) * 1e6
    delivered = sum(probes.poll_batches)
    inserts = table.get("store.insert", [0])[0]
    out = {
        "mqtt.publish_rtt_p50_us": _pct(rtt_us, 50),
        "mqtt.publish_rtt_p99_us": _pct(rtt_us, 99),
        "mqtt.encode_calls": len(probes.encode_s) / n,
        "mqtt.encode_us": sum(probes.encode_s) / n * 1e6,
        "mqtt.decode_calls": len(probes.decoded) / n,
        "mqtt.decode_us": sum(probes.decode_s) / n * 1e6,
        "mqtt.dup_publishes": probes.broker.stats["dup_publishes_received"],
        "mqtt.poll_batch_mean": _mean(probes.poll_batches),
        "store.inserts": inserts / n,
        "store.insert_us": per_call_us("store.insert", 1),
        "store.dedup_drops": delivered - inserts,
        "store.get_all_calls": table.get("store.get_all", [0])[0] / n,
        "store.get_all_us": per_call_us("store.get_all", 1),
        "hrv.signal_from_records_us": per_call_us("hrv.signal_from_records", 1),
        "hrv.analyze_us": per_call_us("hrv.analyze", 1),
        "hrv.analyze_calls": table.get("hrv.analyze", [0])[0] / n,
        "hrv.analysis_errors": probes.analysis_errors,
        "runner.setup_ms": timing["setup_s"] * 1e3,
        "runner.drain_wait_ms": (probes.reports[-1][0] - pub_end[-1]) * 1e3,
        "runner.teardown_ms": timing["teardown_s"] * 1e3,
        "runner.wall_ms": result.wall_ms,
    }
    if speedup > 0:
        late_ms = (pub_start - due) * 1e3
        out["emulator.late_p50_ms"] = _pct(late_ms, 50)
        out["emulator.late_p99_ms"] = _pct(late_ms, 99)
    polled = np.asarray(probes.polled_at[1 : n + 1])
    stored = np.asarray(probes.insert_at[1 : n + 1])
    if mode == "monolith":
        out["monolith.dispatch_us"] = float(np.mean(stored - polled)) * 1e6
        out["monolith.current_metrics_self_us"] = per_call_us("monolith.current_metrics", 2)
    elif mode == "flow":
        out["flow.dispatch_us"] = float(np.mean(stored - polled)) * 1e6
        out["flow.drain_wait_ms"] = table.get("flow.drain", [0, 0.0])[1] * 1e3
    else:
        for fn in ("subscriber", "store_ops", "metrics_calc"):
            out["faas.invoke_us." + fn] = per_call_us("faas.invoke." + fn, 1)
        invokes = [row for name, row in table.items() if name.startswith("faas.invoke.")]
        calls = sum(row[0] for row in invokes)
        out["faas.invoke_self_us"] = sum(row[2] for row in invokes) / max(1, calls) * 1e6
        out["faas.invocations"] = len(probes.invocations) / n
        out["faas.failed_invocations"] = sum(1 for _, outcome, _ in probes.invocations if outcome != "ok")
    out["selftime"] = {name: [row[0], row[1] * 1e3, row[2] * 1e3] for name, row in table.items()}
    return {k: v for k, v in out.items() if v is not None}


def warm_analysis(path: str) -> None:
    """Analyse the data once before timing anything.

    The first analysis in a fresh process took 15-25 ms instead of 1-3 ms,
    paying numpy's lazy set-up; without this the first report of every run
    would carry that one-off cost.
    """
    values = hrv.read_amplitudes(path)[:1000]
    try:
        hrv.analyze(hrv.Signal(values, RATE_HZ))
    except hrv.AnalysisError:
        pass


def run_once(args) -> dict:
    n = args.records
    warm_analysis(args.data)
    cfg = RunConfig(
        data=args.data,
        speedup=args.speedup,
        decimation=args.decimation,
        threshold=args.threshold,
        rate=RATE_HZ,
    )
    with Probes(n, traced=args.trace) as probes:
        root = probes.begin("runner.run_pipeline") if args.trace else None
        result = run_pipeline(args.mode, cfg, on_report=probes.on_report)
        returned = perf_counter()
        if root is not None:
            probes.end(root)

    out = {
        "mode": args.mode,
        "published": result.published,
        "seq_range": list(result.seq_range) if result.seq_range else None,
        "final_metrics": result.final_metrics,
        "window_ok": window_is_tail(probes, n, args.threshold),
        "errors": error_counts(probes, result, n),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not probes.reports or result.published != n or not probes.publish_start[1]:
        return out

    first_publish = probes.publish_start[1]
    final_report = probes.reports[-1][0]
    live = [t for t in probes.subscribed if t <= first_publish]
    timing = {
        "records_per_s": n / (final_report - first_publish),
        "setup_s": (live[-1] if live else first_publish) - probes.broker_started,
        "teardown_s": returned - final_report,
    }
    out["timing"] = timing
    if args.speedup > 0:
        due = due_times(probes, n, args.speedup)
        stored = np.asarray(probes.insert_at[1 : n + 1])
        first = int(np.searchsorted(due, due[0] + SETTLE_S))
        # Reports over a window ending at the last record are left out: the
        # runner's forced final analysis and any flow timer tick after the
        # replay ended measure idle time, not staleness.
        out["latency_ms"] = {
            "store": ((stored[first:] - due[first:]) * 1e3).round(4).tolist(),
            "report": [round((t - due[seq - 1]) * 1e3, 4) for t, seq in probes.reports if first < seq < n],
        }
    if args.trace:
        out["layers"] = layer_metrics(probes, result, args.mode, n, args.speedup, timing)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for span in probes.spans:
                    fh.write(json.dumps(dict(zip(("id", "parent", "name", "seq", "start", "end"), span))) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True, choices=("monolith", "flow", "faas"))
    parser.add_argument("--data", required=True)
    parser.add_argument("--records", type=int, required=True)
    parser.add_argument("--decimation", type=int, required=True)
    parser.add_argument("--threshold", type=int, required=True)
    parser.add_argument("--speedup", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    print(json.dumps(run_once(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
