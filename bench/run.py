"""End-to-end and per-layer benchmark of the three triplex pipelines.

Run from the repository root:

    python3 bench/run.py --workload flood --seed 1 --seconds 60 --trace 0

Every workload is a traffic mix of two phases, each replayed through
``triplex.runner.run_pipeline`` for monolith, flow and faas in turn, one
pipeline per fresh process:

- closed: speedup 0, one publisher waiting for each PUBACK. Gives
  ``records_per_s.*``.
- paced: an open loop at a fixed record rate. Gives the latency metrics,
  each timed from when the record was due, not when it was sent.

An untimed closed round comes first. Then cycles of one closed and one
paced round follow, as many as fit in ``--seconds`` at about 14 s each. Each
round replays its own stretch of the recording and runs monolith, flow and
faas in that order, each pinned to one CPU. Each round passes the
correctness gate or yields no timing: the three modes' final metrics agree
within 1e-9, their seq ranges match, and each stored window is the
contiguous tail of 1..N. Every end-to-end figure is a median over rounds.
With ``--trace 1`` the pipelines run under span tracing and the per-layer
metrics are printed instead; spans and a self-time table are written under
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` over
``attempted`` is the error rate: lost, duplicated or missing records, pump,
node and invocation errors, plus every record of a round that failed the
gate, over records published.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
MODES = ("monolith", "flow", "faas")

# A run is a warm-up closed round, then cycles of one closed and one paced
# round. Each round replays its own data file, looped from a fresh seeded
# rotation offset, and runs monolith, flow and faas in fresh processes.
#
# Paced speedups sit a golden-ratio fraction above a whole record rate, so
# the flow pipeline's 1 s analysis timer meets the record grid at a
# different phase on every tick instead of the same one for a whole run.
WORKLOADS = {
    "flood": {
        "threshold": 3000,
        "closed": {"records": 4000, "decimation": 100},
        # decimation 5 rather than 100, so that a paced round holds some 30
        # reports and a run enough of them for a steady median
        "paced": {"records": 400, "decimation": 5, "speedup": 2.00618},  # ~200 records/s
    },
    "dense-analysis": {
        # The shortest window that never failed as too short to analyse, at
        # any offset into the recording, so that most rounds run at the cap.
        "threshold": 300,
        "closed": {"records": 1200, "decimation": 1},
        "paced": {"records": 350, "decimation": 1, "speedup": 1.50618},  # ~150 records/s
    },
}
# Records of the untimed closed round that starts every run.
WARM_RECORDS = 300
# A cycle of one closed and one paced round took 12.5-14.5 s on either
# workload on the reference machine. A run holds as many cycles as fit in
# --seconds, counted up front, so every run takes the same rounds.
CYCLE_S = 14.0
CHILD_TIMEOUT_S = 60.0
# Whatever the pipelines do, the run stops here and reports failure.
DEADLINE_S = 170


class Overrun(Exception):
    pass


def overrun(signum, frame):
    # subprocess.run kills and reaps its child when this propagates
    raise Overrun(f"stopped after {DEADLINE_S} s")


# -- inputs ------------------------------------------------------------------


def recording() -> list:
    """The shipped recording's sample lines, as text."""
    lines = (ROOT / "data" / "sample_hr.txt").read_text("utf-8").split()
    return [line for line in lines if line != "hr"]


def write_data(path: Path, values: list, offset: int, n: int) -> None:
    """n samples of the recording, looped from a rotation offset."""
    path.write_text("".join(values[(offset + i) % len(values)] + "\n" for i in range(n)), "utf-8")


# -- one pipeline run ----------------------------------------------------------


def pin(cpu: int):
    """Runs in the child before exec, so all of its threads share one CPU."""
    return lambda: os.sched_setaffinity(0, {cpu})


def run_child(mode: str, data: Path, phase: dict, trace: bool, spans_out=None):
    """One pipeline over one data file in a fresh process; its result, or None."""
    cmd = [
        sys.executable,
        str(BENCH / "pipeline_run.py"),
        "--mode", mode,
        "--data", str(data),
        "--records", str(phase["records"]),
        "--decimation", str(phase["decimation"]),
        "--threshold", str(phase["threshold"]),
        "--speedup", repr(phase["speedup"]),
    ]
    if trace:
        cmd.append("--trace")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one string-hash seed for every pipeline process, so dict layouts match
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            preexec_fn=pin(phase["cpu"]),
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {mode} run timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: {mode} run exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def metrics_agree(a, b) -> bool:
    """The compare rule of ``triplex.runner``: every final metric equal within 1e-9."""
    from triplex.runner import _close

    if a is None or b is None or set(a) != set(b):
        return False
    return all(_close(x, b[name]) for name, x in a.items())


def gate(results: list, n: int) -> list:
    """Why this round's results cannot be trusted; empty when they can."""
    problems = []
    if any(r is None for r in results):
        return ["a pipeline run crashed or timed out"]
    ref = results[0]
    for r in results:
        if r["published"] != n:
            problems.append(f"{r['mode']}: published {r['published']} of {n}")
        if not r["window_ok"]:
            problems.append(f"{r['mode']}: stored window is not the tail of 1..{n}")
        if "timing" not in r:
            problems.append(f"{r['mode']}: no report")
        if r is not ref:
            if not metrics_agree(ref["final_metrics"], r["final_metrics"]):
                problems.append(f"{r['mode']}: final metrics differ from {ref['mode']}")
            if r["seq_range"] != ref["seq_range"]:
                problems.append(f"{r['mode']}: seq range {r['seq_range']} != {ref['seq_range']}")
    return problems


# -- aggregation -----------------------------------------------------------------


# Printed, but left out of the result line and so out of the regression gate:
# a paced round's p90 lies in the tail that host CPU steal stretches, and it
# moved by half or more between runs while the p50 moved by a tenth.
# Flow reports on a 1 s timer, so a paced round of 2-3 s holds at most two
# flow reports, and some hold none.
PRINTED_ONLY = {f"store_latency_p90_ms.{mode}" for mode in MODES} | {"report_latency_p50_ms.flow"}


def end_to_end(rounds: list) -> dict:
    closed = [r for r in rounds if r["phase"] == "closed" and r["ok"]]
    paced = [r for r in rounds if r["phase"] == "paced" and r["ok"]]
    if not closed or not paced:
        raise ValueError("no round of each phase passed the gate")
    out = {}
    # Every figure is a median over rounds, each round its own processes
    # and its own stretch of the recording: the host's speed moved from one
    # round to the next far more than a statistic moved within a round.
    for mode in MODES:
        rates = [r["runs"][mode]["timing"]["records_per_s"] for r in closed]
        out[f"records_per_s.{mode}"] = (statistics.median(rates), "1/s")
    for name, kind, q in (
        ("store_latency_p50_ms", "store", 50),
        ("store_latency_p90_ms", "store", 90),
        ("report_latency_p50_ms", "report", 50),
    ):
        for mode in MODES:
            # A short paced round can end before flow's 1 s timer analyses
            # a window long enough; such a round has no report latency.
            samples = [r["runs"][mode]["latency_ms"][kind] for r in paced]
            values = [float(numpy.percentile(x, q)) for x in samples if x]
            if not values and f"{name}.{mode}" not in PRINTED_ONLY:
                raise ValueError(f"{mode} emitted no report during the paced rounds")
            out[f"{name}.{mode}"] = (statistics.median(values) if values else math.nan, "ms")
    ok = closed + paced
    out["setup_s"] = (
        sum(statistics.median(r["runs"][m]["timing"]["setup_s"] for r in ok) for m in MODES),
        "s",
    )
    out["peak_rss_mb"] = (max(run["rss_mb"] for r in ok for run in r["runs"].values()), "MB")
    return out


# Per-layer metrics whose value is summed over the run, not a median.
SUMMED = {
    "mqtt.dup_publishes",
    "store.dedup_drops",
    "hrv.analysis_errors",
    "faas.failed_invocations",
}


def per_layer(rounds: list) -> tuple:
    """(metrics, self-time rows); layer figures come from closed rounds,
    emulator lateness from paced rounds."""
    closed = [r for r in rounds if r["phase"] == "closed" and r["ok"]]
    paced = [r for r in rounds if r["phase"] == "paced" and r["ok"]]
    if not closed or not paced:
        raise ValueError("no round of each phase passed the gate")
    samples: dict = {}
    for r in closed:
        for run in r["runs"].values():
            for name, value in run["layers"].items():
                if name != "selftime" and not name.startswith("emulator.late"):
                    samples.setdefault(name, []).append(value)
    for r in paced:
        for run in r["runs"].values():
            for name in ("emulator.late_p50_ms", "emulator.late_p99_ms"):
                samples.setdefault(name, []).append(run["layers"][name])
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {}
    for name, values in samples.items():
        if name in units:
            value = sum(values) if name in SUMMED else statistics.median(values)
            out[name] = (value, units[name])
    out["emulator.publishes"] = (sum(run["published"] for r in closed + paced for run in r["runs"].values()), "count")
    for mode in MODES:
        traced = statistics.median(r["runs"][mode]["timing"]["records_per_s"] for r in closed)
        plain = statistics.median(r["twins"][mode]["timing"]["records_per_s"] for r in closed)
        out[f"trace.records_per_s.{mode}"] = (traced, "1/s")
        out[f"trace.slowdown.{mode}"] = (plain / traced, "ratio")
    table: dict = {}
    for r in closed + paced:
        for run in r["runs"].values():
            for name, (calls, total_ms, self_ms) in run["layers"]["selftime"].items():
                row = table.setdefault((r["phase"], name), [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total_ms
                row[2] += self_ms
    return out, table


# name, unit, better -- the order BENCHMARK.json lists them in
PER_LAYER = [
    ("emulator.late_p50_ms", "ms", "lower"),
    ("emulator.late_p99_ms", "ms", "lower"),
    ("emulator.publishes", "count", "higher"),
    ("mqtt.publish_rtt_p50_us", "us", "lower"),
    ("mqtt.publish_rtt_p99_us", "us", "lower"),
    ("mqtt.encode_calls", "1/record", "lower"),
    ("mqtt.encode_us", "us/record", "lower"),
    ("mqtt.decode_calls", "1/record", "lower"),
    ("mqtt.decode_us", "us/record", "lower"),
    ("mqtt.dup_publishes", "count", "lower"),
    ("mqtt.poll_batch_mean", "messages", "lower"),
    ("store.inserts", "1/record", "lower"),
    ("store.insert_us", "us", "lower"),
    ("store.dedup_drops", "count", "lower"),
    ("store.get_all_calls", "1/record", "lower"),
    ("store.get_all_us", "us", "lower"),
    ("hrv.signal_from_records_us", "us", "lower"),
    ("hrv.analyze_us", "us", "lower"),
    ("hrv.analyze_calls", "1/record", "lower"),
    ("hrv.analysis_errors", "count", "lower"),
    ("monolith.dispatch_us", "us", "lower"),
    ("monolith.current_metrics_self_us", "us", "lower"),
    ("flow.dispatch_us", "us", "lower"),
    ("flow.drain_wait_ms", "ms", "lower"),
    ("faas.invoke_us.subscriber", "us", "lower"),
    ("faas.invoke_us.store_ops", "us", "lower"),
    ("faas.invoke_us.metrics_calc", "us", "lower"),
    ("faas.invoke_self_us", "us", "lower"),
    ("faas.invocations", "1/record", "lower"),
    ("faas.failed_invocations", "count", "lower"),
    ("runner.setup_ms", "ms", "lower"),
    ("runner.drain_wait_ms", "ms", "lower"),
    ("runner.teardown_ms", "ms", "lower"),
    ("runner.wall_ms", "ms", "lower"),
] + [(f"trace.records_per_s.{m}", "1/s", "higher") for m in MODES] + [
    (f"trace.slowdown.{m}", "ratio", "lower") for m in MODES
]


# -- provenance --------------------------------------------------------------------


def stamp(args, spec: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.json")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "records": {phase: spec[phase]["records"] for phase in ("warm", "closed", "paced")},
        "fresh_process_per_run": True,
    }


# -- main --------------------------------------------------------------------------


def run_round(phase: dict, data: Path, trace: bool, out_dir: Path) -> dict:
    n = phase["records"]
    runs, twins = {}, {}
    for mode in MODES:
        if trace and phase["name"] == "closed":
            twins[mode] = run_child(mode, data, phase, False)
        spans = out_dir / f"spans-{phase['name']}-{mode}.jsonl" if trace else None
        runs[mode] = run_child(mode, data, phase, trace, spans)
    results = [runs[m] for m in MODES] + list(twins.values())
    problems = gate(results, n)
    errors = sum(sum(r["errors"].values()) for r in results if r is not None)
    if problems:
        errors = max(errors, n * len(results))
    return {
        "phase": phase["name"],
        "ok": not problems,
        "problems": problems,
        "attempted": n * len(results),
        "errors": errors,
        "runs": runs,
        "twins": twins,
    }


def timed_round(phase: dict, index: int, source: tuple, work: Path, trace: bool, out_dir: Path) -> dict:
    """One round of every mode over a fresh stretch of the recording, gated."""
    values, rng = source
    data = work / f"round{index}.txt"
    write_data(data, values, rng.randrange(len(values)), phase["records"])
    t0 = time.monotonic()
    result = run_round(phase, data, trace, out_dir)
    result["seconds"] = time.monotonic() - t0
    status = "ok" if result["ok"] else "FAILED: " + "; ".join(result["problems"])
    print(f"# round {index + 1} {phase['name']} {phase['records']} records: {result['seconds']:.1f} s, {status}")
    return result


def phases(spec: dict, records) -> dict:
    """The run's three kinds of round, each with all its pipeline settings."""
    common = {"threshold": spec["threshold"], "cpu": spec["cpu"]}
    out = {
        "warm": {**spec["closed"], "records": min(WARM_RECORDS, spec["closed"]["records"])},
        "closed": dict(spec["closed"]),
        "paced": dict(spec["paced"]),
    }
    out["warm"]["speedup"] = out["closed"]["speedup"] = 0.0
    for name, phase in out.items():
        phase.update(common, name=name)
        if records:
            phase["records"] = records
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="triplex end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, help="records per round (short smoke runs)")
    args = parser.parse_args(argv)

    if not (SRC / "triplex" / "runner.py").is_file() or not (ROOT / "data" / "sample_hr.txt").is_file():
        print(f"bench: no triplex sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = dict(WORKLOADS[args.workload])
    # Every pipeline process runs on this one CPU. Unpinned, its threads
    # woke each other across the two vCPUs of the reference machine, and
    # throughput halved and swung by a third from one process to the next.
    spec["cpu"] = max(os.sched_getaffinity(0))
    spec.update(phases(spec, args.records))
    trace = bool(args.trace)
    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(DEADLINE_S)
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".bench_work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rounds: list = []
    try:
        source = (recording(), random.Random(args.seed))
        # An untimed closed round first, so the first timed round follows
        # the same load as every later one. Then cycles of a closed and a
        # paced round, spread over the whole run. A failed round ends the
        # run, so a hung pipeline costs one child timeout.
        rounds.append(timed_round(spec["warm"], 0, source, work, False, out_dir))
        for _ in range(max(1, int(args.seconds // CYCLE_S))):
            for name in ("closed", "paced"):
                if rounds[-1]["ok"]:
                    rounds.append(timed_round(spec[name], len(rounds), source, work, trace, out_dir))
        ok = rounds[-1]["ok"]
    except Overrun as exc:
        print(f"bench: {exc}", file=sys.stderr)
        ok = False
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["errors"] for r in rounds)
    provenance = stamp(args, spec)
    provenance["rounds"] = [
        {"phase": r["phase"], "ok": r["ok"], "problems": r["problems"]} for r in rounds
    ]
    try:
        if trace:
            metrics, table = per_layer(rounds)
        else:
            metrics, table = end_to_end(rounds), None
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, attempted), "failed": failed, "metrics": {}}))
        return 1

    print("# " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}" + ("  (printed only)" if name in PRINTED_ONLY else ""))
    print(f"{'error_rate':40s} {failed / max(1, attempted):14.6g} ratio")
    if table is not None:
        print("# self time per span, summed over traced runs (phase, span, calls, total ms, self ms, self us/call)")
        for (phase, name), (calls, total_ms, self_ms) in sorted(table.items()):
            print(f"#   {phase:6s} {name:32s} {calls:8d} {total_ms:12.1f} {self_ms:12.1f} {self_ms / calls * 1e3:10.1f}")
        (out_dir / f"selftime-seed{args.seed}.json").write_text(
            json.dumps([[p, n, *row] for (p, n), row in sorted(table.items())], indent=1), "utf-8"
        )
    record = {"stamp": provenance, "metrics": {k: v[0] for k, v in metrics.items()}, "rounds": rounds}
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record), "utf-8")

    correct = ok and all(r["ok"] for r in rounds) and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
