"""Command line entry point.

Five commands share one flag set and one config pipeline: analyze a
recorded file offline, run a standalone broker, replay a file into an
existing broker, run one full pipeline (monolith, flow, or faas), or run
all three and compare their final numbers.

Exit codes are stable: 0 success, 1 runtime failure (lost broker, lost
messages, diverged comparison), 2 configuration or parse failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from dataclasses import fields

from . import hrv
from .config import MODES, ConfigError, RunConfig, load_run_config
from .emulator import ReplayError
from .faas import FaasError
from .flow import ParseError
from .mqtt import BrokerConfig, MqttError, broker_start
from .report import ReportWriter, format_line, make_report, metrics_to_dict
from .runner import compare_modes, load_samples, replay_into, run_pipeline

_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplex",
        description="heart telemetry pipeline: one analysis core, three architectures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file (default: $TRIPLEX_CONFIG)")
        p.add_argument("--host", help="broker host")
        p.add_argument("--port", type=int, help="broker port (0 picks a free one)")
        p.add_argument("--topic", help="sensor topic")
        p.add_argument("--threshold", type=int, help="retained window size in records")
        p.add_argument("--decimation", type=int, help="analyze every Nth stored seq")
        p.add_argument("--data", help="signal file, one amplitude per line")
        p.add_argument("--rate", type=float, help="sample rate in Hz")
        p.add_argument("--speedup", type=float, help="replay speed multiplier, 0 floods")
        p.add_argument("--report", help="write report lines/summary to this file")
        p.add_argument("--flow-file", dest="flow_file", help="flow graph for mode flow")
        p.add_argument("--min-bpm", dest="min_bpm", type=float, help="lower abnormality bound")
        p.add_argument("--max-bpm", dest="max_bpm", type=float, help="upper abnormality bound")
        p.add_argument("--mode", choices=MODES, help="pipeline architecture")
        return p

    p_analyze = command("analyze", "one-shot offline analysis of a signal file")
    p_analyze.add_argument("file", help="signal file to analyze")
    p_analyze.set_defaults(handler=cmd_analyze)

    command("broker", "run the embedded broker until interrupted").set_defaults(
        handler=cmd_broker
    )
    command("emulate", "replay a signal file into a running broker").set_defaults(
        handler=cmd_emulate
    )
    command("run", "run one pipeline end to end over a replay").set_defaults(handler=cmd_run)
    command("compare", "run all three pipelines and diff their final metrics").set_defaults(
        handler=cmd_compare
    )
    return parser


def _resolve_config(args) -> RunConfig:
    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS}
    return load_run_config(args.config, overrides)


def cmd_analyze(args, cfg: RunConfig) -> int:
    try:
        recorded = hrv.load_signal(args.file, cfg.rate)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.file}: {exc}") from exc
    metrics = hrv.analyze(recorded, cfg.analysis())
    record = make_report(metrics_to_dict(metrics), "offline", cfg.analysis())
    print(format_line(record))
    if cfg.report:
        writer = ReportWriter(cfg.report)
        writer(record)
        writer.close()
    return 0


def cmd_broker(args, cfg: RunConfig) -> int:
    # An interrupt is the only way to stop this command. A shell without job
    # control starts a background command with SIGINT ignored, and Python
    # keeps an inherited ignore, so such a broker could only be killed.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    with broker_start(BrokerConfig(host=cfg.host, port=cfg.port)) as broker:
        host, port = broker.address
        try:
            print(f"listening on {host}:{port}", flush=True)
            while True:
                time.sleep(0.2)
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    return 0


def cmd_emulate(args, cfg: RunConfig) -> int:
    if not load_samples(cfg):
        raise ConfigError(f"{cfg.data}: no samples")
    if cfg.port == 0:
        raise ConfigError("emulate needs the port of a running broker (--port)")
    report = replay_into((cfg.host, cfg.port), cfg)
    print(f"published {report.published_count} records in {report.duration_ms:.0f} ms")
    return 0


def cmd_run(args, cfg: RunConfig) -> int:
    writer = ReportWriter(cfg.report) if cfg.report else None

    def on_report(record):
        print(format_line(record), flush=True)
        if writer is not None:
            writer(record)

    try:
        result = run_pipeline(cfg.mode, cfg, on_report=on_report)
    finally:
        if writer is not None:
            writer.close()
    print(
        f"mode={result.mode} published={result.published} stored={result.stored} "
        f"reports={len(result.reports)} wall_ms={result.wall_ms:.0f}",
        file=sys.stderr,
    )
    if not result.counts["drained"]:
        print(
            f"error: the run did not drain, records may be lost: "
            f"published={result.published} inserted={result.total_inserted}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_compare(args, cfg: RunConfig) -> int:
    comparison = compare_modes(cfg)
    payload = json.dumps(comparison.to_dict(), indent=2)
    print(payload)
    print(f"verdict: {comparison.verdict}" + (f" [{comparison.field}]" if comparison.field else ""))
    if cfg.report:
        with open(cfg.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    return 0 if comparison.verdict in ("EQUAL", "EQUAL-EMPTY") else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.handler(args, cfg)
    except (ConfigError, ParseError, hrv.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReplayError, MqttError, FaasError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
