import json
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from triplex import cli
from triplex.cli import main
from triplex.config import RunConfig
from triplex.mqtt import BrokerConfig, broker_start
from triplex.report import METRIC_FIELDS
from triplex.runner import RunResult

from waveforms import sine_wave

DATA_FILE = str(Path(__file__).parent.parent / "data" / "sample_hr.txt")


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv("TRIPLEX_CONFIG", raising=False)


def write_signal(tmp_path, values, name="signal.txt"):
    path = tmp_path / name
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


class TestParsing:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "x.txt", "--frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["analyze", "broker", "emulate", "run", "compare"])
    def test_every_config_field_has_a_flag(self, command):
        argv = [command, "x.txt"] if command == "analyze" else [command]
        args = cli.build_parser().parse_args(argv)
        missing = [f.name for f in fields(RunConfig) if not hasattr(args, f.name)]
        assert missing == []

    def test_mode_choices_enforced(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "--mode", "microservice"])
        assert info.value.code == 2


class TestAnalyze:
    def test_shipped_data(self, capsys):
        assert main(["analyze", DATA_FILE]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        record = json.loads(out[0])
        assert record["mode"] == "offline"
        assert record["flags"] == []
        assert record["bpm"] == pytest.approx(71.84, abs=0.1)
        for name in METRIC_FIELDS:
            assert name in record

    def test_low_bound_flag(self, capsys):
        assert main(["analyze", DATA_FILE, "--min-bpm", "80"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["flags"] == ["bpm_below_min"]

    def test_high_bound_flag(self, capsys):
        assert main(["analyze", DATA_FILE, "--max-bpm", "60"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["flags"] == ["bpm_above_max"]

    def test_missing_file(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "ghost.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_flat_signal_exits_two(self, capsys, tmp_path):
        path = write_signal(tmp_path, [1.0] * 500)
        assert main(["analyze", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        assert main(["analyze", DATA_FILE, "--report", str(out_path)]) == 0
        stdout_record = json.loads(capsys.readouterr().out)
        file_record = json.loads(out_path.read_text())
        assert file_record == stdout_record


class TestEmulate:
    def test_publishes_into_running_broker(self, capsys, tmp_path):
        data = write_signal(tmp_path, [0.5] * 300)
        with broker_start(BrokerConfig()) as broker:
            host, port = broker.address
            code = main(
                ["emulate", "--data", data, "--host", host, "--port", str(port), "--speedup", "0"]
            )
            assert code == 0
            assert broker.stats["publishes_received"] >= 300
        out = capsys.readouterr().out
        assert "published 300 records" in out

    def test_unacknowledged_records_fail_the_replay(self, capsys, tmp_path):
        # publish returns at once; the final drain in close must report the
        # records the broker never acknowledged
        data = write_signal(tmp_path, [0.5] * 3)
        with broker_start(BrokerConfig(ack_drop_rate=0.9999999)) as broker:
            host, port = broker.address
            code = main(
                ["emulate", "--data", data, "--host", host, "--port", str(port), "--speedup", "0"]
            )
        assert code == 1
        assert "no ack for packet 1" in capsys.readouterr().err

    def test_needs_a_port(self, capsys, tmp_path):
        data = write_signal(tmp_path, [0.5] * 10)
        assert main(["emulate", "--data", data]) == 2
        assert "running broker" in capsys.readouterr().err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["emulate", "--data", str(path), "--port", "1"]) == 2
        assert "no samples" in capsys.readouterr().err

    def test_no_broker_at_port(self, tmp_path):
        data = write_signal(tmp_path, [0.5] * 10)
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["emulate", "--data", data, "--port", str(port)]) == 1


class TestRun:
    def test_monolith_flood_streams_reports(self, capsys, tmp_path):
        data = write_signal(tmp_path, [0.5 + v for v in sine_wave(1.0, 100, 8.0)])
        report_path = tmp_path / "out.jsonl"
        code = main(
            [
                "run",
                "--mode", "monolith",
                "--data", data,
                "--speedup", "0",
                "--threshold", "400",
                "--decimation", "400",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        stdout_lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert stdout_lines, "expected streamed reports"
        assert all(r["mode"] == "monolith" for r in stdout_lines)
        file_lines = [json.loads(line) for line in report_path.read_text().splitlines()]
        assert file_lines == stdout_lines
        assert "mode=monolith" in captured.err
        assert "published=800" in captured.err

    def test_flow_mode_runs_shipped_flow(self, capsys, tmp_path):
        data = write_signal(tmp_path, [0.5 + v for v in sine_wave(1.0, 100, 6.0)])
        code = main(
            ["run", "--mode", "flow", "--data", data, "--speedup", "0", "--threshold", "300"]
        )
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert lines[-1]["mode"] == "flow"
        assert lines[-1]["bpm"] == pytest.approx(60.0, abs=1.0)

    def test_lost_records_exit_one(self, capsys, tmp_path, monkeypatch):
        data = write_signal(tmp_path, [0.5] * 10)

        def undrained_run(mode, cfg, on_report=None):
            counts = {"node_errors": 0, "drained": False}
            return RunResult(mode, [], 10, 0, 0, None, 1.0, counts)

        monkeypatch.setattr(cli, "run_pipeline", undrained_run)
        assert main(["run", "--mode", "flow", "--data", data]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "published=10" in err

    def test_invalid_flow_file_exits_two(self, capsys, tmp_path):
        data = write_signal(tmp_path, [0.5] * 100)
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [{"id": "x", "type": "mystery"}], "wires": []}')
        code = main(
            ["run", "--mode", "flow", "--flow-file", str(bad), "--data", data, "--speedup", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_sample_exits_two(self, capsys, tmp_path):
        values = [0.5 + v for v in sine_wave(1.0, 100, 4.0)]
        values[150] = float("nan")
        data = write_signal(tmp_path, values)
        assert main(["run", "--mode", "monolith", "--data", data, "--speedup", "0"]) == 2
        assert "line 151" in capsys.readouterr().err

    def test_missing_data_exits_two(self, capsys):
        assert main(["run", "--mode", "monolith"]) == 2
        assert "data" in capsys.readouterr().err


class TestCompare:
    def test_equal_verdict_and_exit_zero(self, capsys, tmp_path):
        data = write_signal(tmp_path, [0.5 + v for v in sine_wave(1.0, 100, 8.0)])
        code = main(
            [
                "compare",
                "--data", data,
                "--speedup", "0",
                "--threshold", "400",
                "--decimation", "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("verdict: EQUAL")
        doc = json.loads(out[: out.rindex("}") + 1])
        assert doc["verdict"] == "EQUAL"
        assert set(doc["modes"]) == {"monolith", "flow", "faas"}


class TestBrokerCommand:
    BROKER = [sys.executable, "-X", "faulthandler", "-m", "triplex.cli", "broker", "--port", "0"]

    def test_runs_until_interrupted(self):
        self.interrupt_and_wait(self.BROKER)

    def test_interrupt_stops_it_when_started_with_sigint_ignored(self):
        # as a non-interactive shell starts a background command
        self.interrupt_and_wait(["sh", "-c", 'trap "" INT; exec "$@"', "sh", *self.BROKER])

    @staticmethod
    def interrupt_and_wait(argv):
        # with faulthandler on, SIGABRT makes the child print the stack of
        # every thread to stderr before it dies
        with subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                assert line.startswith("listening on 127.0.0.1:")
                time.sleep(0.2)
                proc.send_signal(signal.SIGINT)
                try:
                    code = proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.send_signal(signal.SIGABRT)
                    _, stderr = proc.communicate(timeout=10)
                    pytest.fail(f"broker still up 10 s after SIGINT; its threads:\n{stderr}")
                assert code == 0, proc.stderr.read()
            finally:
                if proc.poll() is None:
                    proc.kill()


class TestConfigFileIntegration:
    def test_env_config_reaches_behavior(self, capsys, tmp_path, monkeypatch):
        conf = tmp_path / "env.conf"
        conf.write_text("min_bpm = 80\n")
        monkeypatch.setenv("TRIPLEX_CONFIG", str(conf))
        assert main(["analyze", DATA_FILE]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["flags"] == ["bpm_below_min"]

    def test_config_flag(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("max_bpm = 60\n")
        assert main(["analyze", DATA_FILE, "--config", str(conf)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["flags"] == ["bpm_above_max"]

    def test_flag_beats_config_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("max_bpm = 60\n")
        assert main(["analyze", DATA_FILE, "--config", str(conf), "--max-bpm", "200"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["flags"] == []

    def test_bad_config_file_exits_two(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("colour = red\n")
        assert main(["analyze", DATA_FILE, "--config", str(conf)]) == 2
        assert "unknown key" in capsys.readouterr().err
