"""Run configuration: defaults, a key=value file, then CLI flags on top.

The file format is deliberately plain: one `key = value` per line, blank
lines and # comments ignored. Later layers win, so a flag always beats
the file and the file always beats a built-in default. TRIPLEX_CONFIG
names the file when no --config flag is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, get_args, get_type_hints

from .hrv import AnalysisConfig

MODES = ("monolith", "flow", "faas")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 lets the embedded broker pick a free port
    topic: str = "hr/patient1"
    threshold: int = 3000
    decimation: int = 100
    data: Optional[str] = None
    rate: float = 100.0
    speedup: float = 1.0
    report: Optional[str] = None
    flow_file: Optional[str] = None
    min_bpm: float = 40.0
    max_bpm: float = 180.0
    mode: str = "monolith"

    def validate(self) -> "RunConfig":
        if not self.topic:
            raise ConfigError("topic must not be empty")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port out of range: {self.port}")
        if self.threshold < 1:
            raise ConfigError(f"threshold must be at least 1, got {self.threshold}")
        if self.decimation < 1:
            raise ConfigError(f"decimation must be at least 1, got {self.decimation}")
        if not self.rate > 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        if self.speedup < 0:
            raise ConfigError(f"speedup must be zero or positive, got {self.speedup}")
        if not self.min_bpm < self.max_bpm:
            raise ConfigError(
                f"min_bpm must be below max_bpm, got {self.min_bpm} and {self.max_bpm}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        return self

    def analysis(self) -> AnalysisConfig:
        return AnalysisConfig(min_bpm=self.min_bpm, max_bpm=self.max_bpm)


def _parser(hint):
    """A field's annotated type parses its value; Optional[T] parses as T."""
    return next((arg for arg in get_args(hint) if arg is not type(None)), hint)


_PARSERS = {name: _parser(hint) for name, hint in get_type_hints(RunConfig).items()}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """key = value lines to a typed dict; any defect names its line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def parse_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def load_run_config(path=None, overrides: Optional[dict] = None, env=None) -> RunConfig:
    """Layer defaults, then the config file, then explicit overrides."""
    env = os.environ if env is None else env
    if path is None:
        path = env.get("TRIPLEX_CONFIG") or None
    values = parse_config_file(path) if path else {}
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(values) - set(_PARSERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return replace(RunConfig(), **values).validate()
