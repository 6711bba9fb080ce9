"""The one path from a broker subscription to a pipeline's records.

Every pipeline takes its sensor records the same way: connect, subscribe
at qos 1, and pump decoded JSON into a callback on one thread, so records
arrive in broker order. The pipelines differ only in what that callback
does with a record.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Any, Callable

from .mqtt import MqttError, SessionClosed, client_connect

CONNECT_ATTEMPTS = 4
FIRST_BACKOFF_S = 0.1  # doubles after each failed attempt


class BrokerUnreachable(MqttError):
    """Every connect attempt failed."""


def _connect(address, client_id: str):
    delay = FIRST_BACKOFF_S
    for attempt in range(CONNECT_ATTEMPTS):
        try:
            return client_connect(address, client_id=client_id, keep_alive_s=30)
        except (OSError, MqttError) as exc:
            if attempt == CONNECT_ATTEMPTS - 1:
                raise BrokerUnreachable(
                    f"broker at {address} unreachable after {CONNECT_ATTEMPTS} attempts"
                ) from exc
            time.sleep(delay)
            delay *= 2


class MqttSource:
    """A live qos-1 subscription that hands each message to one callback.

    on_record gets each decoded JSON record; a payload that does not decode
    goes to on_error(payload, exc) instead. delivered counts messages whose
    callback has returned, so a caller that sees delivered >= n knows the
    first n messages are fully handled. The pump ends when the session
    closes, whether stop() closed it or the broker went away.
    """

    def __init__(
        self,
        address,
        topic: str,
        on_record: Callable[[Any], None],
        on_error: Callable[[bytes, Exception], None],
        name: str,
    ):
        self.delivered = 0
        self.decode_errors = 0
        self._on_record = on_record
        self._on_error = on_error
        self.session = _connect(address, f"{name}-{uuid.uuid4().hex[:8]}")
        try:
            self.session.subscribe(topic, qos=1)
        except MqttError:
            self.session.close()
            raise
        self.thread = threading.Thread(target=self._pump, name=name, daemon=True)
        self.thread.start()

    def _pump(self):
        while True:
            try:
                messages = self.session.poll(timeout_s=0.1)
            except SessionClosed:
                return
            for msg in messages:
                try:
                    record = json.loads(msg.payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    self._on_error(msg.payload, exc)
                    self.decode_errors += 1
                else:
                    self._on_record(record)
                self.delivered += 1

    def stop(self):
        # closing the session wakes the pump out of its poll at once
        self.session.close()
        self.thread.join(timeout=5.0)
