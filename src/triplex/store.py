"""The capped sensor window: an in-memory FIFO of the newest records.

Documents get a store-assigned, monotonically increasing seq that survives
delete_all; the window holds the highest-seq documents. A run builds one
window and hands that same object to whichever pipeline it starts, and
every pipeline adds records through insert_unique, the one admission rule.
All operations are thread safe, and insert plus eviction is one atomic
step as far as any reader can observe.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any


def _finite_number(value) -> bool:
    """An int or a float that is neither infinite nor NaN; a bool is not one."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class Document:
    seq: int
    body: Any


class CappedCollection:
    """Ordered window of the threshold most recent documents."""

    def __init__(self, threshold: int):
        if threshold < 1:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self._docs = deque(maxlen=threshold)  # eviction built into append
        self._next_seq = 1
        # highest record seq insert_unique has admitted; delete_all and a
        # plain insert leave it alone, so a stale redelivery stays refused
        self._top_record_seq = -math.inf
        self._lock = threading.RLock()

    def insert(self, body) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._docs.append(Document(seq, body))
            return seq

    def insert_unique(self, record) -> bool:
        """Insert a sensor record unless it replays an already-stored seq.

        Only a dict whose seq is an int and whose t_ms and value are finite
        numbers is a record; anything else raises ValueError and stores
        nothing, so every window the analysis reads is one it can convert.
        Records arrive in seq order on one connection, so comparing against
        the highest seq admitted so far catches qos-1 redeliveries, even
        after delete_all. The check and the insert are one step under the
        lock, so concurrent writers cannot both store one seq. Every
        pipeline uses this same rule, which is what keeps them comparable.
        """
        seq = record.get("seq") if isinstance(record, dict) else None
        if not (
            type(seq) is int
            and _finite_number(record.get("t_ms"))
            and _finite_number(record.get("value"))
        ):
            raise ValueError(
                "a sensor record is an object with an integer seq and finite t_ms and value,"
                f" got {record!r:.80}"
            )
        with self._lock:
            if seq <= self._top_record_seq:
                return False
            self._top_record_seq = seq
            self.insert(record)  # the lock is reentrant; insert stays the one write path
            return True

    def get_all(self) -> list:
        with self._lock:
            return list(self._docs)

    def delete_all(self) -> int:
        # the seq counter is deliberately not reset
        with self._lock:
            removed = len(self._docs)
            self._docs.clear()
            return removed

    def count(self) -> int:
        with self._lock:
            return len(self._docs)

    def total_inserted(self) -> int:
        with self._lock:
            return self._next_seq - 1
