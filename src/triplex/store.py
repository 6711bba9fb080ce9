"""Capped in-memory document store with FIFO eviction.

Documents get a store-assigned, monotonically increasing seq that survives
delete_all; the capped window holds the highest-seq documents. All
operations are thread safe, and insert plus eviction is one atomic step as
far as any reader can observe.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable


class StoreError(Exception):
    pass


class NoSuchCollection(StoreError):
    pass


def _now_ms() -> int:
    return int(time.time() * 1000)


@dataclass(frozen=True)
class Document:
    seq: int
    inserted_at_ms: int
    body: Any


class CappedCollection:
    """Ordered window of the threshold most recent documents."""

    def __init__(self, name: str, threshold: int, clock_ms: Callable[[], int] = _now_ms):
        if threshold < 1:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.name = name
        self.threshold = threshold
        self._clock_ms = clock_ms
        self._docs = deque(maxlen=threshold)  # eviction built into append
        self._next_seq = 1
        self._lock = threading.RLock()

    def insert(self, body) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._docs.append(Document(seq, self._clock_ms(), body))
            return seq

    def insert_unique(self, record) -> bool:
        """Insert a sensor record unless it replays an already-stored seq.

        Records arrive in seq order on one connection, so comparing against
        the newest retained record catches qos-1 redeliveries. The check and
        the insert are one step under the lock, so concurrent writers cannot
        both store one seq. Every pipeline uses this same rule, which is
        what keeps them comparable.
        """
        with self._lock:
            if self._docs and record["seq"] <= self._docs[-1].body["seq"]:
                return False
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


class DocStore:
    """Named capped collections."""

    def __init__(self, clock_ms: Callable[[], int] = _now_ms):
        self._clock_ms = clock_ms
        self._collections: dict[str, CappedCollection] = {}
        self._lock = threading.Lock()

    def create_collection(self, name: str, threshold: int) -> CappedCollection:
        with self._lock:
            if name in self._collections:
                raise StoreError(f"collection {name!r} already exists")
            coll = CappedCollection(name, threshold, self._clock_ms)
            self._collections[name] = coll
            return coll

    def collection(self, name: str) -> CappedCollection:
        with self._lock:
            try:
                return self._collections[name]
            except KeyError:
                raise NoSuchCollection(name) from None

    def insert(self, name: str, body) -> int:
        return self.collection(name).insert(body)

    def get_all(self, name: str) -> list:
        return self.collection(name).get_all()

    def delete_all(self, name: str) -> int:
        return self.collection(name).delete_all()

    def count(self, name: str) -> int:
        return self.collection(name).count()
