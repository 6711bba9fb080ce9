"""Embedded MQTT broker for the qos 0/1, clean-session subset, on one thread.

One thread, mqtt-broker, owns the non-blocking listener, every connection,
every session and the stats, and waits in one selectors call. Each turn
reads every readable connection once and handles every complete packet it
got, queueing replies and routed publishes on each target's outbox; then
each outbox it touched gets one send, in first-write order. So a pipelined
burst costs one system call per peer, and a lone packet goes out at once.

Backpressure needs no threshold. Bytes a peer does not take stay in its
outbox, and the loop waits for that socket to become writable. Until the
outbox is empty the loop reads no connection whose publishes are among
them: a slow subscriber holds its publishers back rather than losing
messages, and its outbox holds about one read per publisher.

Each turn checks three deadlines on an injectable clock, so they are
testable without sleeping, and the loop waits until the nearest: a session
the loop reads that has been silent for 1.5 keep-alive periods expires
(time spent held back is not silence); a connection that sends no CONNECT
within 10 s is closed; a peer that takes none of its pending bytes for
10 s is dropped. stop() wakes the loop through a socketpair.
"""

from __future__ import annotations

import math
import random
import selectors
import socket
import threading
import time
from dataclasses import dataclass

from .packets import (
    ConnAck,
    Connect,
    Disconnect,
    NeedMoreBytes,
    PingReq,
    PingResp,
    ProtocolError,
    PubAck,
    Publish,
    StartupError,
    SubAck,
    Subscribe,
    _RECV_BYTES,
    decode_packet,
    encode_packet,
)
from .topics import topic_matches

# MQTT 3.1.1 section 3.1.2.10: a server drops a client it has not heard
# from within one and a half keep-alive periods.
_KEEP_ALIVE_GRACE = 1.5
# a connection that sends no CONNECT, or a peer that takes none of its
# pending bytes, for this long is closed
_DEADLINE_S = 10.0


@dataclass
class BrokerConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 picks an ephemeral port
    max_sessions: int = 64
    # fault injection: probability of not sending a PubAck back to a
    # publisher; the publisher's retransmission path is exercised by tests
    ack_drop_rate: float = 0.0
    ack_drop_seed: int = 0
    clock: callable = time.monotonic

    def __post_init__(self):
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if not 0.0 <= self.ack_drop_rate < 1.0:
            raise ValueError("ack_drop_rate must be in [0, 1)")


class _Session:
    """One connection; a session once its CONNECT is accepted."""

    def __init__(self, conn, now):
        self.conn = conn
        self.client_id = None  # set by CONNECT
        # longest silence allowed while the loop reads, CONNECT's deadline
        # until it arrives; 0 never expires
        self.silence_s = _DEADLINE_S
        self.last_activity = now
        self.subscriptions = []  # (filter, granted qos)
        self.inbuf = bytearray()  # read, not yet a complete packet
        self.outbox = bytearray()  # queued, not yet taken by the peer
        self.stalled_since = None  # while bytes wait: when the peer last took some
        self.senders = set()  # sessions whose publishes are in the outbox
        self.held_by = set()  # sessions whose waiting bytes hold this one's publishes
        self.events = 0  # what the selector watches conn for
        self.next_pid = 1
        self.closed = False


class Broker:
    def __init__(self, cfg: BrokerConfig):
        self.cfg = cfg
        self._rng = random.Random(cfg.ack_drop_seed)
        self._sessions: dict[str, _Session] = {}  # by client id
        self._conns: set[_Session] = set()  # every open connection
        self._stopping = False
        self.stats = {
            "sessions_opened": 0,
            "sessions_expired": 0,
            "publishes_received": 0,
            "dup_publishes_received": 0,
            "acks_dropped": 0,
            "messages_delivered": 0,
        }
        try:
            self._listener = socket.create_server((cfg.host, cfg.port))
        except OSError as exc:
            raise StartupError(f"cannot bind {cfg.host}:{cfg.port}: {exc}")
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        # stop() writes one byte to _waker, so the loop's wait ends at once
        self._wake_end, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_end, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._run, name="mqtt-broker", daemon=True)
        self._thread.start()

    # -- the loop ----------------------------------------------------------

    def _run(self):
        try:
            while True:
                ready = self._selector.select(self._expire())
                if self._stopping:
                    return
                touched = {}  # outboxes written this turn, in first-write order
                for key, events in ready:
                    session = key.data
                    if session is None:
                        # the listener; the waker is readable only once stopping
                        self._accept()
                        continue
                    if events & selectors.EVENT_WRITE:
                        touched[session] = None
                    if events & selectors.EVENT_READ and not session.closed:
                        self._read(session, touched)
                self._flush(touched)
        finally:
            for session in list(self._conns):
                self._drop(session)
            self._selector.close()
            self._listener.close()
            self._wake_end.close()

    def _expire(self):
        """Close each connection past a deadline; seconds to the nearest other, or None."""
        now = self.cfg.clock()
        nearest = math.inf
        for session in list(self._conns):
            silent_due = stall_due = math.inf
            # a held session is not read, so its silence does not count
            if session.silence_s and not session.held_by:
                silent_due = session.last_activity + session.silence_s
            if session.stalled_since is not None:
                stall_due = session.stalled_since + _DEADLINE_S
            if now > silent_due and session.client_id is not None:
                self.stats["sessions_expired"] += 1
            if now > min(silent_due, stall_due):
                self._drop(session)
            else:
                nearest = min(nearest, silent_due, stall_due)
        return None if nearest == math.inf else max(0.0, nearest - now)

    def _accept(self):
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # BlockingIOError once no connection waits
                return
            conn.setblocking(False)
            # PUBACKs and forwarded publishes go out back to back; Nagle's
            # algorithm would hold each behind the client's delayed ack (40 ms)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _Session(conn, self.cfg.clock())
            self._conns.add(session)
            self._watch(session)

    def _watch(self, session):
        """Watch conn for reads unless its session is held, and for writes while bytes wait."""
        if session.closed:
            return
        events = 0 if session.held_by else selectors.EVENT_READ
        if session.outbox:
            events |= selectors.EVENT_WRITE
        if events == session.events:
            return
        if not session.events:
            self._selector.register(session.conn, events, session)
        elif not events:
            self._selector.unregister(session.conn)
        else:
            self._selector.modify(session.conn, events, session)
        session.events = events

    def _read(self, session, touched):
        """One recv, then handle every complete packet in the session's buffer.

        EOF, a read error or a malformed packet closes the connection once
        the packets before it are handled.
        """
        buf = session.inbuf
        try:
            chunk = session.conn.recv(_RECV_BYTES)
            buf += chunk
            while not session.closed and (out := decode_packet(buf)) is not NeedMoreBytes:
                packet, used = out
                # amortised O(1) from the front of a bytearray
                del buf[:used]
                session.last_activity = self.cfg.clock()
                self._handle(session, packet, touched)
        except BlockingIOError:
            return
        except (ProtocolError, OSError):
            chunk = b""
        if not chunk:
            self._drop(session)

    # -- packet handling ------------------------------------------------

    def _handle(self, session, packet, touched):
        if session.client_id is None:
            if not isinstance(packet, Connect):
                raise ProtocolError(f"expected CONNECT, got {type(packet).__name__}")
            self._connect(session, packet, touched)
        elif isinstance(packet, Publish):
            self._on_publish(session, packet, touched)
        elif isinstance(packet, Subscribe):
            self._on_subscribe(session, packet, touched)
        elif isinstance(packet, PingReq):
            self._send(session, PingResp(), touched)
        elif isinstance(packet, PubAck):
            pass  # no broker-side retransmission state to clear
        elif isinstance(packet, Disconnect):
            self._drop(session)
        else:
            raise ProtocolError(f"unexpected {type(packet).__name__} from client")

    def _connect(self, session, packet, touched):
        # a reconnect under the same client id takes the session over
        old = self._sessions.get(packet.client_id)
        if old is None and len(self._sessions) >= self.cfg.max_sessions:
            session.conn.send(encode_packet(ConnAck(False, 3)))
            self._drop(session)
            return
        if old is not None:
            self._drop(old)
        session.client_id = packet.client_id
        session.silence_s = packet.keep_alive_s * _KEEP_ALIVE_GRACE
        self._sessions[packet.client_id] = session
        self.stats["sessions_opened"] += 1
        self._send(session, ConnAck(session_present=False, return_code=0), touched)

    def _on_publish(self, session, packet, touched):
        self.stats["publishes_received"] += 1
        if packet.dup:
            self.stats["dup_publishes_received"] += 1
        if packet.qos == 1:
            if self.cfg.ack_drop_rate > 0 and self._rng.random() < self.cfg.ack_drop_rate:
                self.stats["acks_dropped"] += 1
            else:
                self._send(session, PubAck(packet.packet_id), touched)
        self._route(session, packet, touched)

    def _on_subscribe(self, session, packet, touched):
        session.subscriptions.extend(packet.filters)
        granted = tuple(qos for _topic_filter, qos in packet.filters)
        self._send(session, SubAck(packet_id=packet.packet_id, return_codes=granted), touched)

    def _route(self, publisher, packet, touched):
        delivered = 0
        for session in self._sessions.values():
            matched = [
                qos
                for topic_filter, qos in session.subscriptions
                if topic_matches(topic_filter, packet.topic)
            ]
            if not matched:
                continue
            # one copy per session even when several filters match
            out_qos = min(packet.qos, max(matched))
            pid = None
            if out_qos == 1:
                pid = session.next_pid
                session.next_pid = pid % 0xFFFF + 1
            session.outbox += encode_packet(
                Publish(
                    topic=packet.topic,
                    payload=packet.payload,
                    qos=out_qos,
                    packet_id=pid,
                    # carried through so downstream duplicate handling is observable
                    dup=packet.dup and out_qos == 1,
                    retain=False,
                )
            )
            session.senders.add(publisher)
            touched[session] = None
            delivered += 1
        self.stats["messages_delivered"] += delivered

    def _send(self, session, packet, touched):
        """Queue packet on session's outbox; _flush sends it."""
        session.outbox += encode_packet(packet)
        touched[session] = None

    def _flush(self, touched):
        """One send per touched outbox, in first-write order.

        What the peer does not take stays queued, and holds back every
        publisher whose messages are among it until the outbox is empty.
        A peer whose send fails is dropped.
        """
        for session in touched:
            if session.closed:
                continue
            try:
                sent = session.conn.send(session.outbox)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._drop(session)
                continue
            del session.outbox[:sent]
            if not session.outbox:
                session.stalled_since = None
                self._release(session)
            else:
                if sent or session.stalled_since is None:
                    session.stalled_since = self.cfg.clock()
                for publisher in session.senders:
                    publisher.held_by.add(session)
                    self._watch(publisher)
            self._watch(session)

    def _release(self, session):
        """Read again each publisher that only session's waiting bytes held back."""
        for publisher in session.senders:
            if session in publisher.held_by:
                publisher.held_by.discard(session)
                if not publisher.held_by:
                    # time spent held back is not silence
                    publisher.last_activity = self.cfg.clock()
                    self._watch(publisher)
        session.senders.clear()

    # -- shutdown --------------------------------------------------------

    def _drop(self, session):
        if session.closed:
            return
        session.closed = True
        self._conns.discard(session)
        if self._sessions.get(session.client_id) is session:
            del self._sessions[session.client_id]
        self._release(session)
        if session.events:
            self._selector.unregister(session.conn)
        session.conn.close()

    def session_count(self) -> int:
        return len(self._sessions)

    def stop(self):
        """Close the listener and every session; clients observe the loss."""
        self._stopping = True
        try:
            self._waker.send(b"\0")
        except OSError:
            pass  # the loop has already ended, or this is a second stop
        self._thread.join(timeout=2.0)
        self._waker.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def broker_start(cfg: BrokerConfig = None) -> Broker:
    """Bind and start serving; StartupError if the port is taken."""
    return Broker(cfg or BrokerConfig())
