"""Embedded threaded MQTT broker for the qos 0/1, clean-session subset.

One handler thread per connection; routing happens synchronously in the
publisher's thread. Every write to a connection is appended to that
session's outbox under its write lock, which preserves per connection
delivery order. A handler handles every complete packet it has read before
it writes anything: at the end of each read burst it gives every session it
wrote to one sendall, in the order it first wrote to them, so a pipelined
burst costs one syscall per peer rather than one per packet, and a lone
packet still goes out as soon as it has been handled. Each handler also
expires its own session once the client has been silent too long, checked
before every read; time comes from an injectable clock so expiry is
testable without sleeping.
"""

from __future__ import annotations

import random
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
    __slots__ = (
        "conn",
        "client_id",
        "keep_alive_s",
        "subscriptions",
        "write_lock",
        "outbox",
        "last_activity",
        "next_pid",
        "closed",
    )

    def __init__(self, conn, client_id, keep_alive_s, now):
        self.conn = conn
        self.client_id = client_id
        self.keep_alive_s = keep_alive_s
        self.subscriptions = []  # (filter, granted qos)
        self.write_lock = threading.Lock()
        self.outbox = bytearray()  # written, not yet sent; guarded by write_lock
        self.last_activity = now
        self.next_pid = 1
        self.closed = False


class Broker:
    def __init__(self, cfg: BrokerConfig):
        self.cfg = cfg
        self._rng = random.Random(cfg.ack_drop_seed)
        self._rng_lock = threading.Lock()
        self._registry_lock = threading.RLock()
        self._sessions: dict[str, _Session] = {}
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._stats_lock = threading.Lock()
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
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="mqtt-broker-accept", daemon=True
        )
        self._accept_thread.start()

    def _bump(self, key, n=1):
        with self._stats_lock:
            self.stats[key] += n

    # -- connection lifecycle ------------------------------------------

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            # keep only live handlers, so the list stays as long as the
            # number of open connections
            self._threads = [h for h in self._threads if h.is_alive()]
            self._threads.append(t)

    def _serve(self, conn):
        conn.settimeout(0.2)
        # PUBACKs and forwarded publishes go out back to back; Nagle's
        # algorithm would hold each behind the client's delayed ack (40 ms)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session = None
        try:
            session, buf = self._handshake(conn)
            if session is None:
                return
            self._run_session(session, buf)
        except (ProtocolError, OSError):
            pass
        finally:
            if session is not None:
                self._unregister(session)
            try:
                conn.close()
            except OSError:
                pass

    def _recv_packet(self, conn, buf, deadline_s=10.0):
        """Read one complete packet off the front of buf (a bytearray).

        Returns the packet, or None on EOF, stop or deadline; what follows
        the packet stays in buf.
        """
        deadline = time.monotonic() + deadline_s
        while True:
            out = decode_packet(buf)
            if out is not NeedMoreBytes:
                packet, used = out
                del buf[:used]
                return packet
            if self._stopping.is_set() or time.monotonic() > deadline:
                return None
            try:
                chunk = conn.recv(_RECV_BYTES)
            except socket.timeout:
                continue
            if not chunk:
                return None
            buf += chunk

    def _handshake(self, conn):
        buf = bytearray()
        packet = self._recv_packet(conn, buf)
        if not isinstance(packet, Connect):
            return None, b""
        with self._registry_lock:
            # a reconnect under the same client id takes the session over
            old = self._sessions.pop(packet.client_id, None)
            if old is None and len(self._sessions) >= self.cfg.max_sessions:
                conn.sendall(encode_packet(ConnAck(False, 3)))
                return None, b""
            session = _Session(conn, packet.client_id, packet.keep_alive_s, self.cfg.clock())
            self._sessions[packet.client_id] = session
        if old is not None:
            self._drop(old)
        conn.sendall(encode_packet(ConnAck(session_present=False, return_code=0)))
        self._bump("sessions_opened")
        return session, buf

    def _run_session(self, session, buf):
        conn = session.conn
        # a client silent for longer than this is dropped; 0 never expires
        silence_s = session.keep_alive_s * _KEEP_ALIVE_GRACE
        # sessions written to since the last flush, in first-write order
        touched = {}
        try:
            while not self._stopping.is_set() and not session.closed:
                out = decode_packet(buf)
                if out is NeedMoreBytes:
                    # no complete packet left: send the burst's writes
                    self._flush(touched)
                    # checked before every read, so a client that trickles
                    # partial packets expires too
                    if silence_s and self.cfg.clock() - session.last_activity > silence_s:
                        self._bump("sessions_expired")
                        self._drop(session)
                        return
                    try:
                        chunk = conn.recv(_RECV_BYTES)
                    except socket.timeout:
                        continue
                    if not chunk:
                        return
                    buf += chunk
                    continue
                packet, used = out
                # amortised O(1) from the front of a bytearray
                del buf[:used]
                session.last_activity = self.cfg.clock()
                if isinstance(packet, Publish):
                    self._on_publish(session, packet, touched)
                elif isinstance(packet, Subscribe):
                    self._on_subscribe(session, packet, touched)
                elif isinstance(packet, PingReq):
                    self._send(session, PingResp(), touched)
                elif isinstance(packet, PubAck):
                    pass  # no broker-side retransmission state to clear
                elif isinstance(packet, Disconnect):
                    return
                else:
                    raise ProtocolError(f"unexpected {type(packet).__name__} from client")
        finally:
            # what was routed before a disconnect or an error still goes out
            self._flush(touched)

    # -- packet handling ------------------------------------------------

    def _on_publish(self, session, packet, touched):
        self._bump("publishes_received")
        if packet.dup:
            self._bump("dup_publishes_received")
        if packet.qos == 1:
            drop = False
            if self.cfg.ack_drop_rate > 0:
                with self._rng_lock:
                    drop = self._rng.random() < self.cfg.ack_drop_rate
            if drop:
                self._bump("acks_dropped")
            else:
                self._send(session, PubAck(packet.packet_id), touched)
        self._route(packet, touched)

    def _on_subscribe(self, session, packet, touched):
        granted = []
        with self._registry_lock:
            for topic_filter, qos in packet.filters:
                session.subscriptions.append((topic_filter, qos))
                granted.append(qos)
        self._send(
            session, SubAck(packet_id=packet.packet_id, return_codes=tuple(granted)), touched
        )

    def _route(self, packet, touched):
        with self._registry_lock:
            targets = []
            for session in self._sessions.values():
                matched = [
                    qos
                    for topic_filter, qos in session.subscriptions
                    if topic_matches(topic_filter, packet.topic)
                ]
                if matched:
                    # one copy per session even when several filters match
                    targets.append((session, min(packet.qos, max(matched))))
        for session, out_qos in targets:
            with session.write_lock:
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
            touched[session] = None
        if targets:
            self._bump("messages_delivered", len(targets))

    def _send(self, session, packet, touched):
        """Queue packet on session's outbox; _flush sends it."""
        wire = encode_packet(packet)
        with session.write_lock:
            session.outbox += wire
        touched[session] = None

    def _flush(self, touched):
        """One sendall per touched session, in first-write order.

        Another handler may have flushed a session's outbox already, which
        leaves it empty here. A session whose write fails is dropped.
        """
        for session in touched:
            failed = False
            with session.write_lock:
                if session.outbox and not session.closed:
                    try:
                        session.conn.sendall(session.outbox)
                    except OSError:
                        failed = True
                session.outbox.clear()
            if failed:
                self._drop(session)
        touched.clear()

    # -- shutdown --------------------------------------------------------

    def _drop(self, session):
        session.closed = True
        try:
            session.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            session.conn.close()
        except OSError:
            pass

    def _unregister(self, session):
        session.closed = True
        with self._registry_lock:
            if self._sessions.get(session.client_id) is session:
                del self._sessions[session.client_id]

    def session_count(self) -> int:
        with self._registry_lock:
            return len(self._sessions)

    def stop(self):
        """Close the listener and every session; clients observe the loss."""
        self._stopping.set()
        # close() alone leaves accept() blocked until its 0.2 s timeout;
        # shutdown() wakes it at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._registry_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            self._drop(session)
        self._accept_thread.join(timeout=2.0)
        for t in self._threads:
            t.join(timeout=2.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def broker_start(cfg: BrokerConfig = None) -> Broker:
    """Bind and start serving; StartupError if the port is taken."""
    return Broker(cfg or BrokerConfig())
