"""Passive MQTT client: windowed qos-1 publish with retransmission, polled inbox.

A session starts no thread. Its socket is read only inside publish, flush,
subscribe and poll, on the thread that calls them. One read step handles
every complete packet in what one recv returned before it writes: the
PUBACKs for a burst of inbound qos-1 publishes go out in one sendall, and
the publishes join the inbox. After the packets it resends overdue
publishes and sends the keep-alive ping. A session therefore services its
connection only while its owner is inside one of its calls, and the
broker drops one left idle for more than 1.5 keep-alive periods.
"""

from __future__ import annotations

import math
import select
import socket
import threading
import time
from collections import deque

from .packets import (
    ConnAck,
    Connect,
    DeliveryError,
    Disconnect,
    EncodeError,
    MqttError,
    NeedMoreBytes,
    PingReq,
    PingResp,
    ProtocolError,
    PubAck,
    Publish,
    SessionClosed,
    SubAck,
    Subscribe,
    _RECV_BYTES,
    decode_packet,
    encode_packet,
)

# qos-1 messages that may wait for their PUBACK at once (MQTT 5 calls
# this the receive maximum)
_MAX_IN_FLIGHT = 64
# bounds the connect, the handshake and every write
_SOCKET_TIMEOUT_S = 10.0


class _InFlight:
    """One qos-1 publish waiting for its PUBACK."""

    __slots__ = ("topic", "payload", "deadline", "sends")

    def __init__(self, topic, payload, deadline):
        self.topic = topic
        self.payload = payload
        self.deadline = deadline
        self.sends = 1


class ClientSession:
    """One clean-session connection to a broker.

    The socket is read by whichever thread is inside publish, flush,
    subscribe or poll, one at a time; a backlog waits in the kernel's
    socket buffers until the owner polls. close() may be called from any
    thread: it wakes a poll blocked on the socket at once.

    Qos-1 publishes are pipelined: up to _MAX_IN_FLIGHT of them may wait
    for their PUBACK at once. A publish whose ack is ack_timeout_s late is
    resent with the dup flag, and the keep-alive pings go out, during the
    owner's next call that reads.
    """

    def __init__(
        self,
        address,
        client_id: str,
        keep_alive_s: int = 0,
        ack_timeout_s: float = 2.0,
        ack_attempts: int = 3,
    ):
        if not ack_timeout_s > 0:
            raise ValueError("ack_timeout_s must be positive")
        self.client_id = client_id
        self.keep_alive_s = keep_alive_s
        self.ack_timeout_s = ack_timeout_s
        self.ack_attempts = ack_attempts
        self._write_lock = threading.Lock()
        self._io_lock = threading.Lock()  # one thread reads and keeps the state
        # insertion order is deadline order: every deadline is now plus the
        # same timeout, and a resent entry moves to the end
        self._inflight: dict[int, _InFlight] = {}
        self._undelivered: list = []  # pids given up on and not yet reported
        self._suback_pid = None  # the SUBACK a running subscribe waits for
        self._suback = None
        self._next_pid = 1
        self._inbox = deque()
        self._buf = bytearray()
        self._closed = False
        self._close_reason = "session closed"
        self._ping_interval = max(keep_alive_s * 0.5, 0.1)
        self._next_ping = time.monotonic() + self._ping_interval if keep_alive_s > 0 else math.inf

        self._sock = socket.create_connection(address, timeout=_SOCKET_TIMEOUT_S)
        try:
            # pipelined publishes and acks are small packets sent back to back;
            # Nagle's algorithm would hold each behind the broker's delayed ack
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._handshake()
        except BaseException:
            self._sock.close()
            raise
        self._poller = select.poll()
        self._poller.register(self._sock, select.POLLIN)

    def _handshake(self):
        self._sock.sendall(encode_packet(Connect(self.client_id, self.keep_alive_s)))
        while (out := decode_packet(self._buf)) is NeedMoreBytes:
            chunk = self._sock.recv(_RECV_BYTES)
            if not chunk:
                raise SessionClosed("broker closed the connection during connect")
            self._buf += chunk
        packet, used = out
        if not isinstance(packet, ConnAck):
            raise ProtocolError(f"expected CONNACK, got {type(packet).__name__}")
        if packet.return_code != 0:
            raise MqttError(f"connection refused, return code {packet.return_code}")
        del self._buf[:used]

    # -- the read step (call with _io_lock held) ------------------------

    def _read(self, timeout_s: float):
        """One recv of at most timeout_s, then handle every complete packet.

        On EOF or a read error the packets already buffered are handled,
        then the session shuts down; so does a protocol error or a failed
        write.
        """
        if self._closed:
            return
        chunk = None
        if self._poller.poll(None if timeout_s == math.inf else timeout_s * 1000.0):
            try:
                chunk = self._sock.recv(_RECV_BYTES)
            except OSError:
                chunk = b""
            self._buf += chunk
        try:
            self._handle_packets()
            if chunk == b"":
                raise SessionClosed("connection lost")
            self._housekeep()
        except ProtocolError as exc:
            self._shutdown(f"protocol error: {exc}")
        except SessionClosed:
            self._shutdown("connection lost")

    def _handle_packets(self):
        """Handle every complete packet in the buffer, then ack its publishes.

        The acks go out in one sendall. Publishes decoded before a malformed
        packet are still acked and queued.
        """
        acks = []
        try:
            while (out := decode_packet(self._buf)) is not NeedMoreBytes:
                packet, used = out
                # amortised O(1) from the front of a bytearray
                del self._buf[:used]
                if isinstance(packet, Publish):
                    if packet.qos == 1:
                        acks.append(encode_packet(PubAck(packet.packet_id)))
                    self._inbox.append(packet)
                elif isinstance(packet, PubAck):
                    # a late ack for a retransmitted publish finds nothing
                    self._inflight.pop(packet.packet_id, None)
                elif isinstance(packet, SubAck):
                    # a late SUBACK, for a subscribe that gave up, is dropped
                    if packet.packet_id == self._suback_pid:
                        self._suback = packet
                elif not isinstance(packet, PingResp):
                    raise ProtocolError(f"unexpected {type(packet).__name__} from broker")
        finally:
            if acks:
                self._write(b"".join(acks))

    def _housekeep(self):
        """Resend every publish whose ack is overdue, and ping when one is due."""
        now = time.monotonic()
        while self._inflight:
            pid, entry = next(iter(self._inflight.items()))
            if entry.deadline > now:
                break
            del self._inflight[pid]
            if entry.sends >= self.ack_attempts:
                self._undelivered.append(pid)
                continue
            entry.sends += 1
            entry.deadline = now + self.ack_timeout_s
            self._inflight[pid] = entry
            self._send(Publish(entry.topic, entry.payload, qos=1, packet_id=pid, dup=True))
        if now >= self._next_ping:
            self._send(PingReq())
            self._next_ping = now + self._ping_interval

    def _due(self) -> float:
        """Monotonic time of the next resend or ping; inf if none is pending."""
        if self._inflight:
            return min(self._next_ping, next(iter(self._inflight.values())).deadline)
        return self._next_ping

    def _read_until(self, done, end: float = math.inf):
        """Read until done() holds, the session closes or the clock passes end.

        Reads once even when end has already passed, unless done() holds.
        """
        while not done() and not self._closed:
            self._read(max(0.0, min(end, self._due()) - time.monotonic()))
            if time.monotonic() >= end:
                return

    def _check_delivered(self):
        """Raise DeliveryError once for messages given up on."""
        if self._undelivered:
            pids, self._undelivered = self._undelivered, []
            raise DeliveryError(
                f"no ack for packet {', '.join(map(str, pids[:5]))}"
                + (f" and {len(pids) - 5} more" if len(pids) > 5 else "")
                + f" after {self.ack_attempts} attempts"
            )

    # -- outbound side ------------------------------------------------

    def _send(self, packet):
        self._write(encode_packet(packet))

    def _write(self, wire):
        with self._write_lock:
            if self._closed:
                raise SessionClosed(self._close_reason)
            try:
                self._sock.sendall(wire)
            except OSError:
                raise SessionClosed("connection lost")

    def _free_pid(self) -> int:
        """Next packet id not awaiting an ack."""
        for _ in range(0xFFFF):
            pid = self._next_pid
            self._next_pid = pid % 0xFFFF + 1
            if pid not in self._inflight:
                return pid
        raise MqttError("no free packet ids")

    def publish(self, topic: str, payload: bytes, qos: int = 1):
        """Send one message; qos 1 returns without waiting for the ack.

        A qos-1 message stays in flight until the broker acknowledges it.
        Each time its ack is ack_timeout_s late it is resent with the dup
        flag, up to ack_attempts sends in total. Reads the socket only while
        _MAX_IN_FLIGHT messages are in flight or a resend or ping is due.
        Raises DeliveryError if an earlier message ran out of attempts and
        no call has reported it yet.
        """
        with self._io_lock:
            if self._closed:
                raise SessionClosed(self._close_reason)
            if time.monotonic() >= self._due():
                # acks already waiting count before anything is resent
                self._read(0.0)
            if qos == 0:
                self._send(Publish(topic=topic, payload=payload, qos=0))
                return
            self._read_until(lambda: len(self._inflight) < _MAX_IN_FLIGHT or self._undelivered)
            self._check_delivered()
            if self._closed:
                raise SessionClosed(self._close_reason)
            pid = self._free_pid()
            self._inflight[pid] = _InFlight(topic, payload, time.monotonic() + self.ack_timeout_s)
            try:
                self._send(Publish(topic=topic, payload=payload, qos=1, packet_id=pid))
            except EncodeError:
                del self._inflight[pid]
                raise

    def flush(self):
        """Block until every qos-1 message in flight is acknowledged.

        Raises DeliveryError as soon as a message runs out of attempts,
        unless publish already reported it, and SessionClosed if the
        connection is lost with messages still in flight.
        """
        if not self._inflight and not self._undelivered:
            return  # without waiting for a poll on another thread
        with self._io_lock:
            self._read_until(lambda: not self._inflight or self._undelivered)
            self._check_delivered()
            if self._inflight:
                raise SessionClosed(
                    f"{self._close_reason} with {len(self._inflight)} messages in flight"
                )

    def subscribe(self, topic_filter: str, qos: int = 1) -> int:
        """Register a subscription; returns the granted qos."""
        with self._io_lock:
            if self._closed:
                raise SessionClosed(self._close_reason)
            pid = self._suback_pid = self._free_pid()
            self._suback = None
            self._send(Subscribe(packet_id=pid, filters=((topic_filter, qos),)))
            self._read_until(lambda: self._suback, time.monotonic() + self.ack_timeout_s)
            suback, self._suback_pid = self._suback, None
        if suback is None:
            if self._closed:
                raise SessionClosed(self._close_reason)
            raise DeliveryError(f"no suback for packet {pid}")
        granted = suback.return_codes[0]
        if granted == 0x80:
            raise MqttError(f"subscription to {topic_filter!r} refused")
        return granted

    def poll(self, timeout_s: float = 0.0) -> list:
        """Drain inbound publishes in arrival order.

        With an empty inbox, reads until at least one message arrives, the
        session closes or the timeout elapses; poll(0) reads once without
        blocking. Returns whatever is queued (possibly nothing). Messages
        that arrived before the session closed are still returned; once the
        session is closed and nothing is queued, raises SessionClosed.
        """
        with self._io_lock:
            self._read_until(lambda: self._inbox, time.monotonic() + timeout_s)
            if not self._inbox and self._closed:
                raise SessionClosed(self._close_reason)
            out = list(self._inbox)
            self._inbox.clear()
        return out

    # -- lifecycle ----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _shutdown(self, reason: str):
        if self._closed:
            return
        self._close_reason = reason
        self._closed = True
        # shutdown() wakes a poll blocked on the socket in another thread;
        # close() alone would leave it waiting for its read timeout
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self):
        """Flush, send DISCONNECT and tear the session down.

        Raises what flush() raises, after the teardown: a session lost with
        messages in flight raises SessionClosed.
        """
        try:
            self.flush()
        finally:
            self._disconnect()

    def _disconnect(self):
        if not self._closed:
            try:
                self._send(Disconnect())
            except SessionClosed:
                pass
        self._shutdown("session closed")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        # a block that is already failing does not wait for the window
        if exc_type is None:
            self.close()
        else:
            self._disconnect()


def client_connect(address, client_id: str, keep_alive_s: int = 0, **kwargs) -> ClientSession:
    """Open a clean session to the broker at address (host, port)."""
    return ClientSession(address, client_id, keep_alive_s, **kwargs)
