"""Threaded MQTT client: windowed qos-1 publish with retransmission, polled inbox.

The reader thread handles every complete packet in what one read returned
before it writes: the PUBACKs for a burst of inbound qos-1 publishes go out
in one sendall, and the publishes reach the inbox with one wake-up.
"""

from __future__ import annotations

import math
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


class _Waiter:
    """One subscribe request waiting for its SUBACK."""

    __slots__ = ("event", "packet", "closed")

    def __init__(self):
        self.event = threading.Event()
        self.packet = None
        self.closed = False


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

    The reader thread owns the socket's receive side; poll() drains the
    inbound queue it fills. Sends are serialized by a lock, so the session
    may be driven from several threads even though one at a time is typical.

    Qos-1 publishes are pipelined: up to _MAX_IN_FLIGHT of them may wait
    for their PUBACK at once. A housekeeping thread resends each one with
    the dup flag when its ack is ack_timeout_s late, and sends the
    keep-alive pings.
    """

    def __init__(
        self,
        address,
        client_id: str,
        keep_alive_s: int = 0,
        ack_timeout_s: float = 2.0,
        ack_attempts: int = 3,
        connect_timeout_s: float = 10.0,
        auto_ping: bool = True,
    ):
        self.client_id = client_id
        self.keep_alive_s = keep_alive_s
        self.ack_timeout_s = ack_timeout_s
        self.ack_attempts = ack_attempts
        self._sock = socket.create_connection(address, timeout=connect_timeout_s)
        # pipelined publishes and acks are small packets sent back to back;
        # Nagle's algorithm would hold each behind the broker's delayed ack
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._write_lock = threading.Lock()
        self._state_lock = threading.Lock()
        # notified when a publish is acked or given up, and on shutdown
        self._acked = threading.Condition(self._state_lock)
        self._pending: dict[int, _Waiter] = {}
        # insertion order is deadline order: every deadline is now plus the
        # same timeout, and a resent entry moves to the end
        self._inflight: dict[int, _InFlight] = {}
        self._undelivered: list = []  # pids given up on and not yet reported
        self._next_pid = 1
        self._inbox = deque()
        self._inbox_ready = threading.Condition()
        self._closed = threading.Event()
        self._close_reason = "session closed"
        self._ping_interval = None
        if auto_ping and keep_alive_s > 0:
            self._ping_interval = max(keep_alive_s * 0.5, 0.1)
        self._housekeeper = None

        self._handshake()
        self._sock.settimeout(0.2)
        self._reader = threading.Thread(
            target=self._read_loop, name=f"mqtt-client-{client_id}", daemon=True
        )
        self._reader.start()
        if self._ping_interval is not None:
            with self._state_lock:
                self._start_housekeeper()

    def _handshake(self):
        self._sock.sendall(encode_packet(Connect(self.client_id, self.keep_alive_s)))
        buf = bytearray()
        while True:
            out = decode_packet(buf)
            if out is not NeedMoreBytes:
                break
            chunk = self._sock.recv(_RECV_BYTES)
            if not chunk:
                raise SessionClosed("broker closed the connection during connect")
            buf += chunk
        packet, used = out
        if not isinstance(packet, ConnAck):
            raise ProtocolError(f"expected CONNACK, got {type(packet).__name__}")
        if packet.return_code != 0:
            self._sock.close()
            raise MqttError(f"connection refused, return code {packet.return_code}")
        del buf[:used]
        self._leftover = buf

    # -- inbound side -------------------------------------------------

    def _read_loop(self):
        buf = self._leftover
        reason = "connection lost"
        try:
            while not self._closed.is_set():
                self._handle_burst(buf)
                try:
                    chunk = self._sock.recv(_RECV_BYTES)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not chunk:
                    break
                buf += chunk
        except ProtocolError as exc:
            reason = f"protocol error: {exc}"
        except SessionClosed:
            pass  # closed while acking an inbound publish
        finally:
            self._shutdown(reason)

    def _handle_burst(self, buf):
        """Handle every complete packet in buf, then ack and queue its publishes.

        The acks go out in one sendall, before the publishes reach the inbox
        with one notify_all. Publishes decoded before a malformed packet are
        still acked and queued.
        """
        acks = []
        publishes = []
        try:
            while True:
                out = decode_packet(buf)
                if out is NeedMoreBytes:
                    return
                packet, used = out
                # amortised O(1) from the front of a bytearray
                del buf[:used]
                if isinstance(packet, Publish):
                    if packet.qos == 1:
                        acks.append(encode_packet(PubAck(packet.packet_id)))
                    publishes.append(packet)
                else:
                    self._dispatch(packet)
        finally:
            if acks:
                self._write(b"".join(acks))
            if publishes:
                with self._inbox_ready:
                    self._inbox.extend(publishes)
                    self._inbox_ready.notify_all()

    def _dispatch(self, packet):
        if isinstance(packet, PubAck):
            # a late ack for a retransmitted publish finds nothing
            with self._acked:
                if self._inflight.pop(packet.packet_id, None) is not None:
                    self._acked.notify_all()
        elif isinstance(packet, SubAck):
            with self._state_lock:
                waiter = self._pending.pop(packet.packet_id, None)
            if waiter is not None:
                waiter.packet = packet
                waiter.event.set()
        elif isinstance(packet, PingResp):
            pass
        else:
            raise ProtocolError(f"unexpected {type(packet).__name__} from broker")

    # -- housekeeping -------------------------------------------------

    def _start_housekeeper(self):
        """Start the housekeeping thread once; call with the state lock held."""
        if self._housekeeper is None:
            self._housekeeper = threading.Thread(
                target=self._housekeeping_loop,
                name=f"mqtt-housekeeping-{self.client_id}",
                daemon=True,
            )
            self._housekeeper.start()

    def _housekeeping_loop(self):
        # Sleeps until the oldest in-flight deadline, or for ack_timeout_s
        # when nothing is in flight, so publish never has to wake it: a
        # message published during that sleep is not due before it ends.
        next_ping = time.monotonic() + self._ping_interval if self._ping_interval else math.inf
        try:
            while True:
                now = time.monotonic()
                resend, wake = self._expire(now)
                for pid, entry in resend:
                    self._send(
                        Publish(entry.topic, entry.payload, qos=1, packet_id=pid, dup=True)
                    )
                if now >= next_ping:
                    self._send(PingReq())
                    next_ping = now + self._ping_interval
                if self._closed.wait(max(0.0, min(wake, next_ping) - time.monotonic())):
                    return
        except SessionClosed:
            return

    def _expire(self, now) -> tuple:
        """Handle every publish whose ack is overdue.

        Returns the (pid, entry) pairs to resend, and when to look again.
        """
        resend = []
        with self._acked:
            while self._inflight:
                pid, entry = next(iter(self._inflight.items()))
                if entry.deadline > now:
                    break
                del self._inflight[pid]
                if entry.sends >= self.ack_attempts:
                    self._undelivered.append(pid)
                    self._acked.notify_all()
                    continue
                entry.sends += 1
                entry.deadline = now + self.ack_timeout_s
                self._inflight[pid] = entry
                resend.append((pid, entry))
            oldest = next(iter(self._inflight.values()), None)
        return resend, (oldest.deadline if oldest is not None else now + self.ack_timeout_s)

    def _check_delivered(self):
        """Raise DeliveryError once for messages given up on; call with the state lock held."""
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
            if self._closed.is_set():
                raise SessionClosed(self._close_reason)
            try:
                self._sock.sendall(wire)
            except OSError:
                raise SessionClosed("connection lost")

    def _free_pid(self) -> int:
        """Next packet id not awaiting an ack; call with the state lock held."""
        for _ in range(0xFFFF):
            pid = self._next_pid
            self._next_pid = pid % 0xFFFF + 1
            if pid not in self._pending and pid not in self._inflight:
                return pid
        raise MqttError("no free packet ids")

    def publish(self, topic: str, payload: bytes, qos: int = 1):
        """Send one message; qos 1 returns without waiting for the ack.

        A qos-1 message stays in flight until the broker acknowledges it.
        Each time its ack is ack_timeout_s late it is resent with the dup
        flag, up to ack_attempts sends in total. Blocks only while
        _MAX_IN_FLIGHT messages are in flight. Raises DeliveryError if an
        earlier message ran out of attempts and no call has reported it yet.
        """
        if self._closed.is_set():
            raise SessionClosed(self._close_reason)
        if qos == 0:
            self._send(Publish(topic=topic, payload=payload, qos=0))
            return
        with self._acked:
            while (
                len(self._inflight) >= _MAX_IN_FLIGHT
                and not self._undelivered
                and not self._closed.is_set()
            ):
                self._acked.wait()
            self._check_delivered()
            if self._closed.is_set():
                raise SessionClosed(self._close_reason)
            pid = self._free_pid()
            self._inflight[pid] = _InFlight(topic, payload, time.monotonic() + self.ack_timeout_s)
            self._start_housekeeper()
        try:
            self._send(Publish(topic=topic, payload=payload, qos=1, packet_id=pid))
        except EncodeError:
            with self._acked:
                del self._inflight[pid]
                self._acked.notify_all()
            raise

    def flush(self):
        """Block until every qos-1 message in flight is acknowledged.

        Raises DeliveryError as soon as a message runs out of attempts,
        unless publish already reported it, and SessionClosed if the
        connection is lost with messages still in flight.
        """
        with self._acked:
            while self._inflight and not self._undelivered and not self._closed.is_set():
                self._acked.wait()
            self._check_delivered()
            if self._inflight:
                raise SessionClosed(
                    f"{self._close_reason} with {len(self._inflight)} messages in flight"
                )

    def subscribe(self, topic_filter: str, qos: int = 1) -> int:
        """Register a subscription; returns the granted qos."""
        if self._closed.is_set():
            raise SessionClosed(self._close_reason)
        waiter = _Waiter()
        with self._state_lock:
            pid = self._free_pid()
            self._pending[pid] = waiter
        try:
            self._send(Subscribe(packet_id=pid, filters=((topic_filter, qos),)))
            if not waiter.event.wait(self.ack_timeout_s):
                raise DeliveryError(f"no suback for packet {pid}")
            if waiter.closed:
                raise SessionClosed(self._close_reason)
            granted = waiter.packet.return_codes[0]
            if granted == 0x80:
                raise MqttError(f"subscription to {topic_filter!r} refused")
            return granted
        finally:
            with self._state_lock:
                self._pending.pop(pid, None)

    def poll(self, timeout_s: float = 0.0) -> list:
        """Drain inbound publishes in arrival order.

        With a timeout, blocks until at least one message arrives, the
        session closes or the timeout elapses; returns whatever is queued
        (possibly nothing). Messages that arrived before the session closed
        are still returned; once the session is closed and nothing is
        queued, raises SessionClosed.
        """
        with self._inbox_ready:
            if not self._inbox and timeout_s > 0:
                self._inbox_ready.wait_for(
                    lambda: self._inbox or self._closed.is_set(), timeout_s
                )
            if not self._inbox and self._closed.is_set():
                raise SessionClosed(self._close_reason)
            out = list(self._inbox)
            self._inbox.clear()
        return out

    # -- lifecycle ----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def _shutdown(self, reason: str):
        if self._closed.is_set():
            return
        self._close_reason = reason
        self._closed.set()
        with self._acked:
            pending = list(self._pending.values())
            self._pending.clear()
            self._acked.notify_all()
        for waiter in pending:
            waiter.closed = True
            waiter.event.set()
        with self._inbox_ready:
            self._inbox_ready.notify_all()
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
        if not self._closed.is_set():
            try:
                self._send(Disconnect())
            except SessionClosed:
                pass
        self._shutdown("session closed")
        for thread in (self._reader, self._housekeeper):
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=2.0)

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
