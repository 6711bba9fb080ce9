"""MQTT 3.1.1 packet codec for the qos 0/1, clean-session subset.

encode_packet/decode_packet are bit-exact against the standard byte layout.
decode_packet returns NeedMoreBytes on a partial buffer and raises
ProtocolError on anything malformed; per the standard the connection must
be closed after a ProtocolError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Union

from .topics import validate_topic_filter, validate_topic_name

MAX_REMAINING_LENGTH = 268_435_455  # largest 4-byte varint

# bytes per socket read on both ends: one wake-up drains a pipelined burst
_RECV_BYTES = 65536


class MqttError(Exception):
    """Base for everything raised by this package."""


class ProtocolError(MqttError):
    """Malformed or unsupported bytes on the wire; close the connection."""


class EncodeError(MqttError):
    """Packet violates its own invariants and cannot be serialized."""


class SessionClosed(MqttError):
    """Operation attempted on a closed or lost session."""


class DeliveryError(MqttError):
    """Qos-1 publish ran out of retransmission attempts."""


class StartupError(MqttError):
    """Broker could not bind its listening socket."""


class _NeedMoreBytes:
    __slots__ = ()

    def __repr__(self):
        return "NeedMoreBytes"

    def __bool__(self):
        return False


NeedMoreBytes = _NeedMoreBytes()


class PacketType(IntEnum):
    CONNECT = 1
    CONNACK = 2
    PUBLISH = 3
    PUBACK = 4
    SUBSCRIBE = 8
    SUBACK = 9
    PINGREQ = 12
    PINGRESP = 13
    DISCONNECT = 14


# fixed-header flag nibble required for every non-PUBLISH type
_REQUIRED_FLAGS = {
    PacketType.CONNECT: 0x0,
    PacketType.CONNACK: 0x0,
    PacketType.PUBACK: 0x0,
    PacketType.SUBSCRIBE: 0x2,
    PacketType.SUBACK: 0x0,
    PacketType.PINGREQ: 0x0,
    PacketType.PINGRESP: 0x0,
    PacketType.DISCONNECT: 0x0,
}


@dataclass(frozen=True)
class Connect:
    client_id: str
    keep_alive_s: int = 0


@dataclass(frozen=True)
class ConnAck:
    session_present: bool = False
    return_code: int = 0


@dataclass(frozen=True)
class Publish:
    topic: str
    payload: bytes
    qos: int = 0
    packet_id: Optional[int] = None
    dup: bool = False
    retain: bool = False


@dataclass(frozen=True)
class PubAck:
    packet_id: int


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    filters: tuple = ()  # of (topic_filter, qos)


@dataclass(frozen=True)
class SubAck:
    packet_id: int
    return_codes: tuple = ()


@dataclass(frozen=True)
class PingReq:
    pass


@dataclass(frozen=True)
class PingResp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


MqttPacket = Union[
    Connect, ConnAck, Publish, PubAck, Subscribe, SubAck, PingReq, PingResp, Disconnect
]


def encode_varint(value: int) -> bytes:
    """Base-128 remaining-length encoding, least significant group first."""
    if not 0 <= value <= MAX_REMAINING_LENGTH:
        raise EncodeError(f"remaining length {value} out of range")
    out = bytearray()
    while True:
        byte = value % 128
        value //= 128
        if value:
            byte |= 0x80
        out.append(byte)
        if not value:
            return bytes(out)


def decode_varint(buf: bytes, offset: int = 0):
    """Return (value, bytes consumed) or NeedMoreBytes; >4 bytes is malformed."""
    value = 0
    multiplier = 1
    for i in range(4):
        if offset + i >= len(buf):
            return NeedMoreBytes
        byte = buf[offset + i]
        value += (byte & 0x7F) * multiplier
        if not byte & 0x80:
            return value, i + 1
        multiplier *= 128
    raise ProtocolError("remaining-length varint exceeds 4 bytes")


def _encode_string(s: str) -> bytes:
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise EncodeError("string longer than 65535 bytes")
    return len(data).to_bytes(2, "big") + data


def _check_packet_id(pid) -> int:
    if not isinstance(pid, int) or not 1 <= pid <= 0xFFFF:
        raise EncodeError(f"packet id must be in [1, 65535], got {pid!r}")
    return pid


def encode_packet(p: MqttPacket) -> bytes:
    """Serialize one packet to its exact wire bytes."""
    if isinstance(p, Connect):
        if not 0 <= p.keep_alive_s <= 0xFFFF:
            raise EncodeError(f"keep alive {p.keep_alive_s} out of range")
        # connect flags: clean session only, no will, no auth
        body = _encode_string("MQTT") + bytes([0x04, 0x02])
        body += p.keep_alive_s.to_bytes(2, "big")
        body += _encode_string(p.client_id)
        return _fixed_header(PacketType.CONNECT, 0x0, body)

    if isinstance(p, ConnAck):
        if not 0 <= p.return_code <= 5:
            raise EncodeError(f"connack return code {p.return_code} out of range")
        body = bytes([1 if p.session_present else 0, p.return_code])
        return _fixed_header(PacketType.CONNACK, 0x0, body)

    if isinstance(p, Publish):
        if p.qos not in (0, 1):
            raise EncodeError(f"qos {p.qos} not supported")
        if p.qos == 1:
            _check_packet_id(p.packet_id)
        elif p.packet_id is not None:
            raise EncodeError("qos-0 publish must not carry a packet id")
        err = validate_topic_name(p.topic)
        if err:
            raise EncodeError(err)
        flags = (0x8 if p.dup else 0) | (p.qos << 1) | (0x1 if p.retain else 0)
        body = _encode_string(p.topic)
        if p.qos == 1:
            body += p.packet_id.to_bytes(2, "big")
        body += bytes(p.payload)
        return _fixed_header(PacketType.PUBLISH, flags, body)

    if isinstance(p, PubAck):
        body = _check_packet_id(p.packet_id).to_bytes(2, "big")
        return _fixed_header(PacketType.PUBACK, 0x0, body)

    if isinstance(p, Subscribe):
        if not p.filters:
            raise EncodeError("subscribe needs at least one topic filter")
        body = _check_packet_id(p.packet_id).to_bytes(2, "big")
        for topic_filter, qos in p.filters:
            if qos not in (0, 1):
                raise EncodeError(f"subscription qos {qos} not supported")
            err = validate_topic_filter(topic_filter)
            if err:
                raise EncodeError(err)
            body += _encode_string(topic_filter) + bytes([qos])
        return _fixed_header(PacketType.SUBSCRIBE, 0x2, body)

    if isinstance(p, SubAck):
        if not p.return_codes:
            raise EncodeError("suback needs at least one return code")
        body = _check_packet_id(p.packet_id).to_bytes(2, "big")
        for rc in p.return_codes:
            if rc not in (0x00, 0x01, 0x80):
                raise EncodeError(f"suback return code {rc:#x} not supported")
            body += bytes([rc])
        return _fixed_header(PacketType.SUBACK, 0x0, body)

    if isinstance(p, PingReq):
        return bytes([PacketType.PINGREQ << 4, 0])
    if isinstance(p, PingResp):
        return bytes([PacketType.PINGRESP << 4, 0])
    if isinstance(p, Disconnect):
        return bytes([PacketType.DISCONNECT << 4, 0])

    raise EncodeError(f"not an MQTT packet: {p!r}")


def _fixed_header(ptype: PacketType, flags: int, body: bytes) -> bytes:
    return bytes([(ptype << 4) | flags]) + encode_varint(len(body)) + body


class _Reader:
    """Cursor over one packet body; every read checks the boundary."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ProtocolError("packet body shorter than its declared length")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def string(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("string is not valid UTF-8")

    def rest(self) -> bytes:
        out = self.buf[self.pos :]
        self.pos = len(self.buf)
        return out

    def done(self):
        if self.pos != len(self.buf):
            raise ProtocolError(f"{len(self.buf) - self.pos} unexpected trailing bytes")


def decode_packet(buf: bytes):
    """Parse the first packet in buf.

    Returns (packet, bytes consumed), or NeedMoreBytes if the buffer holds
    only a prefix of a packet. Raises ProtocolError on malformed input or
    on packet types outside the supported subset.

    A PUBACK, and a qos-1 PUBLISH whose remaining length fits in one byte,
    take a fast path when they are complete and well formed; it returns
    exactly what the general path returns. Anything else, valid or not,
    falls through to the general path.
    """
    n = len(buf)
    if n >= 4:
        first = buf[0]
        if first == 0x40:  # PUBACK
            if buf[1] == 2:
                pid = (buf[2] << 8) | buf[3]
                if pid:
                    return PubAck(pid), 4
        elif first & 0xF6 == 0x32:  # qos-1 PUBLISH, any dup and retain bits
            remaining = buf[1]
            total = remaining + 2
            topic_end = 4 + ((buf[2] << 8) | buf[3])
            # one-byte length, whole packet here, non-empty topic and a pid
            if remaining < 0x80 and n >= total and 4 < topic_end <= total - 2:
                raw = buf[4:topic_end]
                pid = (buf[topic_end] << 8) | buf[topic_end + 1]
                # UTF-8 never encodes a multi-byte character with ASCII bytes
                if pid and b"+" not in raw and b"#" not in raw and b"\x00" not in raw:
                    try:
                        topic = raw.decode("utf-8")
                    except UnicodeDecodeError:
                        pass
                    else:
                        return (
                            Publish(
                                topic,
                                bytes(buf[topic_end + 2 : total]),
                                1,
                                pid,
                                bool(first & 0x8),
                                bool(first & 0x1),
                            ),
                            total,
                        )
    return _decode_general(buf)


def _decode_general(buf: bytes):
    """decode_packet without the fast path, for every packet type."""
    if len(buf) < 1:
        return NeedMoreBytes
    type_num = buf[0] >> 4
    flags = buf[0] & 0x0F
    try:
        ptype = PacketType(type_num)
    except ValueError:
        raise ProtocolError(f"reserved or unsupported packet type {type_num}")

    head = decode_varint(buf, 1)
    if head is NeedMoreBytes:
        return NeedMoreBytes
    remaining, varint_len = head
    total = 1 + varint_len + remaining
    if len(buf) < total:
        return NeedMoreBytes
    body = _Reader(bytes(buf[1 + varint_len : total]))

    if ptype != PacketType.PUBLISH and flags != _REQUIRED_FLAGS[ptype]:
        raise ProtocolError(f"{ptype.name} carries reserved flag bits {flags:#x}")

    if ptype == PacketType.CONNECT:
        packet = _decode_connect(body)
    elif ptype == PacketType.CONNACK:
        ack_flags = body.u8()
        if ack_flags & ~0x01:
            raise ProtocolError("connack acknowledge flags must be 0 or 1")
        rc = body.u8()
        if rc > 5:
            raise ProtocolError(f"connack return code {rc} out of range")
        packet = ConnAck(session_present=bool(ack_flags & 1), return_code=rc)
    elif ptype == PacketType.PUBLISH:
        packet = _decode_publish(body, flags)
    elif ptype == PacketType.PUBACK:
        packet = PubAck(packet_id=_decode_pid(body))
    elif ptype == PacketType.SUBSCRIBE:
        packet = _decode_subscribe(body)
    elif ptype == PacketType.SUBACK:
        packet = _decode_suback(body)
    elif ptype == PacketType.PINGREQ:
        packet = PingReq()
    elif ptype == PacketType.PINGRESP:
        packet = PingResp()
    else:
        packet = Disconnect()

    body.done()
    return packet, total


def _decode_connect(body: _Reader) -> Connect:
    if body.string() != "MQTT":
        raise ProtocolError("bad protocol name")
    if body.u8() != 0x04:
        raise ProtocolError("only protocol level 4 (3.1.1) is supported")
    connect_flags = body.u8()
    if connect_flags & 0x01:
        raise ProtocolError("connect reserved flag must be 0")
    # this subset is clean-session only and carries no will or credentials
    if not connect_flags & 0x02:
        raise ProtocolError("persistent sessions are not supported")
    if connect_flags & 0xFC:
        raise ProtocolError("will and auth connect flags are not supported")
    keep_alive = body.u16()
    client_id = body.string()
    return Connect(client_id=client_id, keep_alive_s=keep_alive)


def _decode_publish(body: _Reader, flags: int) -> Publish:
    qos = (flags >> 1) & 0x3
    if qos == 3:
        raise ProtocolError("publish qos bits 3 are malformed")
    if qos == 2:
        raise ProtocolError("qos 2 is not supported")
    dup = bool(flags & 0x8)
    retain = bool(flags & 0x1)
    if dup and qos == 0:
        raise ProtocolError("dup flag on a qos-0 publish")
    topic = body.string()
    err = validate_topic_name(topic)
    if err:
        raise ProtocolError(err)
    packet_id = _decode_pid(body) if qos == 1 else None
    return Publish(
        topic=topic, payload=body.rest(), qos=qos, packet_id=packet_id, dup=dup, retain=retain
    )


def _decode_pid(body: _Reader) -> int:
    pid = body.u16()
    if pid == 0:
        raise ProtocolError("packet id 0 is not allowed")
    return pid


def _decode_subscribe(body: _Reader) -> Subscribe:
    pid = _decode_pid(body)
    filters = []
    while body.pos < len(body.buf):
        topic_filter = body.string()
        err = validate_topic_filter(topic_filter)
        if err:
            raise ProtocolError(err)
        qos = body.u8()
        if qos > 2:
            raise ProtocolError(f"malformed subscription qos {qos}")
        if qos == 2:
            raise ProtocolError("qos 2 subscriptions are not supported")
        filters.append((topic_filter, qos))
    if not filters:
        raise ProtocolError("subscribe carries no topic filters")
    return Subscribe(packet_id=pid, filters=tuple(filters))


def _decode_suback(body: _Reader) -> SubAck:
    pid = _decode_pid(body)
    codes = []
    while body.pos < len(body.buf):
        rc = body.u8()
        if rc not in (0x00, 0x01, 0x80):
            raise ProtocolError(f"suback return code {rc:#x} not supported")
        codes.append(rc)
    if not codes:
        raise ProtocolError("suback carries no return codes")
    return SubAck(packet_id=pid, return_codes=tuple(codes))
