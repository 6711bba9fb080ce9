import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.mqtt import packets as pk
from triplex.mqtt.packets import (
    ConnAck,
    Connect,
    Disconnect,
    EncodeError,
    NeedMoreBytes,
    PingReq,
    PingResp,
    ProtocolError,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    decode_packet,
    decode_varint,
    encode_packet,
    encode_varint,
)

from oracles import varint_encode_oracle


def random_packet(rng):
    """One random valid packet of a random type."""
    kind = rng.randrange(9)
    pid = rng.randint(1, 0xFFFF)
    topic = "/".join(
        rng.choice(["hr", "patient1", "dev", "a", "x9"]) for _ in range(rng.randint(1, 4))
    )
    if kind == 0:
        return Connect(client_id=f"c{rng.randint(0, 999)}", keep_alive_s=rng.randint(0, 0xFFFF))
    if kind == 1:
        return ConnAck(session_present=rng.random() < 0.5, return_code=rng.randint(0, 5))
    if kind == 2:
        qos = rng.randint(0, 1)
        return Publish(
            topic=topic,
            payload=rng.randbytes(rng.randint(0, 200)),
            qos=qos,
            packet_id=pid if qos else None,
            dup=qos == 1 and rng.random() < 0.3,
            retain=rng.random() < 0.2,
        )
    if kind == 3:
        return PubAck(packet_id=pid)
    if kind == 4:
        filters = tuple(
            (rng.choice([topic, topic + "/#", "+/hr", "#"]), rng.randint(0, 1))
            for _ in range(rng.randint(1, 3))
        )
        return Subscribe(packet_id=pid, filters=filters)
    if kind == 5:
        codes = tuple(rng.choice([0, 1, 0x80]) for _ in range(rng.randint(1, 3)))
        return SubAck(packet_id=pid, return_codes=codes)
    return (PingReq(), PingResp(), Disconnect())[kind - 6]


class TestVarint:
    def test_known_encodings(self):
        assert encode_varint(0) == bytes([0x00])
        assert encode_varint(127) == bytes([0x7F])
        assert encode_varint(128) == bytes([0x80, 0x01])
        assert encode_varint(321) == bytes([0xC1, 0x02])
        assert encode_varint(16_383) == bytes([0xFF, 0x7F])
        assert encode_varint(16_384) == bytes([0x80, 0x80, 0x01])
        assert encode_varint(2_097_151) == bytes([0xFF, 0xFF, 0x7F])
        assert encode_varint(2_097_152) == bytes([0x80, 0x80, 0x80, 0x01])
        assert encode_varint(268_435_455) == bytes([0xFF, 0xFF, 0xFF, 0x7F])

    def test_round_trip_exhaustive_low_range(self):
        for v in range(1 << 16):
            enc = encode_varint(v)
            assert enc == varint_encode_oracle(v)
            assert decode_varint(enc) == (v, len(enc))

    def test_round_trip_boundaries_and_samples(self):
        values = [127, 128, 16_383, 16_384, 2_097_151, 2_097_152, 268_435_455]
        rng = random.Random(2)
        values += [rng.randrange(268_435_456) for _ in range(20_000)]
        for v in values:
            enc = encode_varint(v)
            assert enc == varint_encode_oracle(v)
            assert decode_varint(enc) == (v, len(enc))

    def test_full_range_bijective(self):
        # vectorized identity proof over every legal value, in chunks;
        # the byte columns are an independent restatement of base-128
        chunk = 1 << 24
        for lo in range(0, 1 << 28, chunk):
            v = np.arange(lo, lo + chunk, dtype=np.uint32)
            b0 = (v % 128) | np.where(v >= 128, 0x80, 0)
            b1 = ((v >> 7) % 128) | np.where(v >= 1 << 14, 0x80, 0)
            b2 = ((v >> 14) % 128) | np.where(v >= 1 << 21, 0x80, 0)
            b3 = (v >> 21) % 128
            back = (b0 & 0x7F) + ((b1 & 0x7F) << 7) + ((b2 & 0x7F) << 14) + (b3 << 21)
            assert bool(np.array_equal(back, v))
            # spot-weld the model to the real encoder inside this chunk
            rng = random.Random(lo)
            for x in [lo, lo + chunk - 1] + [rng.randrange(lo, lo + chunk) for _ in range(32)]:
                cols = [b0[x - lo], b1[x - lo], b2[x - lo], b3[x - lo]]
                n = 4 if x >= 1 << 21 else 3 if x >= 1 << 14 else 2 if x >= 128 else 1
                assert encode_varint(x) == bytes(int(c) for c in cols[:n])

    def test_out_of_range_rejected(self):
        with pytest.raises(EncodeError):
            encode_varint(-1)
        with pytest.raises(EncodeError):
            encode_varint(268_435_456)

    def test_overlong_rejected(self):
        with pytest.raises(ProtocolError):
            decode_varint(bytes([0x80, 0x80, 0x80, 0x80, 0x01]))
        with pytest.raises(ProtocolError):
            decode_varint(bytes([0xFF, 0xFF, 0xFF, 0xFF]))

    def test_partial_needs_more(self):
        assert decode_varint(b"") is NeedMoreBytes
        assert decode_varint(bytes([0x80])) is NeedMoreBytes
        assert decode_varint(bytes([0x80, 0x80])) is NeedMoreBytes


class TestKnownBytes:
    def test_pingreq(self):
        assert encode_packet(PingReq()) == bytes([0xC0, 0x00])
        assert decode_packet(bytes([0xC0, 0x00])) == (PingReq(), 2)

    def test_pingresp_disconnect(self):
        assert encode_packet(PingResp()) == bytes([0xD0, 0x00])
        assert encode_packet(Disconnect()) == bytes([0xE0, 0x00])

    def test_qos0_publish_layout(self):
        # 0x30, remaining length 7, topic length 3, "a/b", then the payload
        wire = encode_packet(Publish(topic="a/b", payload=b"hi", qos=0))
        assert wire == bytes([0x30, 0x07, 0x00, 0x03]) + b"a/bhi"

    def test_qos1_publish_layout(self):
        wire = encode_packet(Publish(topic="a", payload=b"x", qos=1, packet_id=5))
        assert wire == bytes([0x32, 0x06, 0x00, 0x01]) + b"a" + bytes([0x00, 0x05]) + b"x"

    def test_connect_layout(self):
        wire = encode_packet(Connect(client_id="c1", keep_alive_s=30))
        head = bytes([0x10, 0x0E, 0x00, 0x04]) + b"MQTT" + bytes([0x04, 0x02, 0x00, 0x1E])
        assert wire == head + bytes([0x00, 0x02]) + b"c1"

    def test_empty_buffer_needs_more(self):
        assert decode_packet(b"") is NeedMoreBytes


class TestRoundTrip:
    def test_bulk_random_packets(self):
        rng = random.Random(1234)
        for trial in range(10_000):
            p = random_packet(rng)
            wire = encode_packet(p)
            assert decode_packet(wire) == (p, len(wire))

    def test_prefix_of_stream_consumes_one_packet(self):
        rng = random.Random(77)
        a, b = random_packet(rng), random_packet(rng)
        wire = encode_packet(a) + encode_packet(b)
        got, used = decode_packet(wire)
        assert got == a
        assert decode_packet(wire[used:]) == (b, len(wire) - used)

    def test_every_truncation_needs_more(self):
        rng = random.Random(78)
        for trial in range(50):
            wire = encode_packet(random_packet(rng))
            for cut in range(len(wire)):
                assert decode_packet(wire[:cut]) is NeedMoreBytes


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = random.Random(9)
        outcomes = {"ok": 0, "need_more": 0, "protocol_error": 0}
        for trial in range(100_000):
            buf = rng.randbytes(rng.randint(0, 40))
            try:
                out = decode_packet(buf)
            except ProtocolError:
                outcomes["protocol_error"] += 1
            else:
                if out is NeedMoreBytes:
                    outcomes["need_more"] += 1
                else:
                    packet, used = out
                    assert 0 < used <= len(buf)
                    outcomes["ok"] += 1
        # the fuzzer must actually exercise all three outcomes
        assert all(v > 0 for v in outcomes.values()), outcomes

    def test_mutated_valid_packets_never_crash(self):
        rng = random.Random(10)
        for trial in range(5_000):
            wire = bytearray(encode_packet(random_packet(rng)))
            for _ in range(rng.randint(1, 3)):
                wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
            try:
                out = decode_packet(bytes(wire))
            except ProtocolError:
                continue
            assert out is NeedMoreBytes or 0 < out[1] <= len(wire)


def outcome(decode, buf):
    """What one decoder makes of buf, in a form two decoders can be compared by."""
    try:
        out = decode(buf)
    except ProtocolError as exc:
        return ("error", type(exc), str(exc))
    if out is NeedMoreBytes:
        return ("need more",)
    packet, used = out
    return ("ok", type(packet), packet, used)


def assert_paths_agree(buf):
    """decode_packet, fast path included, matches the general path on buf."""
    for form in (bytes(buf), bytearray(buf)):
        assert outcome(decode_packet, form) == outcome(pk._decode_general, form), buf.hex()


def raw_publish(first, topic, pid=b"\x00\x4d", payload=b'{"seq":1}'):
    """PUBLISH wire with a hand-set first byte, topic bytes and packet id bytes."""
    body = len(topic).to_bytes(2, "big") + topic + pid + payload
    return bytes([first]) + encode_varint(len(body)) + body


def hot_path_wires():
    """Valid PUBLISH and PUBACK wires plus mutations at the fast path's edges."""
    wires = [
        raw_publish(0x32, b"hr/p1"),
        raw_publish(0x32, b"hr/p1", pid=b"\x00\x00"),  # packet id 0
        raw_publish(0x32, b"hr/\xff\xfe"),  # bad UTF-8
        raw_publish(0x32, b"hr/\xed\xa0\x80"),  # UTF-8-encoded surrogate
        raw_publish(0x32, "hr/ü".encode()),
        raw_publish(0x32, b"hr/+"),
        raw_publish(0x32, b"hr/#"),
        raw_publish(0x32, b"hr/\x00"),
        raw_publish(0x32, b""),
        raw_publish(0x32, b"hr", pid=b"", payload=b""),  # no room for a packet id
        raw_publish(0x32, b"hr", pid=b"\x01", payload=b""),
        raw_publish(0x32, b"hr", payload=b""),
        bytes([0x32, 0x04, 0x00, 0x09, 0x61, 0x00]),  # topic longer than the body
        bytes([0x32, 0x00]),
        bytes([0x32, 0x01, 0x00]),
        bytes([0x32, 0x80, 0x00]),  # two-byte length of 0
        # overlong two-byte length 10, read as one byte it would be 138
        bytes([0x32, 0x8A, 0x00, 0x01, 0x61, 0x00, 0x01]) + b"x" * 140,
        bytes([0x40, 0x02, 0x00, 0x00]),  # PUBACK with packet id 0
        bytes([0x40, 0x02, 0xFF, 0xFF]),
        bytes([0x40, 0x03, 0x00, 0x01, 0x00]),
        bytes([0x40, 0x01, 0x00]),
        bytes([0x41, 0x02, 0x00, 0x01]),
        bytes([0x40, 0x82, 0x00, 0x00, 0x01]),  # overlong length encoding
    ]
    for first in range(0x30, 0x40):  # dup, qos (0 to 3) and retain bits
        wires.append(raw_publish(first, b"hr/p1"))
    # bodies of 127 and 128 bytes: the largest one-byte and smallest two-byte length
    for size in (126, 127, 128, 129):
        wire = raw_publish(0x32, b"hr/p1", payload=b"x" * (size - 9))
        assert len(wire) - 1 - (1 if size < 128 else 2) == size
        wires.append(wire)
    wires.append(encode_packet(Publish("hr/p1", b"", qos=1, packet_id=1, dup=True, retain=True)))
    return wires


HOT_PATH_WIRES = hot_path_wires()


class TestDecodeFastPath:
    @pytest.mark.parametrize("index", range(len(HOT_PATH_WIRES)))
    def test_hot_wires_and_every_truncation_agree(self, index):
        wire = HOT_PATH_WIRES[index]
        for cut in range(len(wire) + 1):
            assert_paths_agree(wire[:cut])
        assert_paths_agree(wire + encode_packet(PubAck(9)))  # a packet behind it

    def test_criterion_3_corpus_agrees(self):
        # the same inputs, in the same order, as the criterion-3 check
        rng = random.Random(0xC3)
        for _ in range(10_000):
            assert_paths_agree(encode_packet(random_packet(rng)))
        for _ in range(100_000):
            assert_paths_agree(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40))))

    def test_mutated_hot_wires_agree(self):
        rng = random.Random(11)
        for _ in range(20_000):
            wire = bytearray(rng.choice(HOT_PATH_WIRES))
            for _ in range(rng.randint(1, 3)):
                wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
            assert_paths_agree(wire[: rng.randint(0, len(wire))])

    @settings(max_examples=400)
    @given(
        st.sampled_from([0x30, 0x32, 0x33, 0x34, 0x36, 0x3A, 0x3B, 0x40, 0x41, 0x50]),
        st.integers(0, 0xFF),
        st.binary(max_size=12),
        st.binary(max_size=3),
        st.binary(max_size=140),
        st.booleans(),
    )
    def test_generated_wires_agree(self, first, length, topic, pid, payload, honest):
        if honest:  # a true remaining length, one or two bytes long
            wire = raw_publish(first, topic, pid, payload)
        else:
            wire = bytes([first, length]) + len(topic).to_bytes(2, "big") + topic + pid + payload
        assert_paths_agree(wire)
        assert_paths_agree(wire[: len(wire) // 2])

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_agree(self, buf):
        assert_paths_agree(buf)

    def test_hot_packets_skip_the_general_path(self, monkeypatch):
        wires = [
            encode_packet(Publish("hr/p1", b'{"seq":1}', qos=1, packet_id=77)),
            encode_packet(Publish("hr/ü", b"", qos=1, packet_id=1, dup=True, retain=True)),
            encode_packet(PubAck(65535)),
        ]
        expected = [decode_packet(w) for w in wires]

        def general(buf):
            raise AssertionError("general path taken")

        monkeypatch.setattr(pk, "_decode_general", general)
        assert [decode_packet(bytearray(w)) for w in wires] == expected


class TestDecodeErrors:
    @pytest.mark.parametrize("type_num", [0, 5, 6, 7, 10, 11, 15])
    def test_unsupported_packet_types(self, type_num):
        with pytest.raises(ProtocolError):
            decode_packet(bytes([type_num << 4, 0]))

    @pytest.mark.parametrize(
        "first_byte",
        [0x11, 0x21, 0x41, 0x81, 0x80, 0x91, 0xC1, 0xD1, 0xE1],
    )
    def test_reserved_flag_bits(self, first_byte):
        with pytest.raises(ProtocolError):
            decode_packet(bytes([first_byte, 0x00]))

    def test_publish_qos3_malformed(self):
        wire = bytearray(encode_packet(Publish("a", b"", qos=1, packet_id=1)))
        wire[0] |= 0x06
        with pytest.raises(ProtocolError):
            decode_packet(bytes(wire))

    def test_publish_qos2_unsupported(self):
        wire = bytearray(encode_packet(Publish("a", b"", qos=1, packet_id=1)))
        wire[0] = (wire[0] & ~0x06) | 0x04
        with pytest.raises(ProtocolError):
            decode_packet(bytes(wire))

    def test_dup_on_qos0_rejected(self):
        wire = bytearray(encode_packet(Publish("a", b"", qos=0)))
        wire[0] |= 0x08
        with pytest.raises(ProtocolError):
            decode_packet(bytes(wire))

    def test_wildcard_in_publish_topic(self):
        body = bytes([0x00, 0x03]) + b"a/+"
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x30, len(body)]) + body)

    def test_packet_id_zero(self):
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x40, 0x02, 0x00, 0x00]))

    def test_connect_variants_rejected(self):
        def connect_with_flags(flags):
            body = bytes([0x00, 0x04]) + b"MQTT" + bytes([0x04, flags, 0x00, 0x1E])
            body += bytes([0x00, 0x01]) + b"c"
            return bytes([0x10, len(body)]) + body

        for flags in (0x00, 0x03, 0x06, 0x82, 0x42, 0x22):
            # persistent session, reserved bit, will, credentials
            with pytest.raises(ProtocolError):
                decode_packet(connect_with_flags(flags))
        assert decode_packet(connect_with_flags(0x02))[0] == Connect("c", 30)

    def test_bad_protocol_name_or_level(self):
        body = bytes([0x00, 0x04]) + b"MQIs" + bytes([0x04, 0x02, 0x00, 0x1E, 0x00, 0x00])
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x10, len(body)]) + body)
        body = bytes([0x00, 0x04]) + b"MQTT" + bytes([0x05, 0x02, 0x00, 0x1E, 0x00, 0x00])
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x10, len(body)]) + body)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x40, 0x03, 0x00, 0x01, 0xFF]))

    def test_truncated_body_rejected(self):
        # declared length 1 but a PubAck body needs 2
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x40, 0x01, 0x00]))

    def test_non_utf8_topic(self):
        body = bytes([0x00, 0x02, 0xFF, 0xFE]) + b"x"
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x30, len(body)]) + body)

    def test_empty_subscribe(self):
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x82, 0x02, 0x00, 0x01]))

    def test_suback_bad_code(self):
        with pytest.raises(ProtocolError):
            decode_packet(bytes([0x90, 0x03, 0x00, 0x01, 0x02]))


class TestEncodeErrors:
    def test_qos1_needs_packet_id(self):
        with pytest.raises(EncodeError):
            encode_packet(Publish("a", b"", qos=1))

    def test_qos0_must_not_have_packet_id(self):
        with pytest.raises(EncodeError):
            encode_packet(Publish("a", b"", qos=0, packet_id=3))

    @pytest.mark.parametrize("pid", [0, -1, 65_536])
    def test_packet_id_range(self, pid):
        with pytest.raises(EncodeError):
            encode_packet(PubAck(packet_id=pid))

    def test_qos2_unsupported(self):
        with pytest.raises(EncodeError):
            encode_packet(Publish("a", b"", qos=2, packet_id=1))

    def test_wildcard_topic_rejected(self):
        with pytest.raises(EncodeError):
            encode_packet(Publish("a/#", b"", qos=0))

    def test_bad_filter_rejected(self):
        with pytest.raises(EncodeError):
            encode_packet(Subscribe(packet_id=1, filters=(("a/#/b", 0),)))

    def test_empty_subscribe_rejected(self):
        with pytest.raises(EncodeError):
            encode_packet(Subscribe(packet_id=1, filters=()))

    def test_keep_alive_range(self):
        with pytest.raises(EncodeError):
            encode_packet(Connect("c", keep_alive_s=70_000))

    def test_bad_return_codes(self):
        with pytest.raises(EncodeError):
            encode_packet(ConnAck(return_code=6))
        with pytest.raises(EncodeError):
            encode_packet(SubAck(packet_id=1, return_codes=(2,)))
