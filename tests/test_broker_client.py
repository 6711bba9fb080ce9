import json
import socket
import threading
import time

import pytest

from triplex.mqtt import (
    BrokerConfig,
    DeliveryError,
    MqttError,
    SessionClosed,
    broker_start,
    client_connect,
)
from triplex.mqtt import client as client_module


class FakeClock:
    """Manually advanced monotonic clock for expiry tests."""

    def __init__(self):
        self.now = 1000.0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            return self.now

    def advance(self, dt):
        with self._lock:
            self.now += dt


@pytest.fixture
def broker():
    b = broker_start(BrokerConfig())
    yield b
    b.stop()


def drain(session, want, deadline_s=10.0):
    """Poll until `want` messages arrived or the deadline passed."""
    out = []
    end = time.monotonic() + deadline_s
    while len(out) < want and time.monotonic() < end:
        out.extend(session.poll(timeout_s=0.1))
    return out


class TestBasicDelivery:
    def test_self_round_trip(self, broker):
        with client_connect(broker.address, "c1") as c:
            assert c.subscribe("hr/p1") == 1
            c.publish("hr/p1", b"X", qos=1)
            msgs = drain(c, 1)
            assert len(msgs) == 1
            assert msgs[0].topic == "hr/p1"
            assert msgs[0].payload == b"X"

    def test_wildcard_subscription(self, broker):
        with client_connect(broker.address, "sub") as sub, client_connect(
            broker.address, "pub"
        ) as pub:
            sub.subscribe("hr/#")
            pub.publish("hr/p1/raw", b"1", qos=1)
            msgs = drain(sub, 1)
            assert [m.payload for m in msgs] == [b"1"]

    def test_no_subscribers_is_fine(self, broker):
        with client_connect(broker.address, "pub") as pub:
            pub.publish("nobody/home", b"x", qos=1)  # acked, delivered to no one
        assert broker.stats["messages_delivered"] == 0

    def test_qos_downgrade_to_subscription(self, broker):
        with client_connect(broker.address, "sub") as sub, client_connect(
            broker.address, "pub"
        ) as pub:
            sub.subscribe("t", qos=0)
            pub.publish("t", b"x", qos=1)
            msgs = drain(sub, 1)
            assert msgs[0].qos == 0
            assert msgs[0].packet_id is None

    def test_one_copy_per_session_with_overlapping_filters(self, broker):
        with client_connect(broker.address, "s1") as s1, client_connect(
            broker.address, "s2"
        ) as s2, client_connect(broker.address, "pub") as pub:
            s1.subscribe("a/#")
            s1.subscribe("a/+")
            s2.subscribe("a/b")
            pub.publish("a/b", b"m", qos=1)
            assert len(drain(s1, 1, 3.0)) == 1
            assert len(drain(s2, 1, 3.0)) == 1
            time.sleep(0.2)
            assert s1.poll() == [] and s2.poll() == []

    def test_qos0_publish(self, broker):
        with client_connect(broker.address, "sub") as sub, client_connect(
            broker.address, "pub"
        ) as pub:
            sub.subscribe("t", qos=1)
            pub.publish("t", b"fire-and-forget", qos=0)
            msgs = drain(sub, 1)
            assert msgs[0].payload == b"fire-and-forget"
            assert msgs[0].qos == 0


class TestOrderingAndVolume:
    def test_qos0_order_preserved(self, broker):
        with client_connect(broker.address, "sub") as sub, client_connect(
            broker.address, "pub"
        ) as pub:
            sub.subscribe("seq", qos=0)
            for i in range(500):
                pub.publish("seq", str(i).encode(), qos=0)
            msgs = drain(sub, 500)
            assert [int(m.payload) for m in msgs] == list(range(500))

    def test_6000_qos1_publishes_all_delivered_in_order(self, broker):
        with client_connect(broker.address, "sub") as sub, client_connect(
            broker.address, "pub"
        ) as pub:
            sub.subscribe("bulk", qos=1)
            for i in range(6000):
                pub.publish("bulk", json.dumps({"seq": i}).encode(), qos=1)
            msgs = drain(sub, 6000, deadline_s=30.0)
            seqs = [json.loads(m.payload)["seq"] for m in msgs]
            assert seqs == list(range(6000))


class TestFaultInjection:
    def test_at_least_once_under_ack_drop(self):
        cfg = BrokerConfig(ack_drop_rate=0.1, ack_drop_seed=1)
        with broker_start(cfg) as broker:
            with client_connect(
                broker.address, "sub", ack_timeout_s=2.0
            ) as sub, client_connect(
                broker.address, "pub", ack_timeout_s=0.05, ack_attempts=12
            ) as pub:
                sub.subscribe("t", qos=1)
                for i in range(50):
                    pub.publish("t", str(i).encode(), qos=1)
                time.sleep(0.3)
                msgs = drain(sub, 50)
                got = [int(m.payload) for m in msgs]
                # every message at least once, duplicates allowed and flagged
                assert set(got) == set(range(50))
                assert len(got) >= 50
            assert broker.stats["acks_dropped"] > 0
            assert broker.stats["dup_publishes_received"] > 0
            dup_flags = [m.dup for m in msgs]
            assert any(dup_flags)

    def test_delivery_error_when_acks_never_come(self):
        cfg = BrokerConfig(ack_drop_rate=0.9999999, ack_drop_seed=2)
        with broker_start(cfg) as broker:
            with client_connect(
                broker.address, "pub", ack_timeout_s=0.05, ack_attempts=2
            ) as pub:
                with pytest.raises(DeliveryError):
                    pub.publish("t", b"x", qos=1)
                    pub.flush()


class TestInFlightWindow:
    def test_full_window_blocks_then_raises(self, monkeypatch):
        monkeypatch.setattr(client_module, "_MAX_IN_FLIGHT", 2)
        cfg = BrokerConfig(ack_drop_rate=0.9999999, ack_drop_seed=3)
        with broker_start(cfg) as broker:
            with client_connect(
                broker.address, "pub", ack_timeout_s=0.2, ack_attempts=2
            ) as pub:
                started = time.monotonic()
                pub.publish("t", b"1", qos=1)
                time.sleep(0.1)
                pub.publish("t", b"2", qos=1)  # fits in the window
                # blocked until packet 1 ran out of its two sends
                with pytest.raises(DeliveryError, match="packet 1 after 2 attempts"):
                    pub.publish("t", b"3", qos=1)
                assert time.monotonic() - started >= 0.4
                with pytest.raises(DeliveryError, match="packet 2 after 2 attempts"):
                    pub.flush()
                pub.flush()  # each failure is reported once
                assert broker.stats["publishes_received"] == 4
                assert broker.stats["dup_publishes_received"] == 2

    def test_close_delivers_every_message_in_flight(self):
        cfg = BrokerConfig(ack_drop_rate=0.3, ack_drop_seed=4)
        with broker_start(cfg) as broker:
            with client_connect(broker.address, "sub") as sub:
                sub.subscribe("t", qos=1)
                pub = client_connect(broker.address, "pub", ack_timeout_s=0.05, ack_attempts=20)
                for i in range(200):
                    pub.publish("t", str(i).encode(), qos=1)
                pub.close()  # returns once every message is acknowledged
                assert pub.closed and not pub._inflight
                assert broker.stats["acks_dropped"] > 0
                assert broker.stats["dup_publishes_received"] > 0
                got = {int(m.payload) for m in drain(sub, 200)}
                assert got == set(range(200))

    def test_no_packet_id_reused_while_in_flight_across_wrap(self):
        cfg = BrokerConfig(ack_drop_rate=0.9999999, ack_drop_seed=5)
        with broker_start(cfg) as broker:
            pub = client_connect(broker.address, "pub", ack_timeout_s=1.0, ack_attempts=1)
            try:
                pub.publish("t", b"first", qos=1)  # takes id 1 and keeps it
                pub._next_pid = 0xFFFE
                for i in range(3):
                    pub.publish("t", str(i).encode(), qos=1)
                assert list(pub._inflight) == [1, 0xFFFE, 0xFFFF, 2]
            finally:
                with pytest.raises(DeliveryError):
                    pub.close()

    def test_close_raises_when_session_lost_with_messages_in_flight(self):
        broker = broker_start(BrokerConfig(ack_drop_rate=0.9999999, ack_drop_seed=6))
        try:
            pub = client_connect(broker.address, "pub", ack_timeout_s=30.0, ack_attempts=1)
            for i in range(3):
                pub.publish("t", str(i).encode(), qos=1)
        finally:
            broker.stop()
        deadline = time.monotonic() + 5.0
        while not pub.closed and time.monotonic() < deadline:
            time.sleep(0.02)
        assert pub.closed
        with pytest.raises(SessionClosed, match="3 messages in flight"):
            pub.close()


class TestSessionLifecycle:
    def test_broker_stop_closes_sessions(self):
        broker = broker_start(BrokerConfig())
        c1 = client_connect(broker.address, "c1")
        c2 = client_connect(broker.address, "c2")
        broker.stop()
        time.sleep(0.3)
        for c in (c1, c2):
            with pytest.raises(SessionClosed):
                for _ in range(20):
                    c.publish("t", b"x", qos=0)
                    time.sleep(0.05)
        c1.close()
        c2.close()

    def test_idle_broker_stops_promptly(self):
        broker = broker_start(BrokerConfig())
        time.sleep(0.05)  # let the accept thread block in accept()
        started = time.perf_counter()
        broker.stop()
        # well under the listener's 0.2 s accept timeout
        assert time.perf_counter() - started < 0.1

    def test_keep_alive_expiry_with_fake_clock(self):
        clock = FakeClock()
        with broker_start(BrokerConfig(clock=clock)) as broker:
            with client_connect(
                broker.address, "quiet", keep_alive_s=2, auto_ping=False
            ) as c:
                assert broker.session_count() == 1
                clock.advance(10.0)  # way past keep_alive * grace
                deadline = time.monotonic() + 5.0
                while broker.session_count() > 0 and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert broker.session_count() == 0
                assert broker.stats["sessions_expired"] == 1
                time.sleep(0.2)
                with pytest.raises(SessionClosed):
                    for _ in range(20):
                        c.publish("t", b"x", qos=0)
                        time.sleep(0.05)

    def test_auto_ping_keeps_session_alive(self, broker):
        with client_connect(broker.address, "pinger", keep_alive_s=1) as c:
            time.sleep(1.8)  # past keep_alive * grace without any publish
            c.publish("t", b"still-here", qos=1)
            assert broker.session_count() == 1

    def test_client_id_takeover(self, broker):
        c1 = client_connect(broker.address, "dup-id")
        c2 = client_connect(broker.address, "dup-id")
        try:
            time.sleep(0.3)
            with pytest.raises(SessionClosed):
                for _ in range(20):
                    c1.publish("t", b"x", qos=0)
                    time.sleep(0.05)
            c2.publish("t", b"y", qos=1)  # the new session works
            assert broker.session_count() == 1
        finally:
            c1.close()
            c2.close()

    def test_max_sessions_refused(self):
        with broker_start(BrokerConfig(max_sessions=1)) as broker:
            with client_connect(broker.address, "first") as _c:
                with pytest.raises(MqttError, match="return code 3"):
                    client_connect(broker.address, "second")

    def test_close_while_qos1_messages_stream_in(self, broker, monkeypatch):
        # the reader acks each inbound qos-1 publish; a close racing that
        # ack must end the reader quietly
        escaped = []
        monkeypatch.setattr(threading, "excepthook", lambda args: escaped.append(args.exc_value))
        stop = threading.Event()
        with client_connect(broker.address, "pub") as pub:

            def flood():
                while not stop.is_set():
                    pub.publish("t", b"x", qos=1)

            flooder = threading.Thread(target=flood)
            flooder.start()
            try:
                for trial in range(40):
                    sub = client_connect(broker.address, f"sub{trial}")
                    sub.subscribe("t", qos=1)
                    time.sleep(0.01)
                    sub.close()
            finally:
                stop.set()
                flooder.join(timeout=10.0)
        assert not flooder.is_alive()
        assert escaped == []

    def test_both_ends_send_small_packets_at_once(self, broker):
        # with Nagle's algorithm a pipelined packet could wait for the
        # peer's delayed ack whenever an earlier one was unacknowledged
        with client_connect(broker.address, "pub") as pub:
            assert pub._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            conn = broker._sessions["pub"].conn
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_finished_handler_threads_are_pruned(self, broker):
        for i in range(20):
            client_connect(broker.address, f"c{i}").close()
        deadline = time.monotonic() + 5.0
        while any(t.is_alive() for t in broker._threads) and time.monotonic() < deadline:
            time.sleep(0.05)
        with client_connect(broker.address, "last"):
            assert len(broker._threads) == 1

    def test_port_conflict_raises_startup_error(self, broker):
        from triplex.mqtt import StartupError

        with pytest.raises(StartupError):
            broker_start(BrokerConfig(port=broker.address[1]))
