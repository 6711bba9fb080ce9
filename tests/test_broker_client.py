import json
import socket
import threading
import time

import pytest

from triplex.mqtt import (
    BrokerConfig,
    DeliveryError,
    MqttError,
    Publish,
    SessionClosed,
    broker_start,
    client_connect,
    encode_packet,
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


class CountingConn:
    """Stands in for a broker-side socket and counts its writes."""

    def __init__(self, conn):
        self._conn = conn
        self.writes = 0

    def sendall(self, data):
        self.writes += 1
        return self._conn.sendall(data)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def count_broker_writes(broker, client_id):
    session = broker._sessions[client_id]
    session.conn = CountingConn(session.conn)
    return session.conn


class TestCoalescedWrites:
    def test_two_pipelined_publishers_each_in_order_exactly_once(self, broker):
        with client_connect(broker.address, "sub") as sub, client_connect(
            broker.address, "pa"
        ) as pa, client_connect(broker.address, "pb") as pb:
            sub.subscribe("t", qos=1)

            def flood(pub, name):
                for i in range(500):
                    pub.publish("t", f"{name}:{i}".encode(), qos=1)
                pub.flush()

            threads = [threading.Thread(target=flood, args=p) for p in ((pa, "a"), (pb, "b"))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20.0)
            msgs = drain(sub, 1000, deadline_s=20.0)
        got = [m.payload.decode().split(":") for m in msgs]
        for name in ("a", "b"):
            assert [int(i) for n, i in got if n == name] == list(range(500))
        assert len(got) == 1000
        assert broker.stats["dup_publishes_received"] == 0

    def test_pipelined_burst_takes_fewer_writes_than_messages(self, broker):
        with client_connect(broker.address, "sub") as sub, client_connect(
            broker.address, "pub"
        ) as pub:
            sub.subscribe("t", qos=1)
            to_sub = count_broker_writes(broker, "sub")
            to_pub = count_broker_writes(broker, "pub")
            # 64 publishes in one segment, so the broker reads them in one burst
            burst = b"".join(
                encode_packet(Publish("t", str(i).encode(), qos=1, packet_id=i + 1))
                for i in range(64)
            )
            pub._sock.sendall(burst)
            msgs = drain(sub, 64)
        assert [int(m.payload) for m in msgs] == list(range(64))
        assert to_sub.writes < 64
        assert to_pub.writes < 64  # the burst's 64 PUBACKs

    def test_lone_publish_is_not_held_back(self, broker):
        with client_connect(broker.address, "sub") as sub, client_connect(
            broker.address, "pub"
        ) as pub:
            sub.subscribe("t", qos=1)
            took = []
            for i in range(5):
                time.sleep(0.02)  # nothing else in flight
                started = time.perf_counter()
                pub.publish("t", str(i).encode(), qos=1)
                assert [m.payload for m in sub.poll(timeout_s=1.0)] == [str(i).encode()]
                took.append(time.perf_counter() - started)
        # a write held for more bytes would wait out the 0.2 s read timeout
        assert sorted(took)[2] < 0.05


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


class TestPollAfterClose:
    def test_poll_returns_queued_messages_then_raises(self):
        broker = broker_start(BrokerConfig())
        sub = client_connect(broker.address, "sub")
        try:
            sub.subscribe("t", qos=1)
            with client_connect(broker.address, "pub") as pub:
                for i in range(3):
                    pub.publish("t", str(i).encode(), qos=1)
            deadline = time.monotonic() + 5.0
            while len(sub._inbox) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            broker.stop()
        deadline = time.monotonic() + 5.0
        while not sub.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sub.closed
        assert [m.payload for m in sub.poll()] == [b"0", b"1", b"2"]
        for timeout_s in (0.0, 0.5):
            started = time.monotonic()
            with pytest.raises(SessionClosed):
                sub.poll(timeout_s=timeout_s)
            assert time.monotonic() - started < 0.1
        sub.close()

    def test_publishes_before_a_malformed_packet_are_acked_and_returned(self):
        with socket.create_server(("127.0.0.1", 0)) as server:
            result = {}

            def fake_broker():
                conn, _ = server.accept()
                with conn:
                    conn.recv(1024)  # CONNECT
                    conn.sendall(
                        bytes([0x20, 0x02, 0x00, 0x00])  # CONNACK
                        + encode_packet(Publish("t", b"a", qos=1, packet_id=1))
                        + encode_packet(Publish("t", b"b", qos=1, packet_id=2))
                        + bytes([0x00, 0x00])  # reserved packet type
                    )
                    conn.settimeout(5.0)
                    got = b""
                    while len(got) < 8:
                        chunk = conn.recv(1024)
                        if not chunk:
                            break
                        got += chunk
                    result["acks"] = got

            server_thread = threading.Thread(target=fake_broker)
            server_thread.start()
            sub = client_connect(server.getsockname()[:2], "sub")
            server_thread.join(timeout=5.0)
        assert result["acks"] == bytes([0x40, 0x02, 0x00, 0x01, 0x40, 0x02, 0x00, 0x02])
        deadline = time.monotonic() + 5.0
        while not sub.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [m.payload for m in sub.poll()] == [b"a", b"b"]
        with pytest.raises(SessionClosed, match="protocol error"):
            sub.poll()
        sub.close()

    def test_poll_blocked_on_an_empty_inbox_raises_when_the_session_closes(self, broker):
        sub = client_connect(broker.address, "sub")
        raised = []

        def poll():
            try:
                sub.poll(timeout_s=5.0)
            except SessionClosed:
                raised.append(time.monotonic())

        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.05)
        closed_at = time.monotonic()
        sub.close()
        poller.join(timeout=5.0)
        assert raised and raised[0] - closed_at < 0.5


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


class TestThreadsPerConnection:
    def test_one_thread_per_connection_end(self):
        before = set(threading.enumerate())
        with broker_start(BrokerConfig()) as broker:
            with client_connect(broker.address, "pub", keep_alive_s=30) as pub:
                pub.publish("t", b"x", qos=1)
                pub.flush()
                started = set(threading.enumerate()) - before
                # the broker's accept loop and session handler, the client's reader
                assert len(started) == 3, sorted(t.name for t in started)

    @pytest.mark.parametrize("ack_timeout_s", [0, -1.0])
    def test_ack_timeout_must_be_positive(self, broker, ack_timeout_s):
        with pytest.raises(ValueError, match="ack_timeout_s"):
            client_connect(broker.address, "pub", ack_timeout_s=ack_timeout_s)
