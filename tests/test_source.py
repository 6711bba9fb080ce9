import json
import time

from triplex.mqtt import BrokerConfig, broker_start, client_connect
from triplex.source import MqttSource


class TestMqttSource:
    def test_counts_each_message_after_its_callback(self):
        seen = []
        with broker_start(BrokerConfig()) as broker:
            source = MqttSource(
                broker.address,
                "hr/p1",
                lambda record: seen.append(("record", record, source.delivered)),
                lambda payload, exc: seen.append(("error", payload, source.delivered)),
                name="test-source",
            )
            try:
                with client_connect(broker.address, "sensor") as pub:
                    pub.publish("hr/p1", b"\xff not json", qos=1)
                    pub.publish("hr/p1", json.dumps({"seq": 1}).encode(), qos=1)
                deadline = time.monotonic() + 5.0
                while source.delivered < 2 and time.monotonic() < deadline:
                    time.sleep(0.02)
            finally:
                source.stop()
        assert seen == [("error", b"\xff not json", 0), ("record", {"seq": 1}, 1)]
        assert (source.delivered, source.decode_errors) == (2, 1)
        assert not source.thread.is_alive()
