"""Self-contained MQTT 3.1.1 subset: codec, client, embedded broker."""

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
    StartupError,
    SubAck,
    Subscribe,
    decode_packet,
    encode_packet,
)
from .topics import topic_matches, validate_topic_filter, validate_topic_name
from .client import ClientSession, client_connect
from .broker import Broker, BrokerConfig, broker_start

__all__ = [
    "ClientSession",
    "client_connect",
    "Broker",
    "BrokerConfig",
    "broker_start",
    "Connect",
    "ConnAck",
    "Publish",
    "PubAck",
    "Subscribe",
    "SubAck",
    "PingReq",
    "PingResp",
    "Disconnect",
    "NeedMoreBytes",
    "MqttError",
    "ProtocolError",
    "EncodeError",
    "SessionClosed",
    "DeliveryError",
    "StartupError",
    "encode_packet",
    "decode_packet",
    "topic_matches",
    "validate_topic_filter",
    "validate_topic_name",
]
