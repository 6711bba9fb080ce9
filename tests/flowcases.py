"""Corpus of malformed flow files; every entry must parse to a diagnostic."""

import json


def _flow(nodes, wires):
    return json.dumps({"nodes": nodes, "wires": wires})


def _node(node_id="n1", node_type="debug", config=None, **extra):
    raw = {"id": node_id, "type": node_type, "config": config or {}}
    raw.update(extra)
    return raw


def malformed_flows():
    """Return a list of (label, text) pairs, all invalid."""
    cases = [
        ("empty string", ""),
        ("whitespace", "   \n\t  "),
        ("not json", "nodes: [] wires: []"),
        ("half json", '{"nodes": ['),
        ("json number", "42"),
        ("json string", '"flow"'),
        ("json list", "[]"),
        ("json null", "null"),
        ("json true", "true"),
        ("top-level extra key", '{"nodes": [], "wires": [], "version": 2}'),
        ("nodes missing", '{"wires": []}'),
        ("nodes is object", '{"nodes": {}, "wires": []}'),
        ("nodes is string", '{"nodes": "none", "wires": []}'),
        ("wires is object", '{"nodes": [], "wires": {}}'),
        ("wires is string", '{"nodes": [], "wires": "a-b"}'),
        ("node not object", _flow(["debug"], [])),
        ("node is number", _flow([7], [])),
        ("node missing id", _flow([{"type": "debug"}], [])),
        ("node id empty", _flow([_node(node_id="")], [])),
        ("node id number", _flow([{"id": 3, "type": "debug"}], [])),
        ("node missing type", _flow([{"id": "a"}], [])),
        ("node type number", _flow([{"id": "a", "type": 9}], [])),
        ("unknown type typo", _flow([_node(node_type="pythn-function")], [])),
        ("unknown type dbug", _flow([_node(node_type="dbug")], [])),
        ("unknown type case", _flow([_node(node_type="Debug")], [])),
        ("unknown type inject", _flow([_node(node_type="inject")], [])),
        ("node extra key", _flow([_node(wires=[])], [])),
        ("node config list", _flow([{"id": "a", "type": "debug", "config": []}], [])),
        ("node config string", _flow([{"id": "a", "type": "debug", "config": "x"}], [])),
        ("duplicate ids", _flow([_node("a"), _node("a")], [])),
        ("mqtt-in no topic", _flow([_node("in", "mqtt-in")], [])),
        ("mqtt-in empty topic", _flow([_node("in", "mqtt-in", {"topic": ""})], [])),
        ("mqtt-in topic number", _flow([_node("in", "mqtt-in", {"topic": 5})], [])),
        ("mqtt-in extra config", _flow([_node("in", "mqtt-in", {"topic": "t", "qos": 1})], [])),
        ("interval period zero", _flow([_node("t", "interval-inject", {"period_ms": 0})], [])),
        ("interval period negative", _flow([_node("t", "interval-inject", {"period_ms": -5})], [])),
        ("interval period string", _flow([_node("t", "interval-inject", {"period_ms": "1s"})], [])),
        ("interval period float", _flow([_node("t", "interval-inject", {"period_ms": 0.5})], [])),
        ("interval period bool", _flow([_node("t", "interval-inject", {"period_ms": True})], [])),
        ("insert collection window", _flow([_node("s", "store-insert", {"collection": "window"})], [])),
        ("get-all collection window", _flow([_node("s", "store-get-all", {"collection": "window"})], [])),
        ("delete-all collection window", _flow([_node("s", "store-delete-all", {"collection": "window"})], [])),
        ("insert collection empty", _flow([_node("s", "store-insert", {"collection": ""})], [])),
        ("insert collection number", _flow([_node("s", "store-insert", {"collection": 1})], [])),
        ("insert unknown key", _flow([_node("s", "store-insert", {"capped": True})], [])),
        ("analyze bad rate", _flow([_node("a", "hrv-analyze", {"sample_rate_hz": 0})], [])),
        ("analyze rate string", _flow([_node("a", "hrv-analyze", {"sample_rate_hz": "hi"})], [])),
        ("analyze any rate", _flow([_node("a", "hrv-analyze", {"sample_rate_hz": 100})], [])),
        ("debug label number", _flow([_node("d", "debug", {"label": 4})], [])),
        ("report extra key", _flow([_node("r", "report", {"path": "x"})], [])),
        ("manual-inject extra key", _flow([_node("m", "manual-inject", {"payload": 1})], [])),
        ("wire not list", _flow([_node("a")], ["a-b"])),
        ("wire one element", _flow([_node("a")], [["a"]])),
        ("wire three elements", _flow([_node("a"), _node("b", "report")], [["a", "b", "c"]])),
        ("wire numeric endpoint", _flow([_node("a")], [[1, "a"]])),
        ("wire dangling from", _flow([_node("a", "report")], [["x", "a"]])),
        ("wire dangling to", _flow([_node("a", "manual-inject")], [["a", "x"]])),
        ("wire from debug sink", _flow([_node("d"), _node("r", "report")], [["d", "r"]])),
        ("wire from report sink", _flow([_node("r", "report"), _node("d")], [["r", "d"]])),
        (
            "wire into mqtt-in",
            _flow([_node("m", "manual-inject"), _node("in", "mqtt-in", {"topic": "t"})], [["m", "in"]]),
        ),
        (
            "wire into interval",
            _flow([_node("m", "manual-inject"), _node("t", "interval-inject")], [["m", "t"]]),
        ),
        (
            "wire into manual-inject",
            _flow([_node("d", "store-insert"), _node("m", "manual-inject")], [["d", "m"]]),
        ),
        (
            "wire cycle self",
            _flow(
                [_node("go", "manual-inject"), _node("keep", "store-insert")],
                [["go", "keep"], ["keep", "keep"]],
            ),
        ),
        (
            "wire cycle two nodes",
            _flow(
                [_node("go", "manual-inject"), _node("keep", "store-insert"), _node("fetch", "store-get-all")],
                [["go", "keep"], ["keep", "fetch"], ["fetch", "keep"]],
            ),
        ),
        (
            "wire cycle three nodes",
            _flow(
                [
                    _node("go", "manual-inject"),
                    _node("keep", "store-insert"),
                    _node("fetch", "store-get-all"),
                    _node("calc", "hrv-analyze"),
                    _node("out", "report"),
                ],
                [["go", "keep"], ["keep", "fetch"], ["fetch", "calc"], ["calc", "keep"], ["calc", "out"]],
            ),
        ),
        ("nul byte", '{"nodes": [\x00], "wires": []}'),
        ("deep nesting", "[" * 200 + "]" * 200),
    ]
    assert len(cases) >= 50
    return cases
