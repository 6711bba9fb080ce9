"""Flow file parsing and validation.

A flow file is JSON with top-level "nodes" (list of {id, type, config})
and "wires" (list of [from, to] id pairs). Parsing is total: any input,
valid JSON or not, yields either a FlowGraph or a ParseError that names
the offending node, wire, or key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class ParseError(Exception):
    pass


SOURCE_TYPES = {"mqtt-in", "interval-inject", "manual-inject"}
SINK_TYPES = {"debug", "report"}

# config schema per node type: key -> (required, validator, description)
_CONFIG_SCHEMAS = {
    "mqtt-in": {
        "topic": (True, lambda v: isinstance(v, str) and v != "", "non-empty string"),
    },
    # every store node acts on the run's one capped window
    "store-insert": {},
    "store-get-all": {},
    "store-delete-all": {},
    # analyzes at the run's sample rate, like the other pipelines
    "hrv-analyze": {},
    "interval-inject": {
        "period_ms": (
            False,
            lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0,
            "positive integer",
        ),
    },
    "manual-inject": {},
    "debug": {
        "label": (False, lambda v: isinstance(v, str), "string"),
    },
    "report": {},
}

NODE_TYPES = frozenset(_CONFIG_SCHEMAS)


@dataclass(frozen=True)
class NodeSpec:
    id: str
    type: str
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FlowGraph:
    nodes: tuple
    wires: tuple  # of (from_id, to_id)

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def out_wires(self, node_id: str) -> list:
        """Destination ids for node_id, in wire-declaration order."""
        return [to for frm, to in self.wires if frm == node_id]


def _parse_node(raw, pos) -> NodeSpec:
    if not isinstance(raw, dict):
        raise ParseError(f"node #{pos}: expected an object, got {type(raw).__name__}")
    node_id = raw.get("id")
    if not isinstance(node_id, str) or not node_id:
        raise ParseError(f"node #{pos}: 'id' must be a non-empty string")
    ntype = raw.get("type")
    if not isinstance(ntype, str):
        raise ParseError(f"node {node_id!r}: 'type' must be a string")
    if ntype not in NODE_TYPES:
        raise ParseError(f"node {node_id!r}: unknown node type {ntype!r}")
    unknown_keys = set(raw) - {"id", "type", "config"}
    if unknown_keys:
        raise ParseError(f"node {node_id!r}: unexpected keys {sorted(unknown_keys)}")
    config = raw.get("config", {})
    if not isinstance(config, dict):
        raise ParseError(f"node {node_id!r}: 'config' must be an object")

    schema = _CONFIG_SCHEMAS[ntype]
    for key in config:
        if key not in schema:
            raise ParseError(
                f"node {node_id!r}: config key {key!r} not allowed for type {ntype!r}"
            )
    for key, (required, check, description) in schema.items():
        if key not in config:
            if required:
                raise ParseError(f"node {node_id!r}: type {ntype!r} requires config key {key!r}")
            continue
        if not check(config[key]):
            raise ParseError(f"node {node_id!r}: config key {key!r} must be a {description}")
    return NodeSpec(id=node_id, type=ntype, config=dict(config))


def parse_flow(text: str) -> FlowGraph:
    """Parse and validate one flow file's content."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"top level must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"nodes", "wires"}
    if unknown:
        raise ParseError(f"unexpected top-level keys {sorted(unknown)}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise ParseError("'nodes' must be a list")
    raw_wires = doc.get("wires", [])
    if not isinstance(raw_wires, list):
        raise ParseError("'wires' must be a list")

    nodes = []
    seen = {}
    for pos, raw in enumerate(raw_nodes):
        node = _parse_node(raw, pos)
        if node.id in seen:
            raise ParseError(f"duplicate node id {node.id!r}")
        seen[node.id] = node
        nodes.append(node)

    wires = []
    for pos, raw in enumerate(raw_wires):
        if not isinstance(raw, list) or len(raw) != 2:
            raise ParseError(f"wire #{pos}: expected a [from, to] pair")
        frm, to = raw
        for endpoint in (frm, to):
            if not isinstance(endpoint, str):
                raise ParseError(f"wire #{pos}: endpoints must be node id strings")
            if endpoint not in seen:
                raise ParseError(f"wire #{pos}: references missing node id {endpoint!r}")
        if seen[frm].type in SINK_TYPES:
            raise ParseError(
                f"wire #{pos}: {seen[frm].type!r} node {frm!r} is a sink and cannot emit"
            )
        if seen[to].type in SOURCE_TYPES:
            raise ParseError(
                f"wire #{pos}: {seen[to].type!r} node {to!r} is a source and accepts no input"
            )
        wires.append((frm, to))

    _reject_cycles(wires)
    return FlowGraph(nodes=tuple(nodes), wires=tuple(wires))


def _reject_cycles(wires):
    # drop the wires out of nodes that no wire feeds, until none are left
    while wires:
        fed = {to for _frm, to in wires}
        rest = [(frm, to) for frm, to in wires if frm in fed]
        if len(rest) == len(wires):
            # each wire left starts where a wire left ends: walking back finds a cycle
            back = {to: frm for frm, to in wires}
            node_id = wires[0][0]
            for _ in wires:
                node_id = back[node_id]
            raise ParseError(f"wires form a cycle through node {node_id!r}")
        wires = rest


def load_flow(path) -> FlowGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_flow(fh.read())
