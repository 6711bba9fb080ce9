"""Directed-graph flow runtime: parse a flow file, wire nodes, run it."""

from .engine import FlowHandle, FlowMessage, FlowRuntime, run_flow
from .parser import (
    NODE_TYPES,
    SINK_TYPES,
    SOURCE_TYPES,
    FlowGraph,
    NodeSpec,
    ParseError,
    load_flow,
    parse_flow,
)

__all__ = [
    "FlowGraph",
    "NodeSpec",
    "ParseError",
    "parse_flow",
    "load_flow",
    "FlowMessage",
    "FlowRuntime",
    "FlowHandle",
    "run_flow",
    "NODE_TYPES",
    "SOURCE_TYPES",
    "SINK_TYPES",
]
