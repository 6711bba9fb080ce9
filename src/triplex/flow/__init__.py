"""Directed-graph flow runtime: parse a flow file, wire nodes, run it."""

from .engine import FlowHandle, FlowRuntime, run_flow
from .parser import FlowGraph, NodeSpec, ParseError, load_flow, parse_flow

__all__ = [
    "FlowGraph",
    "NodeSpec",
    "ParseError",
    "parse_flow",
    "load_flow",
    "FlowRuntime",
    "FlowHandle",
    "run_flow",
]
