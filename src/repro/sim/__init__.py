"""Deterministic discrete-event simulation substrate.

The :mod:`repro.sim` package replaces the paper's four-datacenter AWS
testbed. It provides a virtual clock in milliseconds, an event heap with
deterministic tie-breaking, generator-based processes (so protocol code
reads like the paper's blocking pseudocode), a wide-area network model
driven by the paper's Table I RTT matrix, a NIC bandwidth serialization
model, fault injection, and post-run latency/throughput aggregation.
Each mechanism exists once: one event loop behind ``run`` / ``step`` /
``run_until_resolved``, and one transport path (``Network.broadcast``; a
unicast is a one-destination broadcast).
It holds no telemetry store: protocol code reports to :mod:`repro.obs`.
"""

from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.sim.process import Future, Process, all_of, any_of
from repro.sim.network import Network, NetworkOptions
from repro.sim.topology import (
    Site,
    Topology,
    AWS_SITES,
    AWS_RTT_MS,
    aws_four_dc_topology,
    single_dc_topology,
    symmetric_topology,
)
from repro.sim.node import Message, Node
from repro.sim.faults import FaultInjector
from repro.sim.metrics import LatencySeries

__all__ = [
    "Event",
    "Simulator",
    "Future",
    "Process",
    "all_of",
    "any_of",
    "Network",
    "NetworkOptions",
    "Site",
    "Topology",
    "AWS_SITES",
    "AWS_RTT_MS",
    "aws_four_dc_topology",
    "single_dc_topology",
    "symmetric_topology",
    "Message",
    "Node",
    "FaultInjector",
    "LatencySeries",
]
