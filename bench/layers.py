"""The per-layer cost table, measured from outside.

Three instruments, none of which touches ``src/``:

* :class:`MessageTap` — a counting ``Network.add_drop_filter`` that
  always returns False, keyed by message class and same-site/cross-site;
* :func:`fold_profile` — ``cProfile`` self-time folded by
  ``repro.<package>`` file path, with built-in/stdlib self-time charged
  to the calling repro layer along the profile's caller edges;
* :func:`run_probes` — outside-timed loops over each layer's public
  functions (host time, informational).

Layers are named after the modules: ``sim`` (scheduler, processes,
nodes), ``net`` (``sim/network.py``), ``crypto``, ``codec``
(``core/codec.py`` + ``core/wire.py``), ``pbft``, ``core`` (node, API,
Local Log, …), ``daemon`` (``core/daemon.py``), ``obs``, ``apps``,
``workloads`` and ``other`` (this benchmark's own wrappers, anything
unattributed).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim", "net", "crypto", "codec", "pbft", "core", "daemon", "obs",
    "apps", "workloads", "other",
)

_FILE_LAYERS = {
    "sim/network.py": "net",
    "core/codec.py": "codec",
    "core/wire.py": "codec",
    "core/daemon.py": "daemon",
}
_PACKAGE_LAYERS = {
    "sim": "sim", "crypto": "crypto", "pbft": "pbft", "core": "core",
    "obs": "obs", "apps": "apps", "workloads": "workloads",
}

#: Cross-site frames kept for the codec probes.
_FRAME_SAMPLE = 512

_PBFT_KINDS = {
    "PrePrepare": "pbft.pre_prepare_per_op",
    "Prepare": "pbft.prepare_per_op",
    "Commit": "pbft.commit_per_op",
    "Checkpoint": "pbft.checkpoint_per_op",
}
_VIEW_CHANGE_KINDS = ("ViewChange", "NewView")
_CATCH_UP_KINDS = ("CatchUpRequest", "CatchUpResponse", "SnapshotResponse")
_DAEMON_KINDS = (
    "TransmissionMessage", "TransmissionAck", "GapQuery", "GapResponse",
    "SignRequest", "SignResponse",
)


# ----------------------------------------------------------------------
# Message tap
# ----------------------------------------------------------------------
class MessageTap:
    """Counts every message the network is asked to carry."""

    def __init__(self) -> None:
        #: (message class name, module, crosses sites) -> [msgs, bytes]
        self.counts: Dict[Tuple[str, str, bool], List[int]] = {}
        self.frames: List[Any] = []
        self._sends: set = set()
        self._site_of: Dict[str, str] = {}
        self._overhead = 0

    def attach(self, network) -> None:
        self._site_of = {
            node_id: node.site for node_id, node in network.nodes.items()
        }
        self._overhead = network.options.per_message_overhead_bytes
        network.add_drop_filter(self)

    def __call__(self, src: str, dst: str, message: Any) -> bool:
        wan = self._site_of[src] != self._site_of[dst]
        cls = type(message)
        key = (cls.__name__, cls.__module__, wan)
        entry = self.counts.get(key)
        if entry is None:
            entry = self.counts[key] = [0, 0]
        entry[0] += 1
        entry[1] += message.size_bytes() + self._overhead
        if wan and len(self.frames) < _FRAME_SAMPLE:
            self.frames.append(message)
        if cls.__name__ == "TransmissionMessage" and message.sealed is not None:
            record = message.sealed.record
            self._sends.add(
                (record.source, record.destination, record.source_position)
            )
        return False

    def table(self, ops: int) -> Dict[str, float]:
        """The tap's per-op metrics (all seed-deterministic)."""
        by_name: Dict[str, int] = {}
        pbft_msgs = wan_msgs = wan_bytes = 0
        for (name, module, wan), (msgs, nbytes) in self.counts.items():
            by_name[name] = by_name.get(name, 0) + msgs
            if module == "repro.pbft.messages":
                pbft_msgs += msgs
            if wan:
                wan_msgs += msgs
                wan_bytes += nbytes
        sends = len(self._sends)
        out = {"pbft.msgs_per_op": pbft_msgs / ops}
        for name, metric in _PBFT_KINDS.items():
            out[metric] = by_name.get(name, 0) / ops
        out["pbft.view_change_msgs"] = sum(
            by_name.get(name, 0) for name in _VIEW_CHANGE_KINDS)
        out["pbft.catch_up_msgs"] = sum(
            by_name.get(name, 0) for name in _CATCH_UP_KINDS)
        out["daemon.msgs_per_op"] = sum(
            by_name.get(name, 0) for name in _DAEMON_KINDS) / ops
        out["daemon.transmissions_per_send"] = (
            by_name.get("TransmissionMessage", 0) / sends if sends else 0.0)
        out["daemon.acks_per_send"] = (
            by_name.get("TransmissionAck", 0) / sends if sends else 0.0)
        out["net.wan_msgs_per_op"] = wan_msgs / ops
        out["net.wan_bytes_per_op"] = wan_bytes / ops
        return out


# ----------------------------------------------------------------------
# Profile folding
# ----------------------------------------------------------------------
class Profiled:
    """``around_run`` hook for ``run_once``: profile the simulation
    phase and time it with the host clock for the conservation check."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self.wall_s = 0.0

    def __call__(self, body: Callable[[], None]) -> None:
        started = time.perf_counter()
        self.profiler.enable()
        try:
            body()
        finally:
            self.profiler.disable()
            self.wall_s = time.perf_counter() - started


def _relative(filename: str, repro_root: str) -> Optional[str]:
    """``filename`` as a ``/``-separated path inside the repro package;
    None for files outside it."""
    if not filename.startswith(repro_root):
        return None
    return filename[len(repro_root):].lstrip(os.sep).replace(os.sep, "/")


def _layer_of_file(
    filename: str, repro_root: str, bench_root: str
) -> Optional[str]:
    """Layer of a repro source file, ``other`` for this benchmark's own
    files, None for built-ins and the stdlib."""
    if filename.startswith(bench_root):
        return "other"
    relative = _relative(filename, repro_root)
    if relative is None:
        return None
    layer = _FILE_LAYERS.get(relative)
    if layer is not None:
        return layer
    return _PACKAGE_LAYERS.get(relative.split("/", 1)[0], "other")


_CALL_COUNTS = {
    "crypto.sign_calls_per_op": (("crypto/signatures.py",), ("sign",)),
    "crypto.verify_calls_per_op": (("crypto/signatures.py",), ("verify",)),
    "crypto.stable_digest_calls_per_op": (
        ("crypto/digest.py",), ("stable_digest",)),
    "apps.verify_routine_calls_per_op": (
        ("core/verification.py", "apps/"),
        ("verify_log_commit", "verify_send", "verify_received_payload",
         "verify_received"),
    ),
}


def fold_profile(
    profiled: Profiled, repro_root: str, bench_root: str, ops: int
) -> Dict[str, float]:
    """Fold the profile into ``<layer>.self_us_per_op`` /
    ``<layer>.host_share`` plus the exact call counts."""
    stats = pstats.Stats(profiled.profiler).stats  # type: ignore[attr-defined]
    layer_of = {
        func: _layer_of_file(func[0], repro_root, bench_root)
        for func in stats
    }
    resolved: Dict[Any, Dict[str, float]] = {}

    def owners(func) -> Dict[str, float]:
        """Which layers a function's self-time is charged to: its own
        for repro code, its callers' (weighted by the self-time spent
        under each caller edge) for built-ins and the stdlib."""
        layer = layer_of.get(func)
        if layer is not None:
            return {layer: 1.0}
        known = resolved.get(func)
        if known is not None:
            return known
        resolved[func] = {"other": 1.0}  # recursion guard, no-caller roots
        callers = stats[func][4] if func in stats else {}
        weight = sum(edge[2] for edge in callers.values())
        if weight <= 0.0:
            return resolved[func]
        shares: Dict[str, float] = {}
        for caller, edge in callers.items():
            for name, fraction in owners(caller).items():
                shares[name] = shares.get(name, 0.0) + fraction * edge[2] / weight
        resolved[func] = shares
        return shares

    self_s = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0.0:
            continue
        for layer, fraction in owners(func).items():
            self_s[layer] += tt * fraction
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = 1e6 * self_s[layer] / ops
        out[f"{layer}.host_share"] = self_s[layer] / total if total else 0.0
    for metric, (paths, names) in _CALL_COUNTS.items():
        calls = 0
        for (filename, _line, name), entry in stats.items():
            if name in names:
                relative = _relative(filename, repro_root)
                if relative is not None and relative.startswith(paths):
                    calls += entry[1]
        out[metric] = calls / ops
    out["trace.conservation_residual"] = (
        abs(profiled.wall_s - total) / profiled.wall_s
        if profiled.wall_s else 1.0
    )
    return out


# ----------------------------------------------------------------------
# Probes of each layer's public functions
# ----------------------------------------------------------------------
def _per_call(fn: Callable[[], Any], calls: int) -> float:
    """Seconds per call over ``calls`` back-to-back invocations."""
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls


def run_probes(frames: List[Any]) -> Dict[str, float]:
    """Time each layer's public functions in isolation. ``frames`` are
    cross-site messages tapped from the traced run (may be empty)."""
    from repro.core.codec import decode_wire_bytes, encode_wire_bytes
    from repro.crypto.digest import cached_digest, stable_digest
    from repro.crypto.keys import KeyRegistry
    from repro.crypto.signatures import QuorumProof, sign, verify
    from repro.obs.hub import Observability
    from repro.sim.network import Network
    from repro.sim.node import Message, Node
    from repro.sim.simulator import Simulator
    from repro.sim.topology import single_dc_topology

    out: Dict[str, float] = {}

    events = 20_000
    sim = Simulator(seed=0)
    started = time.perf_counter()
    for index in range(events):
        sim.schedule(float(index % 7), int)
    sim.run()
    out["sim.schedule_run_ns_per_event"] = (
        1e9 * (time.perf_counter() - started) / events)

    class Ping(Message):
        pass

    class Sink(Node):
        def handle_ping(self, msg, src):
            pass

    messages = 5_000
    sim = Simulator(seed=0)
    network = Network(sim, single_dc_topology())
    Sink(sim, network, "a", "DC")
    Sink(sim, network, "b", "DC")
    ping = Ping(payload_bytes=96)
    started = time.perf_counter()
    for _ in range(messages):
        network.send("a", "b", ping)
    sim.run()
    out["net.send_deliver_us_per_msg"] = (
        1e6 * (time.perf_counter() - started) / messages)

    value = ("op", 7, "x" * 96, (1, 2, 3))
    out["crypto.stable_digest_us"] = 1e6 * _per_call(
        lambda: stable_digest(value), 2_000)
    cached_digest(value)
    out["crypto.cached_digest_us"] = 1e6 * _per_call(
        lambda: cached_digest(value), 20_000)
    registry = KeyRegistry(seed=0)
    registry.register_all(["n0", "n1"])
    digests = [stable_digest(index) for index in range(2_000)]
    started = time.perf_counter()
    signatures = [sign(registry, "n0", digest) for digest in digests]
    out["crypto.sign_us"] = 1e6 * (time.perf_counter() - started) / len(digests)
    started = time.perf_counter()
    for signature, digest in zip(signatures, digests):
        verify(registry, signature, digest)
    out["crypto.verify_us"] = 1e6 * (time.perf_counter() - started) / len(digests)
    proofs = [
        QuorumProof.build(digest, (sign(registry, "n0", digest),
                                   sign(registry, "n1", digest)))
        for digest in (stable_digest(("p", index)) for index in range(1_000))
    ]
    started = time.perf_counter()
    for proof in proofs:
        proof.is_valid(registry, 2)
    out["crypto.proof_check_us"] = (
        1e6 * (time.perf_counter() - started) / len(proofs))

    if frames:
        started = time.perf_counter()
        encoded = [encode_wire_bytes(frame) for frame in frames]
        out["codec.encode_us_per_frame"] = (
            1e6 * (time.perf_counter() - started) / len(frames))
        started = time.perf_counter()
        for data in encoded:
            decode_wire_bytes(data)
        out["codec.decode_us_per_frame"] = (
            1e6 * (time.perf_counter() - started) / len(frames))
    else:
        out["codec.encode_us_per_frame"] = 0.0
        out["codec.decode_us_per_frame"] = 0.0

    obs = Observability(enabled=True, tracing=True, forensics=True)
    out["obs.journal_record_us"] = 1e6 * _per_call(
        lambda: obs.event("probe", participant="A", node="A-0", position=1),
        20_000)
    out["obs.span_us"] = 1e6 * _per_call(
        lambda: obs.end_span(obs.begin_span("probe", None, participant="A")),
        20_000)
    return out
