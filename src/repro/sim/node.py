"""Actor-style nodes with typed message handlers and timers.

Every machine in a deployment — PBFT replicas, Paxos nodes, Blockplane
nodes, baseline servers — derives from :class:`Node`. Incoming messages
are dispatched to ``handle_<kind>`` methods where ``<kind>`` is the
message class's :attr:`Message.kind` (a snake_case name derived from the
class name by default)::

    class Ping(Message):
        pass

    class EchoServer(Node):
        def handle_ping(self, msg, src):
            self.send(src, Pong())
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Callable, ClassVar, Iterable, TYPE_CHECKING

from repro.errors import ProtocolError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network
    from repro.sim.simulator import Simulator


def _snake_case(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


@dataclasses.dataclass(slots=True)
class Message:
    """Base class for all simulated protocol messages.

    Subclasses are dataclasses; payload-bearing messages should set
    :attr:`payload_bytes` so the network's bandwidth model charges for
    them. ``kind`` (the handler-dispatch name) defaults to the
    snake_cased class name and may be overridden as a class attribute.
    """

    #: Handler dispatch name; set automatically per subclass.
    kind: ClassVar[str] = "message"

    #: Bytes of application payload carried (0 for pure control traffic).
    payload_bytes: int = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # Two-arg super: ``slots=True`` makes the dataclass decorator
        # replace the class object, so the zero-arg form's ``__class__``
        # cell would still point at the undecorated class.
        super(Message, cls).__init_subclass__(**kwargs)
        if "kind" not in cls.__dict__:
            cls.kind = _snake_case(cls.__name__)

    def size_bytes(self) -> int:
        """Wire size charged against NIC bandwidth (excl. framing)."""
        return self.payload_bytes


class Node:
    """A simulated machine: site placement, mailbox, timers, crash state.

    Args:
        sim: The owning simulator.
        network: Transport to register with.
        node_id: Globally unique identifier (e.g. ``"C-1"``).
        site: Name of the datacenter this node lives in.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        node_id: str,
        site: str,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.site = site
        self.crashed = False
        # Handler-dispatch memo: message kind → bound handler. Message
        # kinds are class-level constants, so the ``handle_<kind>``
        # lookup resolves to the same bound method every time; caching
        # it removes an f-string build plus a getattr from every
        # delivered message (the single hottest dispatch in a run).
        self._dispatch: dict = {}
        network.register(self)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst_id: str, message: Message) -> None:
        """Send a message to another node (ignored while crashed)."""
        if self.crashed:
            return
        self.network.send(self.node_id, dst_id, message)

    def broadcast(self, dst_ids: Iterable[str], message: Message) -> None:
        """Send the same message to several nodes (self is skipped)."""
        if self.crashed:
            return
        targets = [dst_id for dst_id in dst_ids if dst_id != self.node_id]
        if targets:
            self.network.broadcast(self.node_id, targets, message)

    def on_message(self, message: Message, src_id: str) -> None:
        """Dispatch ``message`` to ``handle_<kind>``.

        Entry point used by the network (which never delivers to a
        crashed node). Override for custom routing. Unknown messages raise
        :class:`ProtocolError` — silent drops hide protocol bugs.
        """
        kind = message.kind
        handler = self._dispatch.get(kind)
        if handler is None:
            handler = getattr(self, f"handle_{kind}", None)
            if handler is None:
                raise ProtocolError(
                    f"{type(self).__name__} {self.node_id} has no handler "
                    f"for message kind {kind!r}"
                )
            self._dispatch[kind] = handler
        handler(message, src_id)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a callback that is suppressed if the node is crashed
        when it fires (crashed machines do not execute local work)."""

        def _guarded() -> None:
            if not self.crashed:
                fn(*args)

        return self.sim.schedule(delay, _guarded)

    # ------------------------------------------------------------------
    # Failure control
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Benign crash: stop sending, receiving, and firing timers."""
        self.crashed = True
        self._journal_lifecycle("node.crash")

    def recover(self) -> None:
        """Return the node to service; subclasses refresh state here."""
        self.crashed = False
        self._journal_lifecycle("node.recover")
        self.on_recover()

    def _journal_lifecycle(self, kind: str) -> None:
        """Journal a crash/recovery into the flight recorder when the
        subclass carries an observability hub (the base simulation node
        has none; instrumented protocol nodes all do). Benign crashes
        must be journaled so the forensics auditor never mistakes a
        crashed-and-recovered node for a byzantine silent one."""
        obs = getattr(self, "obs", None)
        if obs is not None and obs.forensics:
            obs.event(kind, participant=self.site, node=self.node_id)

    def on_recover(self) -> None:
        """Hook for subclasses: run state catch-up after recovery."""
