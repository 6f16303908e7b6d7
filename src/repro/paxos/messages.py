"""Paxos wire messages of the flat host (:mod:`repro.paxos.node`).

Ballots are :data:`repro.paxos.core.Ballot` ``(round, node_id)`` tuples.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.paxos.core import Ballot
from repro.sim.node import Message


@dataclasses.dataclass(slots=True)
class PaxosPrepare(Message):
    """Phase-1a: a proposer asks acceptors to promise a ballot."""

    ballot: Ballot = (0, "")


@dataclasses.dataclass(slots=True)
class Promise(Message):
    """Phase-1b: an acceptor promises and reports accepted values.

    ``accepted`` maps slot → (ballot, value) for every slot this
    acceptor has accepted.
    """

    ballot: Ballot = (0, "")
    accepted: Dict[int, Tuple[Ballot, Any]] = dataclasses.field(
        default_factory=dict
    )
    acceptor: str = ""


@dataclasses.dataclass(slots=True)
class Accept(Message):
    """Phase-2a: the leader proposes a value for a slot."""

    ballot: Ballot = (0, "")
    slot: int = 0
    value: Any = None


@dataclasses.dataclass(slots=True)
class Accepted(Message):
    """Phase-2b: an acceptor accepted the proposal."""

    ballot: Ballot = (0, "")
    slot: int = 0
    acceptor: str = ""


@dataclasses.dataclass(slots=True)
class Nack(Message):
    """An acceptor rejects a stale ballot and reveals the newer one."""

    ballot: Ballot = (0, "")
    promised: Ballot = (0, "")
    slot: Optional[int] = None
