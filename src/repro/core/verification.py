"""Verification routines — user-supplied and built-in.

The system developer provides per-instruction validity checks
(Section III-C): Blockplane replicas call them between PBFT's prepared
state and the commit vote, so a byzantine unit member cannot commit a
record that is not a legal state transition of the wrapped protocol
(Lemma 3).

The *receive verification routine* is built into Blockplane itself
(Section IV-C) and lives on the node that runs it,
:meth:`repro.core.node.BlockplaneNode._verify_reception`, with its
unit-proof test :meth:`~repro.core.node.BlockplaneNode.proof_valid`.
Its three checks:

1. the transmission record carries ``fi + 1`` valid signatures from the
   source participant's unit (plus ``fg`` participant proofs when geo
   tolerance is on),
2. the record was not received before (a committed duplicate is voted
   for idempotently and dropped at apply time), and
3. no earlier transmission from that source is missing (the previous
   pointer must equal the last received position; a predecessor still
   in flight defers the vote).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class VerificationRoutines:
    """Base class for user verification routines.

    Subclass and override the checks relevant to your protocol; the
    defaults accept everything (appropriate only for trusted demo
    workloads — the paper's Section III-C sketches what real routines
    look like for the counter protocol).

    Each Blockplane node gets its *own* routines instance. Stateful
    routines (ones that replay the wrapped protocol to judge
    transitions) override :meth:`bind` to subscribe to the node's log.
    """

    def bind(self, node) -> None:
        """Called once with the owning node after construction.

        Stateful routines typically do
        ``node.on_log_append.append(self._replay)`` here to maintain a
        deterministic copy of the protocol state.
        """

    def verify_log_commit(
        self, value: Any, meta: Optional[Dict[str, Any]]
    ) -> bool:
        """Validate a ``log-commit`` record (a state change of ``P``).

        For example, a transaction-processing application would check
        here whether the transaction can commit.
        """
        return True

    def verify_send(
        self,
        message: Any,
        destination: str,
        meta: Optional[Dict[str, Any]],
    ) -> bool:
        """Validate a ``send`` (that the communication is warranted,
        e.g. a corresponding user request was actually received)."""
        return True

    def verify_received_payload(
        self, message: Any, source: str, meta: Optional[Dict[str, Any]]
    ) -> bool:
        """Optional extra application check on a received message, run
        *after* the built-in receive verification passes."""
        return True


class AcceptAll(VerificationRoutines):
    """Explicitly permissive routines (for tests and micro-benchmarks)."""

