"""The user-space programming model: log-commit, read, send, receive.

This is the interface the paper's Section III-C defines. User protocols
are written as generator processes that ``yield`` these calls::

    api = deployment.api("C")

    def user_request(destination):
        yield api.log_commit("request info")
        yield api.send("the message", to=destination)

    def server():
        while True:
            message = yield api.receive()
            yield api.log_commit(("increment-counter", message))

Every call returns a :class:`~repro.sim.process.Future`; the value of a
resolved ``log_commit``/``send`` is the record's Local Log position, and
the value of a ``receive`` is the application message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.reads import ReadStrategy, required_responses
from repro.core.records import (
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
)
from repro.errors import ConfigurationError, Overloaded, VerificationFailed
from repro.sim.process import Future

if TYPE_CHECKING:
    from repro.core.unit import BlockplaneUnit

#: Size charged for a commit when the caller does not specify one (the
#: paper's default batch is 1000 bytes).
DEFAULT_PAYLOAD_BYTES = 1000


class BlockplaneAPI:
    """A participant's handle to its Blockplane unit.

    Commits are admission-controlled: when the deployment configures
    ``admission_max_in_flight``, at most that many ``log_commit``/
    ``send`` calls may be outstanding at once; further submissions are
    shed immediately with :class:`~repro.errors.Overloaded` instead of
    queueing without bound (open-loop backpressure).

    Args:
        unit: The participant's :class:`~repro.core.unit.BlockplaneUnit`.
    """

    def __init__(self, unit: BlockplaneUnit) -> None:
        self.unit = unit
        self.sim = unit.sim
        #: Commits currently outstanding (admission-control window).
        self.in_flight = 0
        #: Submissions shed by admission control since construction.
        self.shed_total = 0
        # Metric handles, resolved on first use instead of per commit.
        self._commit_latency = None
        self._commit_counters: dict = {}

    @property
    def participant(self) -> str:
        """The participant this API speaks for."""
        return self.unit.participant

    # ------------------------------------------------------------------
    # log-commit / read
    # ------------------------------------------------------------------
    def log_commit(
        self, value: Any, payload_bytes: Optional[int] = None
    ) -> Future:
        """Durably commit a state-change event to the Local Log.

        The returned future resolves with the entry's log position once
        the value survives the configured fault-tolerance level:
        PBFT commitment in the local unit, plus ``fg`` remote mirror
        proofs when geo tolerance is enabled.
        """
        self._admit()
        return self._tracked(
            self._commit_process(value, RECORD_LOG_COMMIT, None, payload_bytes)
        )

    def send(
        self, message: Any, to: str, payload_bytes: Optional[int] = None
    ) -> Future:
        """Send ``message`` to another participant.

        The future resolves with the communication record's log position
        once it is durably committed (the communication daemon ships it
        asynchronously from there — one wide-area hop).
        """
        if to == self.participant:
            raise ConfigurationError("cannot send() to ourselves")
        if to not in self.unit.directory.participants:
            raise ConfigurationError(f"unknown destination participant {to!r}")
        meta = {"destination": to}
        self._admit()
        return self._tracked(
            self._commit_process(message, RECORD_COMMUNICATION, meta, payload_bytes)
        )

    def _admit(self) -> None:
        """Admission gate: shed the submission (raise) at the window."""
        limit = self.unit.config.admission_max_in_flight
        if limit and self.in_flight >= limit:
            self.shed_total += 1
            obs = self.unit.obs
            if obs.enabled:
                obs.counter(
                    "bp_admission_shed_total", participant=self.participant
                ).inc()
            raise Overloaded(
                f"{self.participant}: {self.in_flight} commits in flight "
                f"(admission_max_in_flight={limit})"
            )

    def _tracked(self, process) -> Future:
        """Spawn a commit process and hold an admission slot until it
        settles (success, rejection, or timeout all release it)."""
        self.in_flight += 1
        future = self.sim.spawn(process)

        def _release(_completed: Future) -> None:
            self.in_flight -= 1

        future.add_done_callback(_release)
        return future

    def _commit_process(
        self,
        value: Any,
        record_type: str,
        meta: Optional[dict],
        payload_bytes: Optional[int],
    ):
        if payload_bytes is None:
            payload_bytes = DEFAULT_PAYLOAD_BYTES
        obs = self.unit.obs
        started = self.sim.now
        root = None
        trace_ctx = None
        if obs.sample_trace():
            # Root of the commit's end-to-end trace; everything below
            # (PBFT phases, daemon shipping, the WAN hop, the remote
            # receive-verification) hangs off this span. Sampled 1-in-N
            # when the hub sets trace_sample_every > 1.
            root = obs.begin_span(
                "commit", None, participant=self.participant,
                node=self.unit.gateway_node().node_id,
                record_type=record_type,
                destination=(meta or {}).get("destination", ""),
            )
            trace_ctx = obs.ctx_of(root)
        gateway = self.unit.gateway_node()
        committed = yield gateway.local_commit(
            value, record_type, meta, payload_bytes, trace_ctx=trace_ctx
        )
        position = yield gateway.position_future(committed.seq)
        if self.unit.config.f_geo > 0 and self.unit.geo is not None:
            yield self.unit.geo.proofs_for(position)
        if obs.enabled:
            latency = self._commit_latency
            if latency is None:
                latency = self._commit_latency = obs.histogram(
                    "commit_latency_ms", participant=self.participant,
                )
            now = self.sim.now
            latency.observe(now - started, at=now)
            counter = self._commit_counters.get(record_type)
            if counter is None:
                counter = self._commit_counters[record_type] = obs.counter(
                    "bp_commits_total", participant=self.participant,
                    record_type=record_type,
                )
            counter.value += 1.0
            if root is not None:
                obs.end_span(root, position=position)
        return position

    def read(
        self,
        position: int,
        strategy: ReadStrategy = ReadStrategy.READ_ONE,
    ) -> Future:
        """Read a Local Log entry with the chosen strategy.

        Resolves with the :class:`~repro.core.records.LogEntry`, or
        None if the position is unwritten (as agreed by the strategy's
        quorum).
        """
        if strategy is ReadStrategy.LINEARIZABLE:
            return self.sim.spawn(self._linearizable_read(position))
        gateway = self.unit.gateway_node()
        needed = required_responses(strategy, self.unit.config.f_independent)
        return gateway.read_quorum(position, needed)

    def _linearizable_read(self, position: int):
        gateway = self.unit.gateway_node()
        # Order the read against all writes by committing a marker.
        yield gateway.local_commit(
            ("__read_marker__", position), RECORD_LOG_COMMIT, None, 0
        )
        entry = yield gateway.read_quorum(position, 1)
        return entry

    def read_proven(self, position: int) -> Future:
        """Section VI-A's full read-1: entry plus a validity proof.

        The closest node serves the entry AND an ``fi + 1``-signature
        proof from the unit, which the caller validates — so even the
        serving node cannot forge *contents* (it can still deny
        existence; use :attr:`ReadStrategy.READ_QUORUM` against that).

        Resolves with ``(entry, proof)``; raises
        :class:`~repro.errors.VerificationFailed` if the proof does not
        validate.
        """
        return self.sim.spawn(self._proven_read(position))

    def _proven_read(self, position: int):
        gateway = self.unit.gateway_node()
        entry = yield gateway.read_quorum(position, 1)
        if entry is None:
            return None
        digest = entry.digest()
        proof = yield gateway.collect_local_signatures(
            position, digest, purpose="entry"
        )
        if not gateway.proof_valid(proof, digest, self.participant):
            raise VerificationFailed(
                f"entry proof for position {position} did not validate"
            )
        return (entry, proof)

    # ------------------------------------------------------------------
    # receive
    # ------------------------------------------------------------------
    def receive(self, source: Optional[str] = None) -> Future:
        """Return the next unread message (from ``source``, or anyone).

        Blocks (in process terms) until a message is available.
        """
        return self.unit.gateway_node().poll_reception(source)
