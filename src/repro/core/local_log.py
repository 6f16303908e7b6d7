"""The Local Log — one participant's ordered, replicated event log.

Every Blockplane node keeps a copy (``L_i`` in the paper); entries are
appended only through PBFT execution, so all honest copies agree
(Lemma 1). On top of the raw sequence the log maintains the one index
the middleware needs constantly: per-destination chains of
communication records (what the communication daemons walk).

What a node has *received* is not indexed here: each
:class:`~repro.core.node.BlockplaneNode` keeps one reception record per
source and answers duplicate and gap questions from it.

The paper treats the log as append-only forever; this implementation
adds the production machinery that keeps memory bounded under
sustained load. Positions stay global and 1-based for the log's whole
lifetime, but the *retained* window starts at :attr:`base_position`:
:meth:`truncate_before` folds everything below a stable checkpoint's
watermark into a :class:`~repro.core.records.LogSnapshot` (digest
chain head + communication chain heads; the node supplies the reception
floors), and :meth:`restore` installs such a snapshot on a recovering
replica so it can catch up from the retained suffix instead of
replaying from position 1. Chain-pointer questions keep answering
identically across the truncation boundary.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.core.records import (
    LogEntry,
    LogSnapshot,
    RECORD_COMMUNICATION,
    RECORD_RECEIVED,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.digest import formula_digest, stable_digest
from repro.errors import LogError
from repro.obs.hub import DISABLED

#: Chain value "before the first entry" — shared by every honest log.
GENESIS_CHAIN = stable_digest(("local-log-genesis",))


class LocalLog:
    """A log of :class:`LogEntry` with its communication-chain index
    and a truncatable retained window.

    Args:
        participant: Name of the owning participant (for errors/traces).
        obs: Observability hub (defaults to the shared disabled hub).
        node_id: Owning node's id, stamped on flight-recorder journal
            events ("" for standalone logs).
    """

    def __init__(self, participant: str, obs=None, node_id: str = "") -> None:
        self.participant = participant
        self.obs = obs if obs is not None else DISABLED
        self.node_id = node_id
        self.entries: List[LogEntry] = []
        #: First retained position; entries below it are folded into
        #: the snapshot state (1 = nothing folded yet).
        self.base_position = 1
        #: Digest chain head over the folded prefix.
        self.base_chain = GENESIS_CHAIN
        # Chain value *after* each retained entry (parallel to entries).
        self._chain_values: List[str] = []
        self._comm_by_destination: Dict[str, List[int]] = {}
        # Last *folded* communication position per destination: the
        # chain predecessor of the first retained comm record.
        self._comm_heads: Dict[str, int] = {}
        # Metric handles resolved once per record type instead of per
        # append (a registry lookup canonicalizes the label set every
        # time; appends are the hottest metric site after the network).
        self._append_counters: Dict[str, Any] = {}
        self._length_gauge = None
        # Same for the flight recorder: the journal (None when forensics
        # is off) with one ``log.append`` header per arg shape, and this
        # participant's position -> trace map.
        journal = self._journal = self.obs.journal if self.obs.forensics else None
        if journal is not None:
            self._append_headers = tuple(
                journal.header("log.append", participant, node_id, names)
                for names in (
                    ("position", "record_type", "destination"),
                    ("position", "record_type", "source", "source_position"),
                    ("position", "record_type"),
                )
            )
        self._entry_traces: Dict[int, Any] = (
            self.obs.entry_traces(participant) if self.obs.enabled else {}
        )

    def __len__(self) -> int:
        """Total positions ever written (folded + retained)."""
        return self.base_position - 1 + len(self.entries)

    def __iter__(self) -> Iterator[LogEntry]:
        """Iterate the *retained* entries."""
        return iter(self.entries)

    @property
    def next_position(self) -> int:
        """Position the next appended entry will take (1-based)."""
        return self.base_position + len(self.entries)

    @property
    def last_position(self) -> int:
        """Highest position ever written (0 for an empty log)."""
        return len(self)

    @property
    def retained_count(self) -> int:
        """How many entries are currently held in memory."""
        return len(self.entries)

    @property
    def entry_chain(self) -> str:
        """Digest chain head over every entry ever appended."""
        return self._chain_values[-1] if self._chain_values else self.base_chain

    def covers(self, position: int) -> bool:
        """Whether the entry at ``position`` is retained (readable)."""
        return self.base_position <= position <= len(self)

    def chain_at(self, position: int) -> str:
        """Chain value after applying entries ``1 .. position``.

        ``position == base_position - 1`` answers the folded boundary;
        anything below that is gone.

        Raises:
            LogError: If the chain value is not available.
        """
        if position == self.base_position - 1:
            return self.base_chain
        if not self.covers(position):
            raise LogError(
                f"{self.participant}: no chain value at {position} "
                f"(retained window {self.base_position}..{len(self)})"
            )
        return self._chain_values[position - self.base_position]

    def append(
        self,
        record_type: str,
        value: Any,
        meta: Optional[Dict[str, Any]] = None,
        payload_bytes: int = 0,
    ) -> LogEntry:
        """Append an entry (called from PBFT execution only)."""
        entry = LogEntry(
            position=self.next_position,
            record_type=record_type,
            value=value,
            meta=meta,
            payload_bytes=payload_bytes,
        )
        previous_chain = (
            self._chain_values[-1] if self._chain_values else self.base_chain
        )
        self.entries.append(entry)
        self._chain_values.append(
            formula_digest((previous_chain, entry.digest()))
        )
        if record_type == RECORD_COMMUNICATION:
            destination = entry.destination
            if destination is None:
                raise LogError(
                    "communication record appended without a destination"
                )
            self._comm_by_destination.setdefault(destination, []).append(
                entry.position
            )
        if self.obs.enabled:
            counter = self._append_counters.get(record_type)
            if counter is None:
                counter = self.obs.counter(
                    "log_appends_total",
                    participant=self.participant,
                    record_type=record_type,
                )
                self._append_counters[record_type] = counter
            counter.value += 1.0
            gauge = self._length_gauge
            if gauge is None:
                gauge = self._length_gauge = self.obs.gauge(
                    "log_length", participant=self.participant
                )
            gauge.value = float(len(self.entries))
            journal = self._journal
            if journal is not None:
                position = entry.position
                trace = self._entry_traces.get(position)
                comm, received, plain = self._append_headers
                if record_type == RECORD_COMMUNICATION:
                    row = (position, record_type, entry.destination)
                    journal.record(comm, trace, row)
                elif record_type == RECORD_RECEIVED and isinstance(
                    value, SealedTransmission
                ):
                    sent = value.record
                    row = (position, record_type, sent.source, sent.source_position)
                    journal.record(received, trace, row)
                else:
                    journal.record(plain, trace, (position, record_type))
        return entry

    def read(self, position: int) -> LogEntry:
        """Return the entry at a 1-based position.

        Raises:
            LogError: If the position was never written, or has been
                folded into a snapshot by :meth:`truncate_before`.
        """
        if position < self.base_position:
            raise LogError(
                f"{self.participant}: position {position} folded into "
                f"snapshot (retained from {self.base_position})"
            )
        if not 1 <= position <= len(self):
            raise LogError(
                f"{self.participant}: position {position} not in log "
                f"(length {len(self)})"
            )
        return self.entries[position - self.base_position]

    # ------------------------------------------------------------------
    # Snapshots and truncation
    # ------------------------------------------------------------------
    def snapshot(self, reception_floors: tuple = ()) -> LogSnapshot:
        """The snapshot that would result from folding *everything*
        written so far (what a checkpoint at the current watermark
        certifies), carrying the owning node's ``reception_floors``."""
        comm_heads = dict(self._comm_heads)
        for destination, positions in self._comm_by_destination.items():
            if positions:
                comm_heads[destination] = positions[-1]
        return LogSnapshot(
            participant=self.participant,
            base_position=self.next_position,
            entry_chain=self.entry_chain,
            comm_heads=tuple(sorted(comm_heads.items())),
            reception_floors=reception_floors,
        )

    def truncate_before(self, position: int) -> LogSnapshot:
        """Fold every entry below ``position`` into the base snapshot.

        Communication records fold into per-destination chain heads;
        received records need no folding (the node, not the log, tracks
        receptions). The digest chain head advances so honest logs
        remain comparable. Returns the snapshot describing the new base.

        Raises:
            LogError: If ``position`` lies beyond the next position
                (cannot truncate what was never written).
        """
        if position > self.next_position:
            raise LogError(
                f"{self.participant}: cannot truncate before {position}, "
                f"next position is {self.next_position}"
            )
        if position <= self.base_position:
            return self.base_snapshot()
        drop = position - self.base_position
        for entry in self.entries[:drop]:
            if entry.record_type == RECORD_COMMUNICATION:
                destination = entry.destination
                self._comm_heads[destination] = entry.position
                positions = self._comm_by_destination.get(destination)
                if positions and positions[0] == entry.position:
                    positions.pop(0)
        self.base_chain = self._chain_values[drop - 1]
        del self.entries[:drop]
        del self._chain_values[:drop]
        self.base_position = position
        if self.obs.enabled:
            gauge = self._length_gauge
            if gauge is None:
                gauge = self._length_gauge = self.obs.gauge(
                    "log_length", participant=self.participant
                )
            gauge.value = float(len(self.entries))
            self.obs.forget_entry_traces(self.participant, position)
            if self.obs.forensics:
                self.obs.event(
                    "log.truncate", participant=self.participant,
                    node=self.node_id, base_position=self.base_position,
                    retained=len(self.entries),
                )
        return self.base_snapshot()

    def base_snapshot(self) -> LogSnapshot:
        """The snapshot describing the current folded prefix."""
        return LogSnapshot(
            participant=self.participant,
            base_position=self.base_position,
            entry_chain=self.base_chain,
            comm_heads=tuple(sorted(self._comm_heads.items())),
        )

    def restore(self, snapshot: LogSnapshot) -> None:
        """Install a certified snapshot as this log's entire history
        (recovering replica state transfer). Discards any retained
        entries — the caller re-applies the suffix through PBFT
        catch-up afterwards."""
        if snapshot.participant != self.participant:
            raise LogError(
                f"snapshot for {snapshot.participant!r} offered to "
                f"{self.participant!r}"
            )
        self.entries = []
        self._chain_values = []
        self.base_position = snapshot.base_position
        self.base_chain = snapshot.entry_chain
        self._comm_by_destination = {}
        self._comm_heads = dict(snapshot.comm_heads)
        if self.obs.enabled and self.obs.forensics:
            self.obs.event(
                "log.restore", participant=self.participant,
                node=self.node_id, base_position=self.base_position,
            )

    # ------------------------------------------------------------------
    # Communication-record chain (used by daemons)
    # ------------------------------------------------------------------
    def communication_positions(self, destination: str) -> List[int]:
        """Positions of the *retained* communication records to
        ``destination`` (folded ones live on as
        :meth:`folded_communication_head`)."""
        return list(self._comm_by_destination.get(destination, []))

    def folded_communication_head(self, destination: str) -> Optional[int]:
        """Position of the last communication record to ``destination``
        folded into the snapshot, or None."""
        return self._comm_heads.get(destination)

    def previous_communication_position(
        self, destination: str, position: int
    ) -> Optional[int]:
        """Position of the communication record to ``destination``
        immediately before ``position`` (the chain pointer of
        Algorithm 2), or None if it is the first. Survives truncation:
        the first retained record points at the folded chain head."""
        previous = None
        for comm_position in self._comm_by_destination.get(destination, []):
            if comm_position >= position:
                break
            previous = comm_position
        if previous is None:
            head = self._comm_heads.get(destination)
            if head is not None and head < position:
                return head
        return previous

    def transmission_record(self, entry: LogEntry) -> TransmissionRecord:
        """The wide-area envelope of a communication ``entry`` (``P`` in
        Algorithm 2): what the daemon ships and what every unit member
        re-derives from its own copy before attesting it."""
        destination = entry.destination
        return TransmissionRecord(
            source=self.participant,
            destination=destination,
            message=entry.value,
            source_position=entry.position,
            prev_position=self.previous_communication_position(
                destination, entry.position
            ),
            payload_bytes=entry.payload_bytes,
        )
