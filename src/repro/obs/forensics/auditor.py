"""The online auditor — journal events in, attributed findings out.

:class:`OnlineAuditor` subscribes to a flight-recorder
:class:`~repro.obs.journal.EventJournal` and maintains compact
incremental state about the protocol run: who belongs to which unit,
what every leader proposed, what every replica voted, which gateway
appended which communication record and who actually shipped it. From
that state it derives *attributed* findings (see
:mod:`repro.obs.forensics.findings`):

* **equivocation** — two distinct proposal digests for one
  ``(unit, view, seq)`` slot, or two distinct vote digests from one
  replica for one slot/phase;
* **vote-mismatch** — a replica voted a digest no pre-prepare ever
  carried for that slot (checked at report time, after every proposal
  had a chance to arrive);
* **spoofed-vote / impersonation / forged-signature** — identity and
  MAC failures caught by receivers and signature collectors;
* **promiscuous-signature** — a node attested a registered canary
  digest that no honest log can substantiate (see
  :mod:`repro.obs.forensics.probes`);
* **silent-replica** — zero protocol participation from a member of an
  active unit that never crashed (benign crashes are journaled, so a
  crashed-and-recovered node is never mistaken for byzantine);
* **withheld-transmissions** — the gateway committed communication
  records for a destination, never shipped them, and a promoted reserve
  had to ship them instead (Section IV-C's attack, attributed per
  source→destination daemon route);
* **tampered-transmission / chain-gap** — link-level health findings
  (ingress proof rejections, undelivered chain suffixes);
* **view-change-storm / mirror-divergence** — site-level health.

The auditor is *passive*: it only reads events. It never schedules
simulator work, consumes randomness, or reads wall clocks, so auditing
a run cannot perturb it. Machinery that merely runs *on* a node
(reserve-daemon probe timers keep firing even on a byzantine-silent
host) deliberately does not count as that node's protocol
participation — only votes, proposals, signature responses, log
applies, and shipments do.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.forensics.findings import (
    AuditReport,
    FINDING_SCORES,
    Finding,
    sort_findings,
)
from repro.obs.journal import EventJournal, ProtocolEvent

#: A unit must have committed at least this many Local Log entries
#: before zero participation becomes suspicious (an idle unit gives a
#: silent node nothing to be silent about).
MIN_UNIT_ACTIVITY = 2

#: View changes at one site before a storm finding is raised.
STORM_THRESHOLD = 10

#: Mirror timeouts against one target before a divergence finding.
MIRROR_TIMEOUT_THRESHOLD = 3

#: Cap on journal events attached to one finding's evidence bundle.
_EVIDENCE_CAP = 2


class OnlineAuditor:
    """Consumes a journal (live or replayed) and attributes misbehavior.

    The maps below keep the :class:`ProtocolEvent` objects the journal
    hands its subscriber; evidence becomes JSON only in :meth:`report`.

    Args:
        journal: When given, all already-retained events are replayed
            immediately and the auditor subscribes for future ones —
            attach it before a run for online auditing, or after for
            post-mortem analysis of a full journal.
    """

    def __init__(self, journal: Optional[EventJournal] = None) -> None:
        self.events_seen = 0
        # --- membership --------------------------------------------------
        #: participant -> {"members": [...], "gateway": id, "event": event}
        self._units: Dict[str, Dict[str, Any]] = {}
        # --- PBFT state --------------------------------------------------
        #: (participant, view, seq) -> {digest: first event}
        self._proposals: Dict[Tuple[str, int, int], Dict[str, ProtocolEvent]] = {}
        #: (participant, seq) -> all digests ever pre-prepared for it
        self._proposed_digests: Dict[Tuple[str, int], Set[str]] = {}
        #: (participant, view, seq, phase, voter) -> first vote event
        self._votes: Dict[Tuple[str, int, int, str, str], ProtocolEvent] = {}
        #: votes whose digest had no matching proposal *when observed*
        #: (re-checked at report time, once all proposals are known)
        self._pending_mismatch: Dict[
            Tuple[str, int, str, str, str], ProtocolEvent
        ] = {}
        # --- signature service -------------------------------------------
        self._canaries: Dict[str, str] = {}  # digest -> site probed
        # --- shipping timelines ------------------------------------------
        #: (participant, destination) -> [(position, event)] for
        #: communication records applied *by the configured gateway*
        self._gateway_appends: Dict[
            Tuple[str, str], List[Tuple[int, ProtocolEvent]]
        ] = {}
        #: (participant, destination, position) -> {shipper node: event}
        self._ships: Dict[Tuple[str, str, int], Dict[str, ProtocolEvent]] = {}
        #: (source, destination) -> highest comm position appended /
        #: highest position delivered (chain-gap check)
        self._comm_head: Dict[Tuple[str, str], int] = {}
        self._delivered_head: Dict[Tuple[str, str], int] = {}
        # --- participation & lifecycle -----------------------------------
        self._participation: Dict[str, int] = {}
        self._unit_log_len: Dict[str, int] = {}
        self._crashed_ever: Set[str] = set()
        # --- incremental detections (deduped) ----------------------------
        #: dedup key -> mutable finding draft
        self._detections: Dict[Tuple, Dict[str, Any]] = {}
        # --- health counters ----------------------------------------------
        self._view_changes: Dict[str, List[ProtocolEvent]] = {}
        self._mirror_timeouts: Dict[str, List[ProtocolEvent]] = {}
        self._health_counts: Dict[str, int] = {}
        self._verify_rejects: Dict[str, int] = {}
        self._promotions: Dict[str, int] = {}

        self._handlers = {
            "deploy.unit": self._on_deploy_unit,
            "pbft.pre_prepare": self._on_pre_prepare,
            "pbft.vote": self._on_vote,
            "pbft.verify_reject": self._on_verify_reject,
            "pbft.view_change": self._on_view_change,
            "log.append": self._on_log_append,
            "daemon.ship": self._on_ship,
            "chain.advance": self._on_chain_advance,
            "sign.response": self._on_sign_response,
            "sign.invalid": self._on_sign_invalid,
            "sign.spoofed": self._on_sign_spoofed,
            "proof.rejected": self._on_proof_rejected,
            "node.crash": self._on_crash,
            "geo.mirror_timeout": self._on_mirror_timeout,
        }
        #: Kinds tracked only as aggregate health counters.
        self._counted = (
            "pbft.new_view", "proof.verified", "mirror.ack",
            "reserve.probe", "reserve.response", "reserve.promoted",
            "node.recover", "geo.take_over", "daemon.ship",
        )
        if journal is not None:
            for event in journal:  # one event in memory at a time
                self.observe(event)
            journal.subscribe(self.observe)

    # ------------------------------------------------------------------
    # Canary registration (see probes.py)
    # ------------------------------------------------------------------
    def register_canary(self, digest: str, site: str) -> None:
        """Mark ``digest`` as a canary no honest node may attest."""
        self._canaries[digest] = site

    # ------------------------------------------------------------------
    # Timeline access (used by the detection-quality harness to decide
    # which planned withhold windows were *effective*)
    # ------------------------------------------------------------------
    def gateway_comm_appends(
        self, participant: str, destination: str
    ) -> List[Tuple[int, float]]:
        """``(position, at_ms)`` of every communication record the
        configured gateway of ``participant`` applied for
        ``destination``."""
        return [
            (position, event.at_ms)
            for position, event in self._gateway_appends.get(
                (participant, destination), ()
            )
        ]

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def observe(self, event: ProtocolEvent) -> None:
        """Consume one journal event (subscriber entry point)."""
        self.events_seen += 1
        if event.kind in self._counted:
            self._health_counts[event.kind] = (
                self._health_counts.get(event.kind, 0) + 1
            )
            if event.kind == "reserve.promoted":
                route = f"{event.args.get('destination', '?')}" \
                    f"<-{event.participant}"
                self._promotions[route] = self._promotions.get(route, 0) + 1
        handler = self._handlers.get(event.kind)
        if handler is not None:
            handler(event)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_deploy_unit(self, event: ProtocolEvent) -> None:
        self._units[event.participant] = {
            "members": list(event.args.get("members", ())),
            "gateway": event.args.get("gateway", ""),
            "event": event,
        }

    def _on_pre_prepare(self, event: ProtocolEvent) -> None:
        args = event.args
        leader = args.get("leader", "")
        digest = args.get("digest", "")
        view, seq = args.get("view", 0), args.get("seq", 0)
        self._credit(leader)
        slot = self._proposals.setdefault((event.participant, view, seq), {})
        if digest not in slot and len(slot) < _EVIDENCE_CAP:
            slot[digest] = event
        if len(slot) >= 2:
            self._detect(
                ("equivocation", leader, event.participant, view, seq),
                kind="equivocation",
                suspect=leader,
                suspect_kind="replica",
                participant=event.participant,
                summary=(
                    f"leader {leader} proposed {len(slot)} distinct "
                    f"digests for slot view={view} seq={seq}"
                ),
                evidence=list(slot.values()),
                context={"view": view, "seq": seq,
                         "digests": sorted(slot)},
            )
        self._proposed_digests.setdefault(
            (event.participant, seq), set()
        ).add(digest)

    def _on_vote(self, event: ProtocolEvent) -> None:
        args = event.args
        voter, src = args.get("voter", ""), args.get("src", "")
        digest = args.get("digest", "")
        view, seq = args.get("view", 0), args.get("seq", 0)
        phase = args.get("phase", "")
        if voter != src:
            # The vote arrived from a node other than the replica it
            # claims to be from — the *sender* is the suspect.
            self._detect(
                ("spoofed-vote", src, voter),
                kind="spoofed-vote",
                suspect=src,
                suspect_kind="replica",
                participant=event.participant,
                summary=(
                    f"{src} sent a {phase} vote claiming to be {voter}"
                ),
                evidence=[event],
                context={"claimed_voter": voter},
            )
            return
        self._credit(voter)
        key = (event.participant, view, seq, phase, voter)
        previous = self._votes.setdefault(key, event)
        first = previous.args.get("digest", "")
        if first != digest:
            self._detect(
                ("equivocation", voter, event.participant, view, seq, phase),
                kind="equivocation",
                suspect=voter,
                suspect_kind="replica",
                participant=event.participant,
                summary=(
                    f"{voter} voted two digests in {phase} for slot "
                    f"view={view} seq={seq}"
                ),
                evidence=[previous, event],
                context={"view": view, "seq": seq, "phase": phase,
                         "digests": sorted({first, digest})},
            )
        proposed = self._proposed_digests.get((event.participant, seq), ())
        if digest not in proposed:
            self._pending_mismatch.setdefault(
                (event.participant, seq, phase, voter, digest), event
            )

    def _on_verify_reject(self, event: ProtocolEvent) -> None:
        # Honest races (duplicate proposals, late votes) also trip the
        # prepare-verification counters — health signal, never evidence.
        self._verify_rejects[event.participant] = (
            self._verify_rejects.get(event.participant, 0) + 1
        )

    def _on_view_change(self, event: ProtocolEvent) -> None:
        self._view_changes.setdefault(event.participant, []).append(event)

    def _on_log_append(self, event: ProtocolEvent) -> None:
        args = event.args
        position = args.get("position", 0)
        self._credit(event.node)
        self._unit_log_len[event.participant] = max(
            self._unit_log_len.get(event.participant, 0), position
        )
        if args.get("record_type") == "communication":
            destination = args.get("destination", "")
            self._comm_head[(event.participant, destination)] = max(
                self._comm_head.get((event.participant, destination), 0),
                position,
            )
            unit = self._units.get(event.participant)
            if unit is not None and event.node == unit["gateway"]:
                self._gateway_appends.setdefault(
                    (event.participant, destination), []
                ).append((position, event))

    def _on_ship(self, event: ProtocolEvent) -> None:
        args = event.args
        self._credit(event.node)
        key = (
            event.participant,
            args.get("destination", ""),
            args.get("position", 0),
        )
        shippers = self._ships.setdefault(key, {})
        if event.node not in shippers and len(shippers) < 4:
            shippers[event.node] = event

    def _on_chain_advance(self, event: ProtocolEvent) -> None:
        self._credit(event.node)
        key = (event.args.get("source", ""), event.participant)
        self._delivered_head[key] = max(
            self._delivered_head.get(key, 0),
            event.args.get("position", 0),
        )

    def _on_sign_response(self, event: ProtocolEvent) -> None:
        signer = event.args.get("signer", "")
        self._credit(signer)
        digest = event.args.get("digest", "")
        if digest in self._canaries:
            self._detect(
                ("promiscuous-signature", signer),
                kind="promiscuous-signature",
                suspect=signer,
                suspect_kind="replica",
                participant=self._canaries[digest],
                summary=(
                    f"{signer} attested canary digest "
                    f"{digest[:12]}… that no honest log holds"
                ),
                evidence=[event],
                context={"canary": digest},
            )

    def _on_sign_invalid(self, event: ProtocolEvent) -> None:
        signer = event.args.get("signer", "")
        self._detect(
            ("forged-signature", signer),
            kind="forged-signature",
            suspect=signer,
            suspect_kind="replica",
            participant=event.participant,
            summary=f"{signer} returned a signature whose MAC "
                    f"fails verification",
            evidence=[event],
        )

    def _on_sign_spoofed(self, event: ProtocolEvent) -> None:
        signer = event.args.get("signer", "")
        src = event.args.get("src", "")
        self._detect(
            ("impersonation", src, signer),
            kind="impersonation",
            suspect=src,
            suspect_kind="replica",
            participant=event.participant,
            summary=f"{src} submitted a signature claiming to be {signer}",
            evidence=[event],
            context={"claimed_signer": signer},
        )

    def _on_proof_rejected(self, event: ProtocolEvent) -> None:
        source = event.args.get("source", "")
        link = f"{source}->{event.participant}"
        self._detect(
            ("tampered-transmission", link),
            kind="tampered-transmission",
            suspect=link,
            suspect_kind="link",
            participant=event.participant,
            summary=(
                f"transmissions from {source} arrived at "
                f"{event.participant} with invalid proofs"
            ),
            evidence=[event],
        )

    def _on_crash(self, event: ProtocolEvent) -> None:
        self._crashed_ever.add(event.node)

    def _on_mirror_timeout(self, event: ProtocolEvent) -> None:
        target = event.args.get("target", "")
        self._mirror_timeouts.setdefault(target, []).append(event)

    # ------------------------------------------------------------------
    # Detection bookkeeping
    # ------------------------------------------------------------------
    def _credit(self, node: str) -> None:
        if node:
            self._participation[node] = self._participation.get(node, 0) + 1

    def _detect(self, dedup_key: Tuple, **draft: Any) -> None:
        existing = self._detections.get(dedup_key)
        if existing is not None:
            existing["count"] += 1
            if len(existing["evidence"]) < _EVIDENCE_CAP:
                existing["evidence"].extend(
                    draft.get("evidence", ())[
                        : _EVIDENCE_CAP - len(existing["evidence"])
                    ]
                )
            return
        draft.setdefault("context", {})
        draft["evidence"] = list(draft.get("evidence", ()))[:_EVIDENCE_CAP]
        draft["count"] = 1
        self._detections[dedup_key] = draft

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    def report(self) -> AuditReport:
        """Materialize the findings and health summary.

        Safe to call repeatedly (e.g. mid-run and again at the end) —
        report-time analyses re-derive from the incremental state and
        do not mutate it.
        """
        drafts: Dict[Tuple, Dict[str, Any]] = dict(self._detections)
        self._report_vote_mismatches(drafts)
        self._report_silent_replicas(drafts)
        self._report_withholding(drafts)
        self._report_chain_gaps(drafts)
        self._report_site_health(drafts)
        findings = [
            Finding(
                kind=draft["kind"],
                suspect=draft["suspect"],
                suspect_kind=draft["suspect_kind"],
                participant=draft["participant"],
                score=FINDING_SCORES[draft["kind"]],
                summary=draft["summary"],
                evidence=tuple(event.to_dict() for event in draft["evidence"]),
                count=draft["count"],
                context=draft["context"],
            )
            for _key, draft in sorted(
                drafts.items(), key=lambda item: repr(item[0])
            )
        ]
        return AuditReport(
            findings=sort_findings(findings),
            health=self._health(),
            events_seen=self.events_seen,
        )

    # -- report-time analyses -------------------------------------------
    def _report_vote_mismatches(self, drafts: Dict) -> None:
        """Votes whose digest never appeared in any proposal for the
        slot. Deferred to report time: the matching pre-prepare may have
        been observed *after* the vote (WAN ordering)."""
        offenders: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for key in sorted(self._pending_mismatch):
            participant, seq, phase, voter, digest = key
            proposed = self._proposed_digests.get((participant, seq))
            if not proposed or digest in proposed:
                continue  # resolved later, or slot never proposed at all
            entry = offenders.setdefault(
                (participant, voter),
                {"evidence": [], "count": 0, "digests": set()},
            )
            entry["count"] += 1
            entry["digests"].add(digest)
            if len(entry["evidence"]) < _EVIDENCE_CAP:
                entry["evidence"].append(self._pending_mismatch[key])
        for (participant, voter), entry in sorted(offenders.items()):
            drafts[("vote-mismatch", voter, participant)] = {
                "kind": "vote-mismatch",
                "suspect": voter,
                "suspect_kind": "replica",
                "participant": participant,
                "summary": (
                    f"{voter} voted digests never proposed for their "
                    f"slots ({entry['count']} votes)"
                ),
                "evidence": entry["evidence"],
                "count": entry["count"],
                "context": {"digests": sorted(entry["digests"])},
            }

    def _report_silent_replicas(self, drafts: Dict) -> None:
        """Members with zero protocol participation in an active unit.

        A crashed node is exempt — benign crashes are journaled
        (``node.crash``), which is exactly why the flight recorder must
        capture lifecycle events: silence is only evidence when the
        node was nominally up the whole time."""
        for participant in sorted(self._units):
            if self._unit_log_len.get(participant, 0) < MIN_UNIT_ACTIVITY:
                continue
            unit = self._units[participant]
            for node in unit["members"]:
                if self._participation.get(node, 0) > 0:
                    continue
                if node in self._crashed_ever:
                    continue
                drafts[("silent-replica", node)] = {
                    "kind": "silent-replica",
                    "suspect": node,
                    "suspect_kind": "replica",
                    "participant": participant,
                    "summary": (
                        f"{node} showed zero protocol participation "
                        f"while unit {participant} committed "
                        f"{self._unit_log_len[participant]} entries "
                        f"and the node never crashed"
                    ),
                    "evidence": [unit["event"]],
                    "count": 1,
                    "context": {
                        "unit_log_length":
                            self._unit_log_len[participant],
                    },
                }

    def _report_withholding(self, drafts: Dict) -> None:
        """Gateway daemon routes whose records only reached the wire
        through somebody else. For each communication record the
        *configured gateway itself* applied: if the gateway never
        journaled a ship intent for it but another unit member (a
        promoted reserve) did, the gateway's daemon withheld it. A
        crashed gateway is naturally exempt — while down it applies
        nothing, and its post-recovery catch-up appends re-trigger its
        own daemon."""
        for (participant, destination) in sorted(self._gateway_appends):
            unit = self._units.get(participant)
            if unit is None:
                continue
            gateway = unit["gateway"]
            withheld: List[int] = []
            evidence: List[ProtocolEvent] = []
            for position, append_event in self._gateway_appends[
                (participant, destination)
            ]:
                shippers = self._ships.get(
                    (participant, destination, position), {}
                )
                if gateway in shippers:
                    continue
                others = sorted(
                    node for node in shippers if node != gateway
                )
                if not others:
                    continue  # nobody shipped it — inconclusive tail
                withheld.append(position)
                if len(evidence) < _EVIDENCE_CAP:
                    evidence.append(append_event)
                    evidence.append(shippers[others[0]])
            if not withheld:
                continue
            route = f"{participant}->{destination}"
            drafts[("withheld-transmissions", route)] = {
                "kind": "withheld-transmissions",
                "suspect": route,
                "suspect_kind": "daemon",
                "participant": participant,
                "summary": (
                    f"gateway {gateway} committed {len(withheld)} "
                    f"communication record(s) to {destination} it never "
                    f"shipped; a promoted reserve shipped them instead"
                ),
                "evidence": evidence[:_EVIDENCE_CAP],
                "count": len(withheld),
                "context": {
                    "gateway": gateway,
                    "positions": withheld[:16],
                },
            }

    def _report_chain_gaps(self, drafts: Dict) -> None:
        """Per-link undelivered chain suffix at end of audit. In a
        settled run heads match; a surviving gap means the tail of the
        chain never cleared receive verification anywhere."""
        for (source, destination) in sorted(self._comm_head):
            appended = self._comm_head[(source, destination)]
            delivered = self._delivered_head.get((source, destination), 0)
            if delivered >= appended:
                continue
            link = f"{source}->{destination}"
            drafts[("chain-gap", link)] = {
                "kind": "chain-gap",
                "suspect": link,
                "suspect_kind": "link",
                "participant": destination,
                "summary": (
                    f"{destination} delivered {source}'s chain up to "
                    f"position {delivered} but {source} committed "
                    f"records up to {appended}"
                ),
                "evidence": [],
                "count": appended - delivered,
                "context": {
                    "delivered_head": delivered,
                    "appended_head": appended,
                },
            }

    def _report_site_health(self, drafts: Dict) -> None:
        """Sites whose view changes or mirror timeouts reached their
        threshold."""
        for events_by_site, threshold, kind, what in (
            (self._view_changes, STORM_THRESHOLD, "view-change-storm",
             "unit {site} went through {n} view changes"),
            (self._mirror_timeouts, MIRROR_TIMEOUT_THRESHOLD,
             "mirror-divergence", "geo mirror {site} timed out {n} times"),
        ):
            for site in sorted(events_by_site):
                events = events_by_site[site]
                if len(events) < threshold:
                    continue
                drafts[(kind, site)] = {
                    "kind": kind,
                    "suspect": site,
                    "suspect_kind": "site",
                    "participant": site,
                    "summary": what.format(site=site, n=len(events)),
                    "evidence": events[:_EVIDENCE_CAP],
                    "count": len(events),
                    "context": {},
                }

    # -- health ----------------------------------------------------------
    def _health(self) -> Dict[str, Any]:
        participants = {}
        for participant in sorted(self._units):
            participants[participant] = {
                "members": list(self._units[participant]["members"]),
                "gateway": self._units[participant]["gateway"],
                "log_length": self._unit_log_len.get(participant, 0),
                "view_changes": len(
                    self._view_changes.get(participant, ())
                ),
                "verify_rejects": self._verify_rejects.get(participant, 0),
            }
        return {
            "participants": participants,
            "counters": dict(sorted(self._health_counts.items())),
            "reserve_promotions": dict(sorted(self._promotions.items())),
            "crashed_nodes": sorted(self._crashed_ever),
            "canaries": len(self._canaries),
        }
