"""Global invariants checked after (and about) every chaos run.

Two kinds of check live here:

* **Static** — :func:`check_plan_budget` inspects a
  :class:`~repro.chaos.plan.FaultPlan` *without running it* and reports
  every way the schedule exceeds the paper's fault model (more than
  ``fi`` concurrent faulty members in a unit, more than ``fg``
  concurrent site outages, fault windows that never close, …). The
  runner refuses to execute an over-budget plan: under the paper's
  assumptions no guarantees hold beyond the budget, so running one
  would only produce noise — and short-circuiting makes shrinking an
  over-budget plan fast.

* **Dynamic** — the ``check_*`` functions inspect a finished
  :class:`~repro.core.middleware.BlockplaneDeployment` for the safety
  and convergence properties the paper proves: Local-Log agreement
  within units (Lemma 1), transmission-chain integrity at receivers
  (Algorithm 2's prev-pointers — no gaps, no forgeries, consistent
  chains), at-most-once reception, geo mirror consistency (Section V),
  and post-heal convergence.

Every failure is a :class:`Violation`; an empty list means the run (or
plan) is clean.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.chaos.plan import (
    ACTION_KINDS,
    BYZANTINE_BEHAVIORS,
    FaultPlan,
)
from repro.core.records import RECORD_RECEIVED
from repro.pbft.quorums import unit_size

if TYPE_CHECKING:
    from repro.core.node import BlockplaneNode

#: Sites of the default chaos deployment (the paper's 4-DC topology).
DEFAULT_SITES: Tuple[str, ...] = ("C", "O", "V", "I")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant failure.

    Attributes:
        invariant: Stable machine-readable name (``budget``,
            ``log-fork``, ``convergence``, ``chain-gap``,
            ``chain-forgery``, ``chain-pointer``, ``duplicate-delivery``,
            ``mirror-divergence``, ``post-heal``, ``workload-liveness``,
            ``snapshot-divergence``, ``recovery-from-snapshot``).
        detail: Human-readable description of what failed and where.
        site: The participant the violation localises to, when it does.
    """

    invariant: str
    detail: str
    site: str = ""

    def __str__(self) -> str:
        prefix = f"[{self.invariant}]"
        if self.site:
            prefix += f" {self.site}:"
        return f"{prefix} {self.detail}"


# ----------------------------------------------------------------------
# Static: fault-budget conformance
# ----------------------------------------------------------------------
def _member_fault_intervals(
    plan: FaultPlan, site: str
) -> List[Tuple[int, float, float]]:
    """(node_index, start, end) spans during which a member of ``site``
    is faulty — crashed, byzantine, or a withholding gateway."""
    horizon = plan.budget.horizon_ms
    spans: List[Tuple[int, float, float]] = []
    for action in plan.actions:
        if action.site != site:
            continue
        end = action.end if action.end is not None else horizon
        if action.kind == "crash":
            spans.append((action.node_index, action.start, end))
        elif action.kind == "withhold":
            # The silent daemon runs on the gateway (member 0).
            spans.append((0, action.start, end))
        elif action.kind == "byzantine":
            spans.append((action.node_index, 0.0, horizon))
    return spans


def check_plan_budget(
    plan: FaultPlan, sites: Sequence[str] = DEFAULT_SITES
) -> List[Violation]:
    """Every way ``plan`` exceeds (or malforms) its own fault budget."""
    violations: List[Violation] = []
    budget = plan.budget
    members = unit_size(budget.f_independent)

    for action in plan.actions:
        if action.kind not in ACTION_KINDS:
            violations.append(
                Violation("budget", f"unknown action kind {action.kind!r}")
            )
            continue
        # Site references must resolve.
        if action.kind != "loss" and action.site not in sites:
            violations.append(
                Violation("budget", f"unknown site in {action.describe()}")
            )
            continue
        if action.kind in ("partition", "withhold"):
            if action.peer not in sites or action.peer == action.site:
                violations.append(
                    Violation("budget", f"bad peer in {action.describe()}")
                )
                continue
        # Windows: everything except a byzantine plant must close before
        # the horizon, so the settle phase is fault-free.
        if action.kind != "byzantine":
            if action.end is None:
                violations.append(
                    Violation(
                        "budget", f"window never closes: {action.describe()}"
                    )
                )
                continue
            if not (0.0 <= action.start < action.end):
                violations.append(
                    Violation("budget", f"empty window: {action.describe()}")
                )
                continue
            if action.end > budget.horizon_ms:
                violations.append(
                    Violation(
                        "budget",
                        f"window outlives the {budget.horizon_ms:.0f}ms "
                        f"horizon: {action.describe()}",
                    )
                )
        if action.kind == "crash" and not 0 <= action.node_index < members:
            violations.append(
                Violation(
                    "budget",
                    f"node index out of unit: {action.describe()}",
                    site=action.site,
                )
            )
        if action.kind == "byzantine":
            if action.behavior not in BYZANTINE_BEHAVIORS:
                violations.append(
                    Violation(
                        "budget",
                        f"unknown behavior {action.behavior!r}",
                        site=action.site,
                    )
                )
            if not 1 <= action.node_index < members:
                # Member 0 is the gateway/API entry point; a byzantine
                # plant there is outside the harness's observable model.
                violations.append(
                    Violation(
                        "budget",
                        f"byzantine plant must be a non-gateway member: "
                        f"{action.describe()}",
                        site=action.site,
                    )
                )
        if action.kind == "loss" and not 0.0 < action.probability <= 0.9:
            violations.append(
                Violation(
                    "budget",
                    f"loss probability outside (0, 0.9]: "
                    f"{action.describe()}",
                )
            )

    # Per-unit sweep: at no instant may more than fi distinct members of
    # one unit be faulty.
    for site in sites:
        spans = _member_fault_intervals(plan, site)
        for _index, start, _end in spans:
            concurrent = {
                index
                for index, other_start, other_end in spans
                if other_start <= start < other_end
            }
            if len(concurrent) > budget.f_independent:
                violations.append(
                    Violation(
                        "budget",
                        f"{len(concurrent)} concurrent faulty members at "
                        f"t={start:.0f} (fi={budget.f_independent}): "
                        f"members {sorted(concurrent)}",
                        site=site,
                    )
                )
                break  # one report per unit is enough

    # Site-outage sweep against fg.
    outages = [
        (action.site, action.start,
         action.end if action.end is not None else budget.horizon_ms)
        for action in plan.actions
        if action.kind == "site_outage"
    ]
    for _site, start, _end in outages:
        concurrent = {
            site
            for site, other_start, other_end in outages
            if other_start <= start < other_end
        }
        if len(concurrent) > budget.f_geo:
            violations.append(
                Violation(
                    "budget",
                    f"{len(concurrent)} concurrent site outages at "
                    f"t={start:.0f} (fg={budget.f_geo}): "
                    f"{sorted(concurrent)}",
                )
            )
            break

    return violations


# ----------------------------------------------------------------------
# Dynamic: deployment state after a run
# ----------------------------------------------------------------------
def byzantine_node_ids(plan: FaultPlan) -> Set[str]:
    """Node ids the plan made byzantine (excluded from honest checks)."""
    return {
        f"{action.site}-{action.node_index}"
        for action in plan.actions
        if action.kind == "byzantine"
    }


def _honest_nodes(unit, exclude: Set[str]) -> List["BlockplaneNode"]:
    return [node for node in unit.nodes if node.node_id not in exclude]


def check_local_log_agreement(
    deployment, exclude: Optional[Set[str]] = None
) -> List[Violation]:
    """Lemma 1 within every unit, truncation-aware: honest replicas
    never fork over the overlap of their retained windows, the digest
    chain a truncated replica folded to matches what a deeper-history
    peer recomputes at the same boundary, and after the settle phase all
    replicas converge to the same total log length."""
    exclude = exclude or set()
    violations: List[Violation] = []
    for site, unit in deployment.units.items():
        nodes = [
            node
            for node in _honest_nodes(unit, exclude)
            if not node.crashed
        ]
        if not nodes:
            violations.append(
                Violation("log-fork", "no live honest replicas", site=site)
            )
            continue
        reference = max(nodes, key=lambda node: len(node.local_log))
        reference_log = reference.local_log
        for node in nodes:
            if node is reference:
                continue
            log = node.local_log
            # Folded-prefix agreement: the chain value this node's base
            # snapshot folded to must equal the chain a peer holding
            # that boundary recomputes (and vice versa for the
            # reference's base against this node's window).
            for holder, truncated in (
                (reference_log, log), (log, reference_log),
            ):
                boundary = truncated.base_position - 1
                if boundary < 1:
                    continue  # nothing folded; genesis always agrees
                if (
                    boundary >= holder.base_position - 1
                    and boundary <= holder.last_position
                ):
                    if holder.chain_at(boundary) != truncated.base_chain:
                        violations.append(
                            Violation(
                                "snapshot-divergence",
                                f"{node.node_id} and {reference.node_id} "
                                f"disagree on the folded chain at position "
                                f"{boundary}",
                                site=site,
                            )
                        )
            # Entry agreement over the overlap of retained windows.
            start = max(log.base_position, reference_log.base_position)
            stop = min(log.last_position, reference_log.last_position)
            for position in range(start, stop + 1):
                a = log.read(position)
                b = reference_log.read(position)
                if (a.record_type, a.digest()) != (b.record_type, b.digest()):
                    violations.append(
                        Violation(
                            "log-fork",
                            f"{node.node_id} diverges from "
                            f"{reference.node_id} at position {position}",
                            site=site,
                        )
                    )
                    break
        lengths = {node.node_id: len(node.local_log) for node in nodes}
        if len(set(lengths.values())) > 1:
            violations.append(
                Violation(
                    "convergence",
                    f"log lengths still diverge after settle: {lengths}",
                    site=site,
                )
            )
    return violations


def _received_records(unit, source: str):
    """Sealed transmission records from ``source`` committed at a unit
    (read from its member 0 — honest by construction)."""
    log = unit.nodes[0].local_log
    return [
        entry.value.record
        for entry in log
        if entry.record_type == RECORD_RECEIVED
        and entry.value.record.source == source
    ]


def check_transmission_chains(deployment) -> List[Violation]:
    """Algorithm 2 end to end, for every (source, destination) pair:
    everything the source committed for the destination arrived (no
    gaps), nothing else arrived (no forgeries), and the prev-pointers
    the receiver accepted reconstruct the source's exact chain.

    Truncation-aware: communication records the source folded into its
    snapshot survive as a per-destination chain head, and receptions the
    destination folded survive as per-source floors — delivery of a
    retained source record is checked through the destination node's
    ``has_received``, and positions at or below the source's
    folded head are exempt from the forgery/pointer comparison (their
    ground truth lives in the certified snapshot, which
    :func:`check_snapshot_certificates` covers)."""
    violations: List[Violation] = []
    participants = deployment.participants
    for source in participants:
        source_log = deployment.unit(source).nodes[0].local_log
        for destination in participants:
            if destination == source:
                continue
            expected = source_log.communication_positions(destination)
            folded_head = source_log.folded_communication_head(destination)
            floor = folded_head if folded_head is not None else 0
            destination_node = deployment.unit(destination).nodes[0]
            records = _received_records(
                deployment.unit(destination), source
            )
            missing = sorted(
                position
                for position in expected
                if not destination_node.has_received(source, position)
            )
            if missing:
                violations.append(
                    Violation(
                        "chain-gap",
                        f"{source}→{destination}: source positions "
                        f"{missing} never delivered",
                        site=destination,
                    )
                )
            got = sorted({record.source_position for record in records})
            forged = sorted(
                position
                for position in got
                if position > floor and position not in set(expected)
            )
            if forged:
                violations.append(
                    Violation(
                        "chain-forgery",
                        f"{source}→{destination}: delivered positions "
                        f"{forged} absent from the source log",
                        site=destination,
                    )
                )
            if missing or forged:
                continue
            # Pointer consistency along the reconstructed chain; the
            # first retained source record points at the folded head.
            predecessor: Dict[int, Optional[int]] = {}
            previous = folded_head
            for position in expected:
                predecessor[position] = previous
                previous = position
            for record in records:
                if record.source_position <= floor:
                    continue  # reception of a source-folded record
                if record.prev_position != predecessor.get(
                    record.source_position
                ):
                    violations.append(
                        Violation(
                            "chain-pointer",
                            f"{source}→{destination}: position "
                            f"{record.source_position} carries "
                            f"prev={record.prev_position}, source chain "
                            f"says {predecessor.get(record.source_position)}",
                            site=destination,
                        )
                    )
    return violations


def check_at_most_once(deployment) -> List[Violation]:
    """No (source, source_position) committed twice at any receiver."""
    violations: List[Violation] = []
    for site, unit in deployment.units.items():
        seen: Dict[Tuple[str, int], int] = {}
        for entry in unit.nodes[0].local_log:
            if entry.record_type != RECORD_RECEIVED:
                continue
            key = (entry.value.record.source,
                   entry.value.record.source_position)
            seen[key] = seen.get(key, 0) + 1
        duplicates = {key: count for key, count in seen.items() if count > 1}
        if duplicates:
            violations.append(
                Violation(
                    "duplicate-delivery",
                    f"received more than once: {duplicates}",
                    site=site,
                )
            )
    return violations


def check_geo_mirrors(deployment) -> List[Violation]:
    """Section V consistency: every mirror entry a node holds for a
    remote participant matches that participant's actual Local Log entry
    at the same position (same type, same body)."""
    violations: List[Violation] = []
    if deployment.config.f_geo == 0:
        return violations
    for unit in deployment.units.values():
        for node in unit.nodes:
            for source, mirror_entries in node.mirror_logs.items():
                if source not in deployment.units:
                    continue
                source_log = deployment.unit(source).nodes[0].local_log
                for mirror in mirror_entries:
                    if mirror.position > len(source_log):
                        violations.append(
                            Violation(
                                "mirror-divergence",
                                f"{node.node_id} mirrors {source} position "
                                f"{mirror.position} beyond the source log",
                                site=source,
                            )
                        )
                        continue
                    if not source_log.covers(mirror.position):
                        # Folded by truncation at the source; the entry's
                        # ground truth now lives in the certified
                        # snapshot's digest chain, not a readable entry.
                        continue
                    original = source_log.read(mirror.position)
                    if (mirror.record_type != original.record_type
                            or mirror.value != original.value):
                        violations.append(
                            Violation(
                                "mirror-divergence",
                                f"{node.node_id} mirror of {source} "
                                f"position {mirror.position} does not match "
                                f"the source entry",
                                site=source,
                            )
                        )
    return violations


def check_snapshot_certificates(
    deployment, exclude: Optional[Set[str]] = None
) -> List[Violation]:
    """Checkpoint-certificate safety within every unit: a node's stable
    snapshot payload must match what its own certificate certifies, and
    two honest nodes certifying the same watermark must certify the same
    (state, snapshot) digests — a mismatch means a byzantine quorum
    certified a forged fold, the exact attack signed checkpoints exist
    to prevent."""
    exclude = exclude or set()
    violations: List[Violation] = []
    for site, unit in deployment.units.items():
        by_seq: Dict[int, Tuple[str, object]] = {}
        for node in _honest_nodes(unit, exclude):
            certificate = node.stable_certificate
            if certificate is None:
                continue
            payload = node.stable_snapshot_payload
            if (
                payload is not None
                and payload.digest() != certificate.snapshot_digest
            ):
                violations.append(
                    Violation(
                        "snapshot-divergence",
                        f"{node.node_id} holds a snapshot that does not "
                        f"match its own certificate at seq "
                        f"{certificate.seq}",
                        site=site,
                    )
                )
            earlier = by_seq.get(certificate.seq)
            if earlier is None:
                by_seq[certificate.seq] = (node.node_id, certificate)
            else:
                other_id, other = earlier
                if (
                    certificate.state_digest,
                    certificate.snapshot_digest,
                ) != (other.state_digest, other.snapshot_digest):
                    violations.append(
                        Violation(
                            "snapshot-divergence",
                            f"{node.node_id} and {other_id} certify "
                            f"different snapshots at seq {certificate.seq}",
                            site=site,
                        )
                    )
    return violations


def check_recovery_from_snapshot(
    deployment, node_ids: Sequence[str]
) -> List[Violation]:
    """The named nodes — crashed past their peers' retained history by
    the plan — must have rejoined through certified snapshot state
    transfer (``snapshot_installs >= 1``); replaying from position 1 is
    impossible once peers garbage-collect, so a node that claims to
    have caught up without an install either never recovered or forged
    its history."""
    violations: List[Violation] = []
    by_id = {node.node_id: node for node in deployment.all_nodes()}
    for node_id in node_ids:
        node = by_id.get(node_id)
        if node is None:
            continue
        if node.snapshot_installs < 1:
            violations.append(
                Violation(
                    "recovery-from-snapshot",
                    f"{node_id} rejoined without snapshot state transfer "
                    f"(last_executed={node.last_executed}, "
                    f"low_water={node.stable_checkpoint})",
                    site=node.participant,
                )
            )
    return violations


def check_post_heal(deployment) -> List[Violation]:
    """Every fault window closed before the settle phase, so every node
    must be back up by the time invariants run."""
    return [
        Violation(
            "post-heal", f"{node.node_id} still down after settle",
            site=node.participant,
        )
        for node in deployment.all_nodes()
        if node.crashed
    ]
