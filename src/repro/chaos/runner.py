"""Chaos run orchestration.

:class:`ChaosRunner` executes one :class:`~repro.chaos.plan.FaultPlan`
against a fresh deterministic deployment on the paper's four-datacenter
topology:

1. the plan's budget is checked statically first — an over-budget plan
   is *reported, not run* (outside the fault model no guarantees hold,
   and the short-circuit keeps shrinking over-budget plans cheap);
2. byzantine plants become ``node_class_overrides`` at build time, all
   timed actions go through :class:`~repro.sim.faults.FaultInjector`
   (plus daemon-withholding toggles);
3. a retry-hardened workload runs every site: senders tolerate gateway
   outages, lost PBFT traffic, and timed-out commits by re-submitting
   with a fresh attempt marker (duplicated *content* is fine — the
   invariants audit the committed source log, not the caller's
   intentions);
4. after the horizon the deployment gets fault-free settle windows,
   then the global invariant suite runs over the final state.

Every run is audited too: the flight recorder is on, an
:class:`~repro.obs.forensics.auditor.OnlineAuditor` reads the journal,
and canary probes are armed, so each result carries both verdicts —
the invariants' (safety) and the auditor's attribution scored against
the plan's ground truth.

Artifacts (plan JSON, violation report, audit score and report,
evidence bundles, obs exports) are written by :func:`write_artifacts`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.invariants import (
    DEFAULT_SITES,
    Violation,
    byzantine_node_ids,
    check_at_most_once,
    check_geo_mirrors,
    check_local_log_agreement,
    check_plan_budget,
    check_post_heal,
    check_recovery_from_snapshot,
    check_snapshot_certificates,
    check_transmission_chains,
)
from repro.chaos.plan import FaultPlan
from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.byzantine import (
    ForgingSigner,
    PromiscuousSigner,
    SilentUnitMember,
)
from repro.core.messages import TransmissionMessage
from repro.core.records import RECORD_COMMUNICATION
from repro.obs.hub import Observability
from repro.sim.faults import FaultInjector
from repro.sim.process import any_of
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology

if TYPE_CHECKING:
    from repro.obs.forensics.findings import AuditReport
    from repro.obs.forensics.quality import DetectionScore

#: Plan behavior keys → byzantine node classes (``core.byzantine``).
BYZANTINE_CLASSES = {
    "silent": SilentUnitMember,
    "promiscuous": PromiscuousSigner,
    "forging": ForgingSigner,
}

#: How long a sender waits for one commit before re-submitting.
_SEND_TIMEOUT_MS = 2_500.0
#: Extra settle windows granted when the state has not converged yet
#: (deterministic — purely a function of the plan).
_MAX_EXTRA_SETTLES = 3


@dataclasses.dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    plan: FaultPlan
    violations: List[Violation]
    ran: bool
    stats: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: The auditor's verdict (None when the plan was refused unrun).
    report: Optional[AuditReport] = None
    #: The report's accusations scored against the plan's ground truth.
    score: Optional[DetectionScore] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            line = (
                f"OK   seed={self.plan.seed} profile={self.plan.profile} "
                f"actions={len(self.plan.actions)} "
                f"committed={self.stats.get('communications_committed', '?')}"
            )
        else:
            line = (
                f"FAIL seed={self.plan.seed} profile={self.plan.profile} "
                f"violations={len(self.violations)} first={self.violations[0]}"
            )
        if self.score is None:
            return line
        attribution = "perfect" if self.score.perfect else "IMPERFECT"
        return f"{line} | attribution {attribution} {self.score.summary()}"


def byzantine_overrides(plan: FaultPlan) -> Dict[str, Any]:
    """Node-class overrides for a plan's byzantine plants (build-time)."""
    return {
        f"{action.site}-{action.node_index}":
            BYZANTINE_CLASSES[action.behavior]
        for action in plan.actions
        if action.kind == "byzantine"
    }


def schedule_plan_actions(
    sim: Simulator,
    deployment: BlockplaneDeployment,
    injector: FaultInjector,
    plan: FaultPlan,
) -> None:
    """Arm every timed action of ``plan`` on ``sim``.

    Byzantine plants are build-time concerns (see
    :func:`byzantine_overrides`) and are skipped here.
    """
    for action in plan.actions:
        if action.kind == "crash":
            node = deployment.unit(action.site).nodes[action.node_index]
            injector.crash_cycle(node, action.start, action.end)
        elif action.kind == "site_outage":
            injector.site_outage(action.site, action.start, action.end)
        elif action.kind == "partition":
            ids_a = [
                node.node_id
                for node in deployment.unit(action.site).nodes
            ]
            ids_b = [
                node.node_id
                for node in deployment.unit(action.peer).nodes
            ]
            injector.partition(ids_a, ids_b, action.start, action.end)
        elif action.kind == "loss":
            injector.drop_probabilistically(
                action.probability, action.start, action.end
            )
        elif action.kind == "tamper":
            injector.tamper_matching(
                _is_transmission_from_site(action.site),
                _corrupt_transmission,
                start=action.start,
                end=action.end,
            )
        elif action.kind == "withhold":
            daemon = deployment.unit(action.site).daemons[action.peer]
            sim.schedule_at(action.start, _set_daemon_active, daemon, False)
            sim.schedule_at(action.end, _set_daemon_active, daemon, True)
        # "byzantine" is applied at build time via overrides.


def _is_transmission_from_site(source: str):
    def _matches(_src: str, _dst: str, message: Any) -> bool:
        return (
            isinstance(message, TransmissionMessage)
            and message.sealed is not None
            and message.sealed.record.source == source
        )

    return _matches


class ChaosRunner:
    """Executes one fault plan end to end.

    Args:
        plan: The schedule to run.
        sites: Participants (must match the plan's site references).
        obs: The :class:`~repro.obs.Observability` hub the deployment
            records into and the auditor reads (exported via
            :func:`write_artifacts`). Defaults to a flight-recorder hub
            with tracing off.
        checkpoint_interval: Override the unit PBFT groups' checkpoint
            interval (None keeps the config default). Short chaos runs
            use a small interval so checkpointing, log truncation, and
            snapshot state transfer are actually exercised under faults.
        expect_snapshot_recovery: Node ids the plan deliberately crashed
            past their peers' retained history; the invariant suite then
            additionally requires each to have rejoined via certified
            snapshot install (``recovery-from-snapshot``).
    """

    def __init__(
        self,
        plan: FaultPlan,
        sites: Sequence[str] = DEFAULT_SITES,
        obs=None,
        checkpoint_interval: Optional[int] = None,
        expect_snapshot_recovery: Sequence[str] = (),
    ) -> None:
        if obs is None:
            # Spans are off: the journal is the forensic record, and the
            # recorder-only configuration is the cheap one.
            obs = Observability(enabled=True, tracing=False)
        self.plan = plan
        self.sites = tuple(sites)
        self.obs = obs
        self.checkpoint_interval = checkpoint_interval
        self.expect_snapshot_recovery = tuple(expect_snapshot_recovery)
        self.deployment: Optional[BlockplaneDeployment] = None

    # ------------------------------------------------------------------
    def run(self, max_events: int = 50_000_000) -> ChaosResult:
        # Imported here: importing repro.chaos never loads forensics.
        from repro.obs.forensics.auditor import OnlineAuditor
        from repro.obs.forensics.probes import CanaryProber
        from repro.obs.forensics.quality import (
            DetectionScore,
            expected_accusations,
        )

        plan = self.plan
        budget_violations = check_plan_budget(plan, self.sites)
        if budget_violations:
            return ChaosResult(plan, budget_violations, ran=False)

        auditor = OnlineAuditor(self.obs.journal)
        sim = Simulator(seed=plan.seed)
        overrides = byzantine_overrides(plan)
        config_kwargs: Dict[str, Any] = {}
        if self.checkpoint_interval is not None:
            from repro.pbft.config import PBFTConfig

            config_kwargs["pbft"] = PBFTConfig(
                checkpoint_interval=self.checkpoint_interval,
                gc_executed_log=True,
            )
        config = BlockplaneConfig(
            f_independent=plan.budget.f_independent,
            f_geo=plan.budget.f_geo,
            # Aggressive reserve auditing: chaos runs are short, and any
            # withheld/lost transmission must be recovered well inside
            # the settle phase.
            reserve_poll_interval_ms=150.0,
            reserve_gap_threshold=0,
            **config_kwargs,
        )
        deployment = BlockplaneDeployment(
            sim,
            aws_four_dc_topology(),
            config,
            node_class_overrides=overrides or None,
            obs=self.obs,
        )
        self.deployment = deployment
        injector = FaultInjector(sim, deployment.network)
        schedule_plan_actions(sim, deployment, injector, plan)
        CanaryProber(
            sim, deployment, auditor=auditor, times_ms=_probe_times(plan)
        )

        senders = [
            sim.spawn(self._sender(sim, deployment, site, index))
            for index, site in enumerate(self.sites)
        ]
        sim.run(until=plan.budget.horizon_ms, max_events=max_events)

        # Settle: fault-free convergence time, extended (deterministically)
        # while the state still looks unconverged. Each round opens with
        # one flush commit per site: a replica that silently missed a
        # *tail* entry (its Commit messages fell into a loss window, and
        # nothing since revealed the gap) only notices once a later slot
        # appears — the flush forces that progress.
        violations: List[Violation] = []
        flushes: List[Any] = []
        for attempt in range(1 + _MAX_EXTRA_SETTLES):
            flushes += [
                sim.spawn(self._flusher(sim, deployment, site, attempt))
                for site in self.sites
            ]
            sim.run(
                until=sim.now + plan.budget.settle_ms, max_events=max_events
            )
            violations = self._dynamic_violations(
                deployment, senders, flushes
            )
            if not violations:
                break

        report = auditor.report()
        score = DetectionScore(
            expected=tuple(sorted(expected_accusations(plan, auditor))),
            detected=tuple(sorted(report.accused())),
        )
        return ChaosResult(
            plan, violations, ran=True,
            stats=self._stats(sim, deployment), report=report, score=score,
        )

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def _sender(
        self,
        sim: Simulator,
        deployment: BlockplaneDeployment,
        site: str,
        site_index: int,
    ):
        """One site's workload: interleaved sends and state commits,
        hardened against every fault the plan can throw at it."""
        plan = self.plan
        rng = random.Random(plan.seed * 7_919 + site_index)
        api = deployment.api(site)
        others = [other for other in self.sites if other != site]
        for index in range(plan.batches):
            target = others[(index + site_index) % len(others)]
            if index % 3 == 0:
                # A plain state commit (feeds the geo mirrors too).
                yield from self._commit_with_retry(
                    sim, lambda attempt, a=index: api.log_commit(
                        f"state-{site}-{a}/try{attempt}",
                        payload_bytes=plan.payload_bytes,
                    )
                )
            yield from self._commit_with_retry(
                sim, lambda attempt, a=index, t=target: api.send(
                    f"{site}->{t}#{a}/try{attempt}",
                    to=t,
                    payload_bytes=plan.payload_bytes,
                ),
            )
            yield sim.sleep(rng.uniform(10.0, 120.0))

    def _flusher(
        self,
        sim: Simulator,
        deployment: BlockplaneDeployment,
        site: str,
        round_index: int,
    ):
        """One barrier commit at ``site`` (settle-phase gap flushing)."""
        api = deployment.api(site)
        yield from self._commit_with_retry(
            sim, lambda attempt: api.log_commit(
                f"flush-{site}-{round_index}/try{attempt}",
                payload_bytes=self.plan.payload_bytes,
            )
        )

    @staticmethod
    def _commit_with_retry(sim: Simulator, submit):
        """Drive one commit attempt loop: re-submit on timeout (a lost
        in-flight request) or on errors (gateway momentarily gone during
        a site outage). Each attempt carries a fresh marker; a timed-out
        attempt may still commit later — that is fine, invariants audit
        the log, not the intent."""
        attempt = 0
        while True:
            try:
                future = submit(attempt)
                winner, _value = yield any_of(
                    sim, [future, sim.sleep(_SEND_TIMEOUT_MS)]
                )
            except Exception:
                attempt += 1
                yield sim.sleep(250.0)
                continue
            if winner == 0:
                return
            attempt += 1
            yield sim.sleep(100.0)

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    def _dynamic_violations(
        self, deployment: BlockplaneDeployment, senders, flushes=()
    ) -> List[Violation]:
        violations = [
            Violation(
                "workload-liveness",
                f"sender {self.sites[index]} never finished its batches",
                site=self.sites[index],
            )
            for index, process in enumerate(senders)
            if not process.resolved
        ]
        violations += [
            Violation(
                "workload-liveness",
                "a settle-phase flush commit never finished",
            )
            for process in flushes
            if not process.resolved
        ]
        exclude = byzantine_node_ids(self.plan)
        violations += check_post_heal(deployment)
        violations += check_local_log_agreement(deployment, exclude)
        violations += check_transmission_chains(deployment)
        violations += check_at_most_once(deployment)
        violations += check_geo_mirrors(deployment)
        violations += check_snapshot_certificates(deployment, exclude)
        if self.expect_snapshot_recovery:
            violations += check_recovery_from_snapshot(
                deployment, self.expect_snapshot_recovery
            )
        return violations

    def _stats(
        self, sim: Simulator, deployment: BlockplaneDeployment
    ) -> Dict[str, Any]:
        communications = sum(
            1
            for unit in deployment.units.values()
            for entry in unit.nodes[0].local_log
            if entry.record_type == RECORD_COMMUNICATION
        )
        return {
            "virtual_ms": sim.now,
            "events": sim.events_processed,
            "communications_committed": communications,
            "actions": len(self.plan.actions),
            "snapshot_installs": sum(
                node.snapshot_installs for node in deployment.all_nodes()
            ),
            "log_truncations": {
                site: unit.nodes[0].local_log.base_position - 1
                for site, unit in deployment.units.items()
                if unit.nodes[0].local_log.base_position > 1
            },
        }


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _probe_times(plan: FaultPlan) -> Tuple[float, ...]:
    """Three canary probes spread over the faulty phase plus one in the
    settle window (so a probe lands outside every crash window)."""
    horizon = plan.budget.horizon_ms
    return (
        horizon * 0.2,
        horizon * 0.55,
        horizon * 0.9,
        horizon + plan.budget.settle_ms * 0.5,
    )


def _set_daemon_active(daemon, active: bool) -> None:
    """Toggle a communication daemon (byzantine withholding window).

    While inactive the daemon ignores log appends — exactly the silent
    misbehaviour reserve daemons exist to detect (Section IV-C)."""
    daemon.active = active


def _corrupt_transmission(message: TransmissionMessage):
    """In-flight tamper: flip the record's payload. The proof digest no
    longer matches, so honest receivers reject it at ingress and the
    retransmission/reserve machinery must recover the original."""
    record = message.sealed.record
    corrupted = dataclasses.replace(
        record, message=("corrupted", record.message)
    )
    return dataclasses.replace(
        message,
        sealed=dataclasses.replace(message.sealed, record=corrupted),
    )


def write_artifacts(
    result: ChaosResult, directory: str, obs=None
) -> Dict[str, str]:
    """Write a run's artifacts: ``plan.json`` and ``violations.txt``;
    for a run that ran, ``score.json``, ``report.json`` and one
    ``evidence/`` bundle per finding; and, when an enabled obs hub is
    given, everything :func:`repro.obs.export_all` writes, the console
    bundle carrying the audit report and the plan as ground truth.
    Returns artifact name → path."""
    os.makedirs(directory, exist_ok=True)
    paths: Dict[str, str] = {}
    plan_path = os.path.join(directory, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        handle.write(result.plan.to_json() + "\n")
    paths["plan"] = plan_path
    report_path = os.path.join(directory, "violations.txt")
    with open(report_path, "w", encoding="utf-8") as handle:
        if result.ok:
            handle.write("no violations\n")
        else:
            for violation in result.violations:
                handle.write(f"{violation}\n")
    paths["violations"] = report_path
    if result.score is not None:
        score_path = os.path.join(directory, "score.json")
        with open(score_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(result.score.to_dict(), indent=2) + "\n")
        paths["score"] = score_path
        paths.update(result.report.export_evidence(directory))
    if obs is not None and getattr(obs, "enabled", False):
        from repro.obs import export_all

        paths.update(export_all(
            obs, directory,
            # Ground truth: the injected schedule renders beside
            # whatever the auditor detected.
            audit=result.report,
            chaos=result.plan,
            title=(
                f"chaos replay: seed {result.plan.seed}, "
                f"profile {result.plan.profile}"
            ),
        ))
    return paths
