"""Detection-quality harness: score the auditor against chaos plans.

A chaos :class:`~repro.chaos.plan.FaultPlan` *is* ground truth — it
says exactly which nodes were planted byzantine and which daemon routes
were told to withhold. Replaying a plan with the flight recorder on and
an :class:`~repro.obs.forensics.auditor.OnlineAuditor` attached turns
the auditor's accusations into a measurable precision/recall score:

* **recall** — every injected byzantine node and every *effective*
  withholding route must be attributed;
* **precision** — nothing else may be accused, including across
  entirely fault-free replays (plans with their actions stripped).

"Effective" matters for withholding: a withhold window during which the
source gateway never actually committed a communication record to that
peer leaves no trace *by design* — there was nothing to withhold — so
such routes are excluded from the expected set (the auditor judges
behavior, not intentions).

Chaos imports are deliberately local to the run functions so importing
:mod:`repro.obs.forensics` never drags the chaos/core stack in.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Set, Tuple

from repro.obs.forensics.auditor import OnlineAuditor
from repro.obs.forensics.findings import AuditReport, DEFAULT_THRESHOLD

if TYPE_CHECKING:
    from repro.chaos.runner import ChaosRunner


@dataclasses.dataclass(frozen=True)
class DetectionScore:
    """Precision/recall of one audited run against its plan."""

    expected: Tuple[str, ...]
    detected: Tuple[str, ...]

    @property
    def true_positives(self) -> Tuple[str, ...]:
        expected = set(self.expected)
        return tuple(s for s in self.detected if s in expected)

    @property
    def false_accusations(self) -> Tuple[str, ...]:
        expected = set(self.expected)
        return tuple(s for s in self.detected if s not in expected)

    @property
    def missed(self) -> Tuple[str, ...]:
        detected = set(self.detected)
        return tuple(s for s in self.expected if s not in detected)

    @property
    def recall(self) -> float:
        if not self.expected:
            return 1.0
        return len(self.true_positives) / len(self.expected)

    @property
    def precision(self) -> float:
        if not self.detected:
            return 1.0
        return len(self.true_positives) / len(self.detected)

    @property
    def perfect(self) -> bool:
        return self.recall == 1.0 and self.precision == 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "expected": list(self.expected),
            "detected": list(self.detected),
            "missed": list(self.missed),
            "false_accusations": list(self.false_accusations),
            "precision": self.precision,
            "recall": self.recall,
        }

    def summary(self) -> str:
        return (
            f"precision={self.precision:.2f} recall={self.recall:.2f} "
            f"expected={sorted(self.expected)} "
            f"detected={sorted(self.detected)}"
        )


@dataclasses.dataclass
class AuditedRun:
    """One chaos run plus its audit verdict."""

    plan: Any  # FaultPlan
    result: Any  # ChaosResult
    report: AuditReport
    score: DetectionScore
    #: The run's Observability hub (journal + metrics) — the console
    #: bundles it together with ``report`` into an explorable replay.
    obs: Any = None

    def summary(self) -> str:
        status = "OK " if self.score.perfect else "FAIL"
        return (
            f"{status} seed={self.plan.seed} profile={self.plan.profile} "
            f"{self.score.summary()}"
        )


def build_audited_runner(plan, probes: bool = True, obs=None) -> "ChaosRunner":
    """A :class:`~repro.chaos.runner.ChaosRunner` wired for forensics:
    flight recorder on, auditor subscribed to the journal, canary
    probes armed right after the deployment is built. Returns the
    runner; its ``auditor`` attribute carries the verdict state."""
    from repro.chaos.runner import ChaosRunner
    from repro.obs.forensics.probes import CanaryProber
    from repro.obs.hub import Observability

    if obs is None:
        # Spans are off: the journal is the forensic record, and the
        # recorder-only configuration is the cheap one.
        obs = Observability(enabled=True, tracing=False)
    auditor = OnlineAuditor(obs.journal)

    class _AuditedChaosRunner(ChaosRunner):
        def _schedule_actions(self, sim, deployment, injector) -> None:
            super()._schedule_actions(sim, deployment, injector)
            if probes:
                self.prober = CanaryProber(
                    sim, deployment, auditor=auditor,
                    times_ms=_probe_times(self.plan),
                )

    runner = _AuditedChaosRunner(plan, obs=obs)
    runner.auditor = auditor
    runner.prober = None
    return runner


def _probe_times(plan) -> Tuple[float, ...]:
    """Three probes spread over the faulty phase plus one in the
    settle window (so a probe lands outside every crash window)."""
    horizon = plan.budget.horizon_ms
    return (
        horizon * 0.2,
        horizon * 0.55,
        horizon * 0.9,
        horizon + plan.budget.settle_ms * 0.5,
    )


def expected_accusations(plan, auditor: OnlineAuditor) -> Set[str]:
    """The plan's ground truth, post-filtered by effectiveness.

    Byzantine plants are expected unconditionally (the planted node
    exists for the whole run). A withhold route is expected only when
    the source gateway committed at least one communication record to
    the peer strictly inside the window — otherwise the daemon's
    silence was vacuous and indistinguishable from honesty.
    """
    expected: Set[str] = set()
    for action in plan.actions:
        if action.kind == "byzantine":
            expected.add(f"{action.site}-{action.node_index}")
        elif action.kind == "withhold" and action.end is not None:
            appends = auditor.gateway_comm_appends(action.site, action.peer)
            if any(
                action.start < at_ms < action.end
                for _position, at_ms in appends
            ):
                expected.add(f"{action.site}->{action.peer}")
    return expected


def audited_chaos_run(
    plan,
    probes: bool = True,
    threshold: float = DEFAULT_THRESHOLD,
    max_events: int = 50_000_000,
) -> AuditedRun:
    """Execute one plan with forensics attached and score the verdict."""
    runner = build_audited_runner(plan, probes=probes)
    result = runner.run(max_events=max_events)
    report = runner.auditor.report()
    expected = expected_accusations(plan, runner.auditor)
    detected = report.accused(threshold)
    score = DetectionScore(
        expected=tuple(sorted(expected)),
        detected=tuple(sorted(detected)),
    )
    return AuditedRun(
        plan=plan, result=result, report=report, score=score,
        obs=runner.obs,
    )


def fault_free_run(
    plan,
    probes: bool = True,
    threshold: float = DEFAULT_THRESHOLD,
) -> AuditedRun:
    """The same workload with every fault stripped — any accusation the
    auditor produces here is by construction false."""
    return audited_chaos_run(
        plan.with_actions(()), probes=probes, threshold=threshold
    )


def detection_sweep(
    seed: int,
    runs: int,
    profile: str = "byzantine",
    batches: int = 6,
    horizon_ms: float = 12_000.0,
    settle_ms: float = 8_000.0,
    probes: bool = True,
    fault_free: bool = False,
) -> List[AuditedRun]:
    """Draw ``runs`` plans from one seed and audit each.

    With ``fault_free=True`` every plan's actions are stripped first —
    the precision sweep the acceptance criteria demand (zero false
    accusations across fault-free seeds).
    """
    from repro.chaos.generator import ScheduleGenerator

    generator = ScheduleGenerator(
        seed,
        profile=profile,
        batches=batches,
        horizon_ms=horizon_ms,
        settle_ms=settle_ms,
    )
    audited: List[AuditedRun] = []
    for run_index in range(runs):
        plan = generator.generate(run_index)
        if fault_free:
            audited.append(fault_free_run(plan, probes=probes))
        else:
            audited.append(audited_chaos_run(plan, probes=probes))
    return audited
