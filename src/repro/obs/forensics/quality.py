"""Detection quality: score the auditor against chaos plans.

A chaos :class:`~repro.chaos.plan.FaultPlan` *is* ground truth — it
says exactly which nodes were planted byzantine and which daemon routes
were told to withhold. :class:`~repro.chaos.runner.ChaosRunner` runs
every plan with the flight recorder on and an
:class:`~repro.obs.forensics.auditor.OnlineAuditor` attached, which
turns the auditor's accusations into a measurable precision/recall
score:

* **recall** — every injected byzantine node and every *effective*
  withholding route must be attributed;
* **precision** — nothing else may be accused, including across
  entirely fault-free replays (plans with their actions stripped).

"Effective" matters for withholding: a withhold window during which the
source gateway never actually committed a communication record to that
peer leaves no trace *by design* — there was nothing to withhold — so
such routes are excluded from the expected set (the auditor judges
behavior, not intentions).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Set, Tuple

from repro.obs.forensics.auditor import OnlineAuditor


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
