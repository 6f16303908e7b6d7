"""Seeded chaos engine (``repro.chaos``).

A property-based robustness harness for the Blockplane reproduction:

* :mod:`repro.chaos.plan` — the declarative fault-plan model
  (:class:`~repro.chaos.plan.FaultPlan`), JSON round-trippable so any
  failing schedule can be stored, replayed, and shrunk;
* :mod:`repro.chaos.generator` — draws randomized, *budget-bounded*
  plans from a single seed (profiles: ``crash``, ``geo``,
  ``byzantine``, ``mixed``);
* :mod:`repro.chaos.runner` — executes a plan against a fresh
  deterministic deployment with a retry-hardened workload, audits it
  with the byzantine auditor (:mod:`repro.obs.forensics`) and writes
  its artifacts;
* :mod:`repro.chaos.invariants` — the global invariant suite (budget
  conformance, Local-Log agreement, transmission-chain integrity,
  geo mirror consistency, at-most-once delivery, post-heal
  convergence);
* :mod:`repro.chaos.shrink` — delta-debugs a failing plan down to a
  minimal reproducing schedule and renders it as a standalone script.

CLI (the one command that runs a fault plan)::

    python -m repro.chaos --seed 7 --runs 10 --profile mixed
    python -m repro.chaos --seed 2 --profile byzantine --strict
"""

from repro.chaos.generator import ScheduleGenerator
from repro.chaos.invariants import Violation, check_plan_budget
from repro.chaos.plan import FaultAction, FaultBudget, FaultPlan
from repro.chaos.runner import ChaosResult, ChaosRunner
from repro.chaos.shrink import repro_script, shrink_plan

__all__ = [
    "ChaosResult",
    "ChaosRunner",
    "FaultAction",
    "FaultBudget",
    "FaultPlan",
    "ScheduleGenerator",
    "Violation",
    "check_plan_budget",
    "repro_script",
    "shrink_plan",
]
