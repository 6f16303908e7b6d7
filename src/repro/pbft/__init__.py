"""Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI '99).

Blockplane performs every Local-Log commit with PBFT inside one
datacenter (Section IV-B of the paper). This package implements the full
normal case (pre-prepare / prepare / commit / reply), view changes,
checkpoints, and recovery catch-up, plus the paper's two Blockplane
modifications:

1. every value carries a *record-type annotation* (log-commit record vs
   communication record vs received record), and
2. a replica that reaches the *prepared* state calls a user-supplied
   **verification routine** before broadcasting its commit vote, so
   byzantine proposals that are not valid state transitions of the
   wrapped protocol never gather a commit quorum.

The package also ships byzantine replica variants
(:mod:`repro.pbft.byzantine`) used by the test suite to validate those
guarantees.
"""
