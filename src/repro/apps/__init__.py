"""Protocols byzantized through the Blockplane API.

* :mod:`repro.apps.counter` — the distributed counting protocol of the
  paper's Algorithm 1, including the three verification routines the
  paper sketches for it.
* :mod:`repro.apps.bp_paxos` — Blockplane-Paxos (Algorithm 3 /
  Section VI-E): benign Paxos whose durability and messaging run
  entirely through ``log_commit``/``send``/``receive``. This is the
  system Figure 7 benchmarks.
* :mod:`repro.apps.kvstore` — a partitioned replicated key-value store
  where each participant owns a key range and operations are routed to
  owners through the middleware.
* :mod:`repro.apps.bank` — an account ledger whose verification
  routines reject illegal transitions (overdrafts, forged transfers),
  demonstrating Lemma 3 end to end.
* :mod:`repro.apps.lockservice` — a cross-organization lock service
  whose mutual-exclusion invariant is enforced by stateful
  verification routines rather than by trusting the hosting node.
"""
