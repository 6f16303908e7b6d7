"""Paxos (Lamport, "Paxos Made Simple").

One sans-IO protocol core, :class:`~repro.paxos.core.PaxosCore` (multi-decree Paxos with
ballot-based leader election amortized across slots and per-slot
replication), runs under two hosts, mirroring the paper:

* :class:`~repro.paxos.node.MultiPaxosNode`, the **flat wide-area baseline** of Figure 7
  (one node per datacenter, no byzantine tolerance), and
* :class:`repro.apps.bp_paxos.BlockplanePaxosParticipant`, the benign
  protocol ``P`` that Section VI-E *byzantizes* through the Blockplane
  API — it speaks the same core purely through
  ``log_commit``/``send``/``receive``.

The Hierarchical PBFT baseline does not use it: its global layer is
its own ``GlobalAccept`` round (:mod:`repro.baselines.hierarchical_pbft`).
"""
