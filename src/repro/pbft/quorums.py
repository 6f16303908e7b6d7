# bp-lint: disable=BP002 -- the one module allowed to spell the raw formulas
"""Quorum arithmetic for the PBFT / Blockplane fault model.

This module is the *only* place the ``3f + 1`` / ``2f + 1`` / ``f + 1``
formulas may be written out (the static analysis rule BP002 flags the
raw arithmetic everywhere else). Centralising them keeps every layer —
the PBFT replica, the baselines, the middleware configuration, and the
chaos invariant suite — derived from the same configured ``f``/``fg``
instead of hand-copied literals that silently drift.

The formulas, for ``n = 3f + 1`` replicas tolerating ``f`` byzantine
members (Castro & Liskov; Blockplane Section IV):

* ``unit_size(f)`` — the minimum group size ``3f + 1``.
* ``max_faulty(n)`` — the largest ``f`` a group of ``n`` tolerates.
* ``commit_quorum(f)`` — ``2f + 1`` matching votes: any two such
  quorums intersect in at least ``f + 1`` replicas, hence in at least
  one honest replica.
* ``reply_quorum(f)`` — ``f + 1`` matching replies/vouchers: at least
  one is honest.
* ``proof_quorum(f)`` — ``f + 1`` signatures: a transmission proof
  contains at least one honest signature (Lemma 2).
* ``site_majority(sites)`` — a benign majority of participants for the
  wide-area (Paxos-style) phase.
"""

from __future__ import annotations


def unit_size(f: int) -> int:
    """Replicas needed to tolerate ``f`` byzantine members: ``3f + 1``."""
    return 3 * f + 1


def max_faulty(n: int) -> int:
    """Byzantine members a group of ``n`` tolerates: ``(n - 1) // 3``."""
    return (n - 1) // 3


def commit_quorum(f: int) -> int:
    """Votes that fix a value in a ``3f + 1`` group: ``2f + 1``."""
    return 2 * f + 1


def reply_quorum(f: int) -> int:
    """Matching replies guaranteeing an honest voice: ``f + 1``."""
    return f + 1


def proof_quorum(f: int) -> int:
    """Signatures in a valid transmission/mirror proof: ``f + 1``."""
    return f + 1


def majority(n: int) -> int:
    """Benign (crash-fault) majority of ``n`` voters: ``n // 2 + 1``."""
    return n // 2 + 1


def site_majority(sites: int) -> int:
    """Benign majority of ``sites`` participants (wide-area phase)."""
    return majority(sites)
