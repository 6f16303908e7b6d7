"""Canary signature probes — active detection of promiscuous signers.

A :class:`~repro.core.byzantine.PromiscuousSigner` is invisible to
passive auditing: during normal operation it signs exactly what honest
nodes sign, with its true identity and valid MACs. The only way to
surface it is to ask for something *no honest log can substantiate* and
see who attests anyway.

:class:`CanaryProber` broadcasts one signature request per site and
probe time for a **canary digest** — a digest derived from the site
name that matches no committed record — at ``position=0``, which is
outside every Local Log (positions are 1-based). Honest nodes'
``_attest`` therefore refuses it, and because the log has already passed
position 0 they do not defer it either; a promiscuous node signs it
(journaled as a ``sign.response`` the auditor matches against its
registered canaries), and a forging node answers with its usual garbage
MAC (journaled as ``sign.invalid``). No collection waits for the
answers — the gateway journals them and drops them — so the probe is
*evidence-only*: it cannot mint a usable proof, and it never touches a
real transmission attestation.

Probing is the one deliberately *active* piece of the forensics layer:
it injects real SignRequest traffic, so it lives here (opt-in, used by
the detection-quality harness and the CLI) rather than inside the
passive auditor.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence

from repro.core.messages import SignRequest

#: Well-known prefix hashed into each site's canary digest.
CANARY_PREFIX = "bp-canary:"

#: Default virtual times (ms) at which each site is probed. Several
#: probes spread across a run keep coverage when the collecting node is
#: briefly down at one of them.
DEFAULT_PROBE_TIMES_MS = (1_000.0, 5_000.0, 11_000.0)


def canary_digest(site: str) -> str:
    """The unforgeable-bait digest for one site's probes."""
    return hashlib.sha256(
        f"{CANARY_PREFIX}{site}".encode("utf-8")
    ).hexdigest()


class CanaryProber:
    """Schedules canary signature requests across a deployment.

    Args:
        sim: The simulator to schedule probes on.
        deployment: The deployment under audit.
        auditor: When given, every canary digest is registered so
            matching ``sign.response`` events become
            ``promiscuous-signature`` findings.
        times_ms: Absolute virtual times at which to probe every site.
    """

    def __init__(
        self,
        sim,
        deployment,
        auditor=None,
        times_ms: Sequence[float] = DEFAULT_PROBE_TIMES_MS,
    ) -> None:
        self.sim = sim
        self.deployment = deployment
        self.digests: Dict[str, str] = {}
        self.probes_fired = 0
        for site in deployment.participants:
            digest = canary_digest(site)
            self.digests[site] = digest
            if auditor is not None:
                auditor.register_canary(digest, site)
            for at_ms in times_ms:
                sim.schedule_at(at_ms, self._fire, site)

    def _fire(self, site: str) -> None:
        """Probe one site: broadcast its canary request once from a live
        unit member (the gateway when it is up)."""
        unit = self.deployment.unit(site)
        if not unit.live_nodes():
            return
        gateway = unit.gateway_node()
        self.probes_fired += 1
        gateway.broadcast(
            gateway.peers,
            SignRequest(
                position=0, digest=self.digests[site], purpose="transmission"
            ),
        )
