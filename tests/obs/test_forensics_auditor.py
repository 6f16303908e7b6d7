"""Online auditor: every byzantine variant is attributed, honest and
crashed nodes never are.

Each test runs a real simulation with the flight recorder on and an
:class:`OnlineAuditor` subscribed live, then checks the report accuses
exactly the planted offender (or nobody).
"""

import dataclasses

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.byzantine import (
    ForgingSigner,
    ImpersonatingSigner,
    PromiscuousSigner,
    SilentUnitMember,
)
from repro.core.messages import (
    SignRequest,
    TransmissionAck,
    TransmissionMessage,
)
from repro.core.node import BlockplaneNode
from repro.core.verification import AcceptAll
from repro.obs import Observability
from repro.obs.forensics import CanaryProber, OnlineAuditor
from repro.pbft.byzantine import BogusEngine, EquivocatingLeader, TamperingVoter
from repro.pbft.config import PBFTConfig
from repro.sim.faults import FaultInjector
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology
from tests.pbft.helpers import commit_values, make_group

FAST = PBFTConfig(request_timeout_ms=20.0, view_change_timeout_ms=40.0)


def _audited_pair(seed=9, node_class_overrides=None, config=None,
                  routines_factory=None):
    obs = Observability(enabled=True, tracing=False)
    auditor = OnlineAuditor(obs.journal)
    sim = Simulator(seed=seed)
    obs.bind_clock(sim)
    deployment = BlockplaneDeployment(
        sim,
        symmetric_topology(["A", "B"], 20.0),
        config or BlockplaneConfig(f_independent=1),
        routines_factory=routines_factory,
        node_class_overrides=node_class_overrides,
        obs=obs,
    )
    return sim, deployment, auditor


def _roundtrip(sim, deployment, message="probe"):
    received = deployment.api("B").receive("A")
    sim.run_until_resolved(
        deployment.api("A").send(message, to="B"), max_events=20_000_000
    )
    sim.run(until=sim.now + 500, max_events=20_000_000)
    return received


# ----------------------------------------------------------------------
# PBFT-level misbehavior (bare group)
# ----------------------------------------------------------------------
def test_equivocating_leader_attributed():
    obs = Observability(enabled=True, tracing=False)
    auditor = OnlineAuditor(obs.journal)
    sim, replicas = make_group(
        overrides={0: EquivocatingLeader},
        config=FAST,
        override_kwargs={"forged_value": "EVIL"},
        obs=obs,
    )
    replicas[1].submit("GOOD")
    sim.run(until=500.0, max_events=20_000_000)
    report = auditor.report()
    assert report.accused() == ["r0"]
    kinds = {f.kind for f in report.findings if f.accusing and f.suspect == "r0"}
    assert "equivocation" in kinds
    # The signed conflicting proposals are in the evidence bundle.
    equivocation = next(
        f for f in report.findings if f.accusing and f.kind == "equivocation"
    )
    assert len(equivocation.context["digests"]) == 2
    assert equivocation.evidence


def test_tampering_voter_attributed():
    obs = Observability(enabled=True, tracing=False)
    auditor = OnlineAuditor(obs.journal)
    sim, replicas = make_group(overrides={2: TamperingVoter}, obs=obs)
    commit_values(sim, replicas[0], ["a", "b", "c"])
    sim.run(until=sim.now + 10)
    report = auditor.report()
    assert report.accused() == ["r2"]
    kinds = {f.kind for f in report.findings if f.accusing}
    assert "vote-mismatch" in kinds


def test_honest_group_accuses_nobody():
    obs = Observability(enabled=True, tracing=False)
    auditor = OnlineAuditor(obs.journal)
    sim, replicas = make_group(obs=obs)
    commit_values(sim, replicas[0], ["a", "b", "c"])
    sim.run(until=sim.now + 10)
    report = auditor.report()
    assert not any(f.accusing for f in report.findings)
    assert report.events_seen > 0


# ----------------------------------------------------------------------
# Blockplane-level misbehavior (full deployment)
# ----------------------------------------------------------------------
def test_forging_signer_attributed():
    sim, deployment, auditor = _audited_pair(
        node_class_overrides={"A-2": ForgingSigner}
    )
    received = _roundtrip(sim, deployment)
    assert received.resolved  # forgery is masked, pipeline unharmed
    report = auditor.report()
    assert report.accused() == ["A-2"]
    forged = next(
        f for f in report.findings if f.accusing and f.kind == "forged-signature"
    )
    assert forged.suspect == "A-2"


def test_impersonating_signer_attributed():
    sim, deployment, auditor = _audited_pair(
        node_class_overrides={"A-2": ImpersonatingSigner}
    )
    received = _roundtrip(sim, deployment)
    assert received.resolved
    report = auditor.report()
    assert "A-2" in report.accused()
    kinds = {f.kind for f in report.findings if f.accusing and f.suspect == "A-2"}
    assert "impersonation" in kinds


def test_silent_member_attributed_only_in_active_unit():
    sim, deployment, auditor = _audited_pair(
        node_class_overrides={"A-2": SilentUnitMember}
    )
    for value in ("one", "two"):
        sim.run_until_resolved(
            deployment.api("A").log_commit(value), max_events=20_000_000
        )
    sim.run(until=sim.now + 200, max_events=20_000_000)
    report = auditor.report()
    assert report.accused() == ["A-2"]
    silent = next(
        f for f in report.findings if f.accusing and f.kind == "silent-replica"
    )
    assert silent.participant == "A"
    assert silent.context["unit_log_length"] >= 2
    # Unit B never committed anything: its equally-quiet members are
    # NOT accused (an idle unit gives silence nothing to prove).
    assert not any(s.startswith("B-") for s in report.accused())


def test_crashed_node_is_never_accused_of_silence():
    sim, deployment, auditor = _audited_pair()
    deployment.unit("A").nodes[2].crash()
    for value in ("one", "two"):
        sim.run_until_resolved(
            deployment.api("A").log_commit(value), max_events=20_000_000
        )
    sim.run(until=sim.now + 200, max_events=20_000_000)
    report = auditor.report()
    # The crash is journaled, silence is explained.
    assert not any(f.accusing for f in report.findings)
    assert "A-2" in report.health["crashed_nodes"]


# ----------------------------------------------------------------------
# Canary probes
# ----------------------------------------------------------------------
def test_canary_catches_promiscuous_signer():
    sim, deployment, auditor = _audited_pair(
        node_class_overrides={"A-1": PromiscuousSigner}
    )
    prober = CanaryProber(
        sim, deployment, auditor=auditor, times_ms=(100.0, 400.0)
    )
    received = _roundtrip(sim, deployment)
    assert received.resolved  # probes never disturb real traffic
    assert prober.probes_fired > 0
    report = auditor.report()
    assert report.accused() == ["A-1"]
    promiscuous = next(
        f for f in report.findings
        if f.accusing and f.kind == "promiscuous-signature"
    )
    assert promiscuous.suspect == "A-1"
    assert report.health["canaries"] == 2  # one per site


def test_canaries_spare_honest_deployments():
    sim, deployment, auditor = _audited_pair()
    prober = CanaryProber(
        sim, deployment, auditor=auditor, times_ms=(100.0, 400.0)
    )
    received = _roundtrip(sim, deployment)
    assert received.resolved
    assert prober.probes_fired > 0
    report = auditor.report()
    # Honest signers refuse position 0: their logs can never hold it.
    assert not any(f.accusing for f in report.findings)


def test_canary_probe_is_one_broadcast_per_probe_time():
    sim, deployment, auditor = _audited_pair()
    network = deployment.network
    sent = {}
    forward = network.broadcast

    def counting(src, dst_ids, message):
        if isinstance(message, SignRequest) and message.position == 0:
            for dst in dst_ids:
                sent[(src, dst)] = sent.get((src, dst), 0) + 1
        forward(src, dst_ids, message)

    network.broadcast = counting
    CanaryProber(sim, deployment, auditor=auditor, times_ms=(100.0, 400.0))
    peers = {
        (unit.gateway_node().node_id, node.node_id)
        for unit in (deployment.unit("A"), deployment.unit("B"))
        for node in unit.nodes
        if node is not unit.gateway_node()
    }
    sim.run(until=99.0)
    assert sent == {}
    sim.run(until=399.0)  # nothing between the probes
    assert sent == {pair: 1 for pair in peers}
    sim.run(until=1_000.0)
    assert sent == {pair: 2 for pair in peers}


# ----------------------------------------------------------------------
# Link and health signals
# ----------------------------------------------------------------------
def test_tampered_transmission_is_refused_and_named_by_link():
    # One destination node per shipment, so the tampered copy is the
    # only one in flight and only the daemon's retransmission can land.
    sim, deployment, auditor = _audited_pair(
        config=BlockplaneConfig(f_independent=1, transmission_fanout=1)
    )
    tampered, acks = [], []

    def first_wan_copy(src, dst, msg):
        if tampered or not isinstance(msg, TransmissionMessage):
            return False
        if not (src.startswith("A-") and dst.startswith("B-")):
            return False
        tampered.append((dst, msg.sealed.record.source_position))
        return True

    def corrupt(msg):
        record = dataclasses.replace(
            msg.sealed.record, message=("corrupted", msg.sealed.record.message)
        )
        return dataclasses.replace(
            msg, sealed=dataclasses.replace(msg.sealed, record=record)
        )

    def ack_seen(src, dst, msg):
        if isinstance(msg, TransmissionAck):
            acks.append((sim.now, src, msg.source_position))
        return False

    injector = FaultInjector(sim, deployment.network)
    injector.tamper_matching(first_wan_copy, corrupt)
    injector.tamper_matching(ack_seen, lambda msg: msg)
    received = _roundtrip(sim, deployment, message="original")

    ((target, position),) = tampered
    (rejected,) = [e for e in deployment.obs.journal if e.kind == "proof.rejected"]
    assert (rejected.node, rejected.args["position"]) == (target, position)
    assert rejected.args["reason"] == "ingress-proof"
    # Refused without an ack: the receiver acknowledged the position only
    # once the daemon's retransmission arrived, after the rejection.
    ack_times = [at for at, src, pos in acks if src == target and pos == position]
    assert ack_times and min(ack_times) > rejected.at_ms
    assert received.result() == "original"
    report = auditor.report()
    (finding,) = [f for f in report.findings if f.kind == "tampered-transmission"]
    assert (finding.suspect, finding.suspect_kind) == ("A->B", "link")
    assert finding.participant == "B"
    # A link finding accuses no replica.
    assert not any(f.accusing for f in report.findings)


class _RejectIllegal(AcceptAll):
    def verify_log_commit(self, value, meta):
        return value != ("illegal-transition",)


class _BogusLeader(BlockplaneNode):
    """A unit leader that proposes values no honest member verifies."""

    engine_class = BogusEngine

    def pre_validate(self, msg):
        return None


def test_verify_rejects_are_counted_as_unit_health():
    sim, deployment, auditor = _audited_pair(
        node_class_overrides={"A-0": _BogusLeader},
        routines_factory=lambda participant: _RejectIllegal(),
    )
    deployment.api("A").log_commit("legal-value")
    sim.run(until=500.0, max_events=20_000_000)
    health = auditor.report().health["participants"]
    assert health["A"]["verify_rejects"] >= 2  # every honest member refused
    assert health["B"]["verify_rejects"] == 0
