"""Detection quality against chaos ground truth.

These are the acceptance gates: recall 1.0 on the shipped seeds (every
injected byzantine node and effective withhold route attributed) and
precision 1.0 on fault-free replays (zero false accusations). Seeds
are pinned; the chaos stack is deterministic, so these runs reproduce
bit-identically.
"""

from repro.chaos.generator import ScheduleGenerator
from repro.chaos.runner import ChaosRunner
from repro.obs.forensics import DetectionScore

_SWEEP = dict(batches=6, horizon_ms=12_000.0, settle_ms=8_000.0)


def _plan(seed, profile, run_index=0):
    return ScheduleGenerator(seed, profile=profile, **_SWEEP).generate(
        run_index
    )


# ----------------------------------------------------------------------
# Score arithmetic
# ----------------------------------------------------------------------
def test_score_arithmetic():
    score = DetectionScore(expected=("I-2", "V-3"), detected=("I-2", "O-1"))
    assert score.true_positives == ("I-2",)
    assert score.false_accusations == ("O-1",)
    assert score.missed == ("V-3",)
    assert score.recall == 0.5
    assert score.precision == 0.5
    assert not score.perfect
    empty = DetectionScore(expected=(), detected=())
    assert empty.perfect  # nothing planted, nobody accused


# ----------------------------------------------------------------------
# Recall on shipped byzantine seeds
# ----------------------------------------------------------------------
def test_byzantine_seed_attributes_forger_and_silent_node():
    run = ChaosRunner(_plan(2, "byzantine")).run()
    assert run.ok  # safety invariants held throughout
    assert "I-2" in run.score.expected and "V-3" in run.score.expected
    assert run.score.perfect, run.score.summary()
    kinds = {f.kind for f in run.report.findings if f.accusing}
    assert "forged-signature" in kinds or "silent-replica" in kinds


def test_byzantine_seed_attributes_promiscuous_via_canary():
    run = ChaosRunner(_plan(7, "byzantine", run_index=1)).run()
    assert run.score.perfect, run.score.summary()
    assert run.score.expected  # the seed really plants someone


def test_mixed_seed_attributes_effective_withholding():
    run = ChaosRunner(_plan(18, "mixed")).run()
    assert run.score.perfect, run.score.summary()
    assert any("->" in suspect for suspect in run.score.expected), (
        "seed 18 run 0 is the pinned effective-withhold fixture; "
        "regenerate if the chaos generator changed"
    )
    withheld = next(
        f for f in run.report.findings
        if f.accusing and f.kind == "withheld-transmissions"
    )
    assert withheld.suspect_kind == "daemon"
    assert withheld.context["positions"]


def test_vacuous_withholds_are_not_expected_and_not_detected():
    # Seed 20's withhold windows never coincide with a gateway commit:
    # ground truth post-filtering and the auditor must agree (nothing
    # expected, nothing accused).
    run = ChaosRunner(_plan(20, "byzantine")).run()
    planned_withholds = [
        action for action in run.plan.actions if action.kind == "withhold"
    ]
    assert planned_withholds  # the seed does plan them
    assert not any("->" in s for s in run.score.expected)
    assert run.score.perfect, run.score.summary()


def test_expected_accusations_reads_plan_ground_truth():
    # Byzantine plants are unconditional ground truth: every one shows
    # up in the expected set regardless of what the run did.
    plan = _plan(2, "byzantine")
    run = ChaosRunner(plan).run()
    planted = {
        f"{action.site}-{action.node_index}"
        for action in plan.actions if action.kind == "byzantine"
    }
    assert planted
    assert planted <= set(run.score.expected)


# ----------------------------------------------------------------------
# Precision: fault-free replays accuse nobody
# ----------------------------------------------------------------------
def test_fault_free_replays_accuse_nobody():
    for seed, profile in ((7, "byzantine"), (11, "mixed")):
        run = ChaosRunner(_plan(seed, profile).with_actions(())).run()
        assert not any(
            f.accusing for f in run.report.findings
        ), run.report.to_text()
        assert run.score.perfect
        assert run.score.expected == () == run.score.detected

