"""Work proof for the flight recorder's emit path.

Wall-clock says whether ``obs.event`` got faster on this machine today;
these tests say *why*, deterministically: how many Python frames one
event costs and how many times its ``args`` dict is materialised.
"""

import gc
import sys

from repro.obs import Observability
from repro.sim.simulator import Simulator

EVENTS = 50


def _bound_hub(**kwargs) -> Observability:
    obs = Observability(**kwargs)
    obs.bind_clock(Simulator(seed=0))
    return obs


def _vote(obs, seq):
    return obs.event(
        "pbft.vote", participant="C", node="C-0", phase="prepare",
        view=0, seq=seq, digest="d", voter="C-1", src="C-1",
    )


def _profile_votes(obs):
    """Run EVENTS votes under ``sys.setprofile``; return the frames
    entered (Python-level ``call`` events only) and the last result."""
    frames = []

    def profiler(frame, event, _arg):
        if event == "call":
            frames.append(frame)

    result = None
    gc.disable()  # a collection would run other suites' gc callbacks here
    sys.setprofile(profiler)
    try:
        for seq in range(EVENTS):
            result = _vote(obs, seq)
    finally:
        sys.setprofile(None)
        gc.enable()
    # ``_vote`` itself is a frame per event; it is the caller, not the
    # cost of emitting.
    return [f for f in frames if f.f_code is not _vote.__code__], result


def test_one_event_costs_at_most_two_python_calls():
    obs = _bound_hub(forensics=True)
    frames, _ = _profile_votes(obs)
    # The emit frame and ProtocolEvent.__init__ — no clock property, no
    # hub -> journal hop.
    assert len(frames) <= 2 * EVENTS, {f.f_code.co_name for f in frames}
    assert obs.journal.recorded == EVENTS


def test_args_dict_is_materialised_once():
    obs = _bound_hub(forensics=True)
    seen = {}

    def profiler(frame, event, _arg):
        if event == "call":
            for value in frame.f_locals.values():
                if isinstance(value, dict) and "voter" in value:
                    seen[id(value)] = value

    sys.setprofile(profiler)
    try:
        event = _vote(obs, 7)
    finally:
        sys.setprofile(None)
    # Exactly one dict ever held the keyword payload: the one the call
    # built, which the stored event now owns.
    assert list(seen) == [id(event.args)]
    assert obs.journal.events()[-1] is event


def test_forensics_off_event_is_a_single_call_and_records_nothing():
    obs = _bound_hub(forensics=False)
    frames, result = _profile_votes(obs)
    assert len(frames) == EVENTS  # ``event`` itself, nothing beyond it
    assert result is None
    assert obs.journal.recorded == 0
