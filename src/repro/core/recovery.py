"""Recovery helpers (Section VI-B of the paper).

Most recovery is built into the components themselves — PBFT view
changes replace a failed unit leader, catch-up resynchronizes a
recovered replica, and the geo coordinator fails over a dead primary
participant. The utilities here give tests and operators convenient
handles on those mechanisms.
"""

from __future__ import annotations

from typing import Optional

from repro.core.unit import BlockplaneUnit
from repro.sim.process import Future


def current_leader(unit: BlockplaneUnit) -> Optional[str]:
    """Node id of the unit's current PBFT leader, if one is live.

    Uses the highest view among live nodes (nodes may transiently
    disagree during a view change).
    """
    live = unit.live_nodes()
    if not live:
        return None
    view = max(node.view for node in live)
    return live[0].engine.leader_of(view)


def await_log_length(unit: BlockplaneUnit, length: int) -> Future:
    """Future resolving once *every live node* of the unit has applied
    at least ``length`` Local Log entries (convergence check)."""
    sim = unit.sim

    def _poll():
        while True:
            live = unit.live_nodes()
            if live and all(len(node.local_log) >= length for node in live):
                return sim.now
            yield sim.sleep(1.0)

    return sim.spawn(_poll())


def force_view_change(unit: BlockplaneUnit) -> None:
    """Push every live node toward the next view (testing hook —
    production view changes are triggered by request timeouts)."""
    live = unit.live_nodes()
    if not live:
        return
    target = max(node.view for node in live) + 1
    obs = live[0].obs
    if obs.forensics:
        obs.event(
            "recovery.force_view_change", participant=unit.participant,
            target_view=target, live=[node.node_id for node in live],
        )
    for node in live:
        node.engine.start_view_change(target)
