"""Fault injection: crashes, partitions, message loss, tampering.

The paper distinguishes *independent byzantine failures* (arbitrary
behaviour of single nodes) from *benign geo-correlated failures* (an
entire datacenter crashing). :class:`FaultInjector` can stage both,
plus the network-level misbehaviour (drops, delays, corruption) that
Blockplane's transmission-record machinery must survive.

Windowed faults (``partition``, ``drop_probabilistically``,
``tamper_matching`` with an ``end``) uninstall themselves once the
window closes: a removal is scheduled at ``end`` and the hook also
self-sweeps if it happens to run after its window, so long chaos runs
never accumulate dead hooks on the network's hot send path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from repro.sim.network import DropFilter, TamperHook

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network
    from repro.sim.node import Node
    from repro.sim.simulator import Simulator


class FaultInjector:
    """Schedules failures against a simulator/network pair."""

    def __init__(self, sim: "Simulator", network: "Network") -> None:
        self.sim = sim
        self.network = network

    # ------------------------------------------------------------------
    # Crashes
    # ------------------------------------------------------------------
    def crash_at(self, node: "Node", at: float) -> None:
        """Crash ``node`` at absolute virtual time ``at``."""
        self.sim.schedule_at(at, node.crash)

    def recover_at(self, node: "Node", at: float) -> None:
        """Recover ``node`` at absolute virtual time ``at``."""
        self.sim.schedule_at(at, node.recover)

    def crash_cycle(self, node: "Node", down_at: float, up_at: float) -> None:
        """One crash/recover cycle: down in ``[down_at, up_at)``."""
        self.crash_at(node, down_at)
        self.recover_at(node, up_at)

    def crash_site_at(self, site: str, at: float) -> None:
        """Geo-correlated failure: crash every node in a datacenter.

        This is the paper's ``fg`` failure model — a whole-participant
        outage (Section V, Figure 8).
        """

        def _down() -> None:
            for node in self.network.nodes_at_site(site):
                node.crash()

        self.sim.schedule_at(at, _down)

    def recover_site_at(self, site: str, at: float) -> None:
        """Bring a crashed datacenter back."""

        def _up() -> None:
            for node in self.network.nodes_at_site(site):
                if node.crashed:
                    node.recover()

        self.sim.schedule_at(at, _up)

    def site_outage(self, site: str, down_at: float, up_at: float) -> None:
        """One whole-site outage window ``[down_at, up_at)``."""
        self.crash_site_at(site, down_at)
        self.recover_site_at(site, up_at)

    # ------------------------------------------------------------------
    # Network faults
    # ------------------------------------------------------------------
    def _install_windowed_drop(
        self,
        predicate: Callable[[str, str, Any], bool],
        start: float,
        end: Optional[float],
    ) -> DropFilter:
        """Install a drop filter active in ``[start, end)`` that removes
        itself once the window is over."""

        def _drop(src: str, dst: str, msg: Any) -> bool:
            now = self.sim.now
            if now < start:
                return False
            if end is not None and now >= end:
                # Expired but still installed (the scheduled sweep has
                # not fired yet, or the injector outlived its
                # simulator's run) — self-sweep.
                self.network.remove_drop_filter(_drop)
                return False
            return predicate(src, dst, msg)

        self.network.add_drop_filter(_drop)
        if end is not None:
            self.sim.schedule_at(
                max(end, self.sim.now),
                self.network.remove_drop_filter, _drop,
            )
        return _drop

    def partition(
        self,
        group_a: Iterable[str],
        group_b: Iterable[str],
        start: float,
        end: Optional[float] = None,
    ) -> DropFilter:
        """Drop all traffic between two node-id groups in [start, end)."""
        set_a = set(group_a)
        set_b = set(group_b)

        def _blocked(src: str, dst: str, _msg: Any) -> bool:
            return (src in set_a and dst in set_b) or (
                src in set_b and dst in set_a
            )

        return self._install_windowed_drop(_blocked, start, end)

    def drop_probabilistically(
        self, probability: float, start: float = 0.0, end: Optional[float] = None
    ) -> DropFilter:
        """Drop each message with the given probability (seeded RNG)."""

        def _lossy(_src: str, _dst: str, _msg: Any) -> bool:
            return self.sim.rng.random() < probability

        return self._install_windowed_drop(_lossy, start, end)

    def tamper_matching(
        self,
        predicate: Callable[[str, str, Any], bool],
        mutate: Callable[[Any], Any],
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> TamperHook:
        """Byzantine link: replace matching messages with
        ``mutate(message)`` (return None from ``mutate`` to swallow).
        With an ``end`` the hook is windowed and auto-removed."""

        def _hook(src: str, dst: str, msg: Any) -> Any:
            now = self.sim.now
            if now < start:
                return msg
            if end is not None and now >= end:
                self.network.remove_tamper_hook(_hook)
                return msg
            if predicate(src, dst, msg):
                return mutate(msg)
            return msg

        self.network.add_tamper_hook(_hook)
        if end is not None:
            self.sim.schedule_at(
                max(end, self.sim.now),
                self.network.remove_tamper_hook, _hook,
            )
        return _hook
