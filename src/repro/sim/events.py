"""Cancellable handles for the discrete-event simulator.

:meth:`Simulator.schedule` returns an :class:`Event`, the handle that
revokes the callback it scheduled. The simulator (see
:mod:`repro.sim.simulator`) keeps the callback itself in a plain
``(time, seq, fn, args, handle)`` queue entry, ordered by C-level tuple
comparison: ``seq`` is a monotonically increasing insertion counter, so
two entries at the same instant always fire in the order they were
scheduled, which keeps every simulation deterministic.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Any, Optional


@dataclasses.dataclass(slots=True)
class Event:
    """The handle of a callback scheduled on the simulator's clock.

    Attributes:
        cancelled: When true the event is skipped at fire time. Use
            :meth:`cancel` rather than mutating this directly.
        owner: The simulator whose queue currently holds this event; set
            at schedule time and cleared when the event leaves the queue.
            Lets :meth:`cancel` report to the owner's tombstone
            counters without the simulator scanning its heap.
        ready: True when the event lives in the owner's zero-delay ready
            queue instead of the time-ordered heap. Maintained by the
            simulator; cancellation bookkeeping differs between the two
            containers (ready-queue tombstones are swept in FIFO order,
            never compacted).
    """

    cancelled: bool = False
    owner: Optional[Any] = dataclasses.field(default=None, repr=False)
    ready: bool = False

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling is O(1): the event stays in its queue as a tombstone
        and is discarded when popped (or swept by the owner's
        compaction pass if tombstones come to dominate the heap).
        Cancelling an event that already fired, or a second time, is a
        no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancelled(self)


#: The handle of every entry nobody can cancel: never a tombstone, and
#: the event loop's release of it is a harmless write.
_FIRE_AND_FORGET = types.SimpleNamespace(cancelled=False, owner=None)
