"""Hot-path memoization for the crypto layer.

Two cache classes amortize the dominant CPU costs of a simulated deployment:

* :class:`IdentityLRU` — backs :func:`repro.crypto.digest.cached_digest`.
  Keys are **object identities**: the simulator passes application
  values between replicas by reference, so the same payload object has
  its digest requested once per replica per protocol phase. Each cache
  entry holds a strong reference to the keyed object, which makes
  identity keying sound: an id can never be recycled while its entry is
  alive, and eviction drops both together.
* :class:`KeyedLRU` — backs the content-keyed
  :func:`repro.crypto.digest.formula_digest` and the per-registry
  verification cache in :class:`~repro.crypto.keys.KeyRegistry`, keyed
  by the full ``(signer, digest, mac)`` triple plus the registry's
  mutation version, so a forged mac never aliases a cached honest
  verdict and a key registration invalidates every prior verdict
  wholesale.

Every cache is **semantically invisible**: it only ever returns a
value that recomputing from scratch would also return.
:func:`repro.crypto.digest.stable_digest` and
:func:`repro.crypto.signatures._verify_uncached` are the uncached
references the cache-correctness tests compare against.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

class IdentityLRU:
    """A bounded LRU keyed by object identity.

    Entries pin the keyed object (see module docstring), so the cache
    must stay bounded: beyond ``maxsize`` the least-recently-used entry
    (object and value) is evicted together.
    """

    __slots__ = ("maxsize", "_entries", "hits", "misses")

    def __init__(self, maxsize: int = 8192) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[int, Tuple[Any, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def lookup(self, obj: Any) -> Optional[Any]:
        """Cached value for ``obj``, or None on a miss."""
        key = id(obj)
        entry = self._entries.get(key)
        if entry is None or entry[0] is not obj:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry[1]

    def store(self, obj: Any, value: Any) -> None:
        """Record ``value`` for ``obj``, evicting the LRU tail."""
        key = id(obj)
        self._entries[key] = (obj, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)


class KeyedLRU:
    """A bounded LRU over hashable keys."""

    __slots__ = ("maxsize", "_entries", "hits", "misses")

    def __init__(self, maxsize: int = 16384) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing on a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return value
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def lookup(self, key: Any) -> Optional[Any]:
        """Cached value for ``key``, or None on a miss — for callers
        that store conditionally (e.g. only deeply-immutable values)."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def store(self, key: Any, value: Any) -> None:
        """Record ``value`` for ``key``, evicting the LRU tail."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
