"""Cuboid repository (Figure 6): a bounded store of computed S-cuboids.

The paper notes that with limited storage the repository "could be
implemented as a cache with an appropriate replacement policy such as LRU";
this is that implementation, with both an entry-count bound and an
approximate byte budget.  A hit lets DE-TAIL / DE-HEAD (and any repeated
query) return instantly — Section 4.2.2's ``Qc`` example.

Two replacement policies are available:

* ``"lru"`` — classic least-recently-used (the paper's suggestion).
* ``"benefit"`` — benefit-weighted and aged, GreedyDual-Size style
  (Cao & Irani 1997).  An entry's priority is ``L + cost_seconds *
  (1 + hits) / bytes``, set when it is stored and refreshed on every
  hit; the victim is the entry with the lowest priority, and ``L`` (the
  inflation floor) rises to each victim's priority.  So a cuboid that is
  cheap to recompute per byte goes first, but one that has not been
  touched for a while ages out even if it was once hit often.  The entry
  being stored is never its own victim (unless it alone overflows the
  byte budget).  Ties fall back to LRU order.

Entries remember the byte estimate taken at insert time, so accounting
stays exact even if a cached cuboid's cell dict is later mutated in
place (the old estimate, not a re-estimate of the mutated object, is
subtracted on overwrite and eviction).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, List, Optional, Tuple

from repro.core.cuboid import SCuboid


def _value_bytes(value: object) -> int:
    """Approximate payload bytes for one stored aggregate value.

    Derived cuboids can carry structured payloads — notably AVGPAIR's
    ``(sum, count)`` transport tuples — which the old flat per-aggregate
    constant undercounted.
    """
    if isinstance(value, tuple):
        return 56 + 16 * len(value)
    if isinstance(value, str):
        return 49 + len(value)
    return 28


def estimate_cuboid_bytes(cuboid: SCuboid) -> int:
    """Rough footprint: key cells plus the actual cell payloads."""
    dims = len(cuboid.spec.group_by) + cuboid.spec.template.n_dims
    per_cell_base = 96 + 8 * dims
    total = 0
    for values in cuboid.cells.values():
        total += per_cell_base
        for value in values.values():
            total += 48 + _value_bytes(value)
    return total


def estimate_cells_bytes(n_dims: int, n_aggregates: int, n_cells: int) -> int:
    """Footprint estimate from counts alone (for log-mined workloads)."""
    per_cell = 96 + 8 * n_dims + n_aggregates * (48 + 28)
    return per_cell * n_cells


class _Entry:
    """Repository slot: the cuboid plus its replacement-policy metadata."""

    __slots__ = ("cuboid", "bytes", "cost_seconds", "hits", "priority")

    def __init__(self, cuboid: SCuboid, nbytes: int, cost_seconds: float):
        self.cuboid = cuboid
        self.bytes = nbytes
        self.cost_seconds = cost_seconds
        self.hits = 0
        #: aged benefit (policy "benefit"); set by the repository
        self.priority = 0.0

    def benefit(self) -> float:
        """Recompute cost retained per byte, weighted by reuse."""
        return self.cost_seconds * (1.0 + self.hits) / max(1, self.bytes)


class CuboidRepository:
    """Bounded store of S-cuboids keyed by spec cache keys.

    Thread-safe: service sessions share one repository, so the recency
    order, the byte accounting and the hit/miss/eviction counters are
    guarded by a single non-reentrant lock (``_evict`` is only ever
    called with the lock already held).
    """

    POLICIES = ("lru", "benefit")

    def __init__(
        self,
        capacity: int = 64,
        byte_budget: int = 256 * 1024 * 1024,
        policy: str = "lru",
    ):
        if capacity < 1:
            raise ValueError("repository capacity must be >= 1")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown repository policy {policy!r}; use one of {self.POLICIES}")
        self.capacity = capacity
        self.byte_budget = byte_budget
        self.policy = policy
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._bytes = 0
        #: the benefit policy's inflation floor L: the last victim's priority
        self._floor = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[SCuboid]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            entry.priority = self._floor + entry.benefit()
            self.hits += 1
            return entry.cuboid

    def put(self, key: Hashable, cuboid: SCuboid, cost_seconds: float = 0.0) -> None:
        nbytes = estimate_cuboid_bytes(cuboid)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                # Subtract the estimate recorded at insert time, NOT a fresh
                # estimate of the (possibly mutated) old object — re-estimating
                # here is how overwrites used to corrupt the byte ledger.
                self._bytes -= old.bytes
            entry = _Entry(cuboid, nbytes, cost_seconds)
            self._entries[key] = entry
            self._bytes += nbytes
            self._evict(key)
            entry.priority = self._floor + entry.benefit()

    def _evict(self, incoming: Hashable) -> None:
        # caller must hold self._lock
        while self._entries and (
            len(self._entries) > self.capacity or self._bytes > self.byte_budget
        ):
            victim = self._pick_victim(incoming)
            entry = self._entries.pop(victim)
            self._bytes -= entry.bytes
            self.evictions += 1
            self._floor = max(self._floor, entry.priority)

    def _pick_victim(self, incoming: Hashable) -> Hashable:
        # caller must hold self._lock; self._entries is non-empty, and
        # *incoming* (the key just stored) is its newest entry
        if self.policy == "lru" or len(self._entries) == 1:
            return next(iter(self._entries))
        # Benefit-weighted: evict the lowest aged priority among the
        # entries already stored.  Strict ``<`` keeps ties in LRU order
        # (OrderedDict iterates coldest-first).
        best_key = None
        best_priority = None
        for key, entry in self._entries.items():
            if key == incoming:
                continue
            if best_priority is None or entry.priority < best_priority:
                best_key = key
                best_priority = entry.priority
        return best_key

    def items(self) -> List[Tuple[Hashable, SCuboid, float]]:
        """Snapshot of ``(key, cuboid, cost_seconds)`` without touching recency.

        Used by the semantic-cache planner to scan derivation candidates.
        """
        with self._lock:
            return [(k, e.cuboid, e.cost_seconds) for k, e in self._entries.items()]

    def entry_stats(self, key: Hashable) -> Optional[dict]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            return {
                "bytes": entry.bytes,
                "cost_seconds": entry.cost_seconds,
                "hits": entry.hits,
            }

    def invalidate(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry.bytes
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._floor = 0.0

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"CuboidRepository({len(self._entries)}/{self.capacity} cuboids, "
            f"{self._bytes / 1e6:.3f} MB, policy={self.policy}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
