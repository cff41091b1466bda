"""A consistent hash ring mapping session keys onto worker shards.

Routing must be a pure function of the key and the shard set — the same
key must land on the same shard in the router, in a test's reference
run, and across a router restart — so the ring hashes with ``md5``
(stable across processes and platforms) rather than Python's
per-process-salted ``hash``.

Each shard owns a weighted number of virtual nodes on a 64-bit ring; a
key routes to the first shard point at or after its own hash, wrapping.
Consistent hashing buys three things the cluster leans on:

* a crashed-and-restarted worker keeps its shard name, so its keys map
  back to it and the router's journal replay restores its sessions;
* :meth:`lookup` can *skip* draining shards — keys owned by a draining
  shard spill to their ring successor, while every other key keeps its
  old mapping, which is exactly the "stop routing new sessions, leave
  the rest alone" semantics of a graceful drain;
* a topology change (join, retire, reweight) moves a **bounded** set of
  keys: :meth:`plan_rebalance` enumerates exactly the keys whose owner
  changes between two rings, and proves nothing else moves — the
  contract live migration is built on.

Weights size a shard's vnode count (``max(1, round(replicas * w))``),
so a half-weight shard attracts roughly half the keys — the knob for
heterogeneous workers or slow-start of a fresh join.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import md5

__all__ = ["HashRing"]


def _hash64(data: str) -> int:
    return int.from_bytes(md5(data.encode()).digest()[:8], "big")


_CACHE_CAP = 65536


class HashRing:
    """Weighted virtual nodes per shard on a 64-bit md5 ring.

    Lookups are memoized: the md5 + bisect walk runs once per distinct
    key, then a dict hit answers repeats.  The cache is keyed to the
    ``skip`` set in force when it was filled — any topology change
    (a shard starts or stops draining) empties it wholesale, so a stale
    route can never be served.  Memoization is an observably pure
    speedup: routing stays a function of ``(key, skip)`` alone.
    """

    def __init__(self, shards, replicas: int = 64, weights=None):
        self.shards = tuple(shards)
        if not self.shards:
            raise ValueError("a ring needs at least one shard")
        if len(set(self.shards)) != len(self.shards):
            raise ValueError("duplicate shard names")
        self.replicas = replicas
        weights = dict(weights or {})
        unknown = set(weights) - set(self.shards)
        if unknown:
            raise ValueError(f"weights for unknown shards: {sorted(unknown)}")
        self.weights = {s: float(weights.get(s, 1.0)) for s in self.shards}
        self.vnodes: dict[str, int] = {}
        points = []
        for shard in self.shards:
            w = self.weights[shard]
            if not w > 0:
                raise ValueError(f"shard {shard!r} needs a positive weight")
            # A shard's vnode names are a prefix of the unweighted
            # ring's ("{shard}#0" .. "#k-1"): re-weighting a shard only
            # adds or removes its own points, so only keys touching
            # those points can move.
            count = max(1, round(replicas * w))
            self.vnodes[shard] = count
            for i in range(count):
                points.append((_hash64(f"{shard}#{i}"), shard))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]
        self._cache: dict[str, str] = {}
        self._cache_skip: frozenset = frozenset()

    def lookup(self, key: str, skip=frozenset()) -> str:
        """The shard owning ``key``, skipping any shard in ``skip``.

        With every shard skipped there is nowhere to route;
        ``ValueError``.
        """
        cache = self._cache
        if skip != self._cache_skip:
            # Topology changed since the cache was filled: every cached
            # route is suspect (a key owned by a newly skipped shard
            # must spill to its successor; a key that had spilled may
            # return home).  Rebuild from scratch under the new skip.
            self._cache_skip = frozenset(skip)
            cache = self._cache = {}
        else:
            shard = cache.get(key)
            if shard is not None:
                return shard
        points = self._points
        n = len(points)
        start = bisect_right(self._hashes, _hash64(key))
        for i in range(n):
            shard = points[(start + i) % n][1]
            if shard not in skip:
                if len(cache) >= _CACHE_CAP:
                    cache.clear()
                cache[key] = shard
                return shard
        raise ValueError("every shard is draining or down; nowhere to route")

    # -- topology derivation ------------------------------------------

    def with_shard(self, shard: str, weight: float = 1.0) -> "HashRing":
        """A new ring with ``shard`` joined, existing weights kept."""
        weights = dict(self.weights)
        weights[shard] = weight
        return HashRing(
            self.shards + (shard,), replicas=self.replicas, weights=weights
        )

    def without_shard(self, shard: str) -> "HashRing":
        """A new ring with ``shard`` removed, existing weights kept."""
        if shard not in self.shards:
            raise ValueError(f"unknown shard {shard!r}")
        survivors = tuple(s for s in self.shards if s != shard)
        weights = {s: w for s, w in self.weights.items() if s != shard}
        return HashRing(survivors, replicas=self.replicas, weights=weights)

    def plan_rebalance(
        self, new_ring: "HashRing", keys, skip=frozenset(), new_skip=None
    ) -> dict[str, tuple[str, str]]:
        """Exactly the key moves stepping to ``new_ring`` implies.

        Returns ``{key: (old_shard, new_shard)}`` for every key in
        ``keys`` whose owner differs between this ring (under ``skip``)
        and ``new_ring`` (under ``new_skip``, defaulting to ``skip``
        minus shards the new ring no longer has).  Keys absent from the
        plan provably do not move — the bounded-movement contract the
        migration protocol enforces.
        """
        if new_skip is None:
            new_skip = frozenset(skip) & set(new_ring.shards)
        plan: dict[str, tuple[str, str]] = {}
        for key in keys:
            old = self.lookup(key, skip=skip)
            new = new_ring.lookup(key, skip=new_skip)
            if old != new:
                plan[key] = (old, new)
        return plan
