"""Where an RPC service's shards live and how a client picks one.

Every RPC service is sharded — a single server is a one-shard service.
Its N :class:`~repro.workloads.rpc.RpcServer` shards run on distinct
nodes (``RpcScenario.wire`` starts them, each tagged with its shard
index), a :class:`ShardDirectory` tells clients where they live, and
every :class:`~repro.workloads.rpc.RpcClient` routes each request
through a pluggable client-side :class:`Balancer`:

* ``static`` (:class:`ConsistentHash`) — a consistent-hash ring over
  request keys with virtual nodes, the classic sharded-KV discipline:
  the shard for a key never depends on who else is sending, so caches
  and ownership stay stable, but skewed key popularity lands on one
  shard and the service pays an imbalance penalty.
* ``round_robin`` (:class:`RoundRobin`) — each client cycles through the
  shards; oblivious to both keys and load.
* ``least_pending`` (:class:`LeastPending`) — pick the shard with the
  fewest in-flight requests *from this client's view* (the
  ``on_resolved`` callback keeps that view honest without any global
  state — there is no oracle, exactly like a real client-side balancer).

Request keys come from :func:`key_stream` — a per-client deterministic
stream, uniform or Zipf-skewed — so balancer comparisons under hot-key
traffic are reproducible bit-for-bit.

Everything here is client-side bookkeeping (zero simulated cost): what
the simulation measures is where the *messages* go, which is the point —
the paper's layering argument (§5) extends to services only if the FM
interface keeps its efficiency when one client fans out across hosts.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Iterator, Sequence

from repro.workloads.arrivals import client_rng

BALANCER_NAMES = ("static", "round_robin", "least_pending")


def _h32(data: bytes) -> int:
    """Deterministic 32-bit hash (crc32 — stable across processes, unlike
    Python's seeded ``hash``)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def key_stream(seed: int, client: str, n_keys: int,
               skew: float = 0.0) -> Iterator[int]:
    """An infinite deterministic stream of request keys for one client.

    ``skew == 0`` draws uniformly over ``[0, n_keys)``; ``skew > 0``
    draws Zipf-like with rank ``r`` weighted ``1/(r+1)**skew`` — the
    hot-key traffic shape that separates hash placement from
    load-aware placement.  The stream is keyed off ``(seed, client)``
    like the arrival gaps, but on its own RNG stream so adding keys
    never shifts a client's arrival draws.
    """
    if n_keys < 1:
        raise ValueError(f"n_keys must be positive, got {n_keys}")
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew}")
    rng = client_rng(seed, f"keys:{client}")
    if skew == 0.0:
        while True:
            yield int(rng.integers(0, n_keys))
    import numpy as np
    weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** skew
    p = weights / weights.sum()
    # Precomputed CDF + one uniform draw per key: O(log n_keys) per draw
    # instead of ``rng.choice(n_keys, p=p)``'s O(n_keys) cumsum per call.
    # The normalisation below replicates Generator.choice exactly
    # (cumsum, then divide by the last partial sum), so the drawn stream
    # is draw-for-draw identical to the old one (pinned by test).
    cdf = p.cumsum()
    cdf /= cdf[-1]
    while True:
        yield int(cdf.searchsorted(rng.random(), side="right"))


class HashRing:
    """A consistent-hash ring over shard indices with virtual nodes.

    Each shard contributes ``vnodes`` points at ``crc32("shard<i>:v<j>")``
    on the 32-bit ring; a key maps to the owner of the first point at or
    after its own hash (wrapping).  More vnodes → smoother expected
    split; the split is still *static*, which is the property the
    balancer comparison measures.
    """

    def __init__(self, n_shards: int, vnodes: int = 64):
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points = sorted(
            (_h32(f"shard{shard}:v{v}".encode()), shard)
            for shard in range(n_shards) for v in range(vnodes))
        self._hashes = [h for h, _ in points]
        self._owners = [shard for _, shard in points]

    def lookup(self, key: int) -> int:
        """The shard index owning ``key``."""
        h = _h32(key.to_bytes(8, "little", signed=True))
        i = bisect_right(self._hashes, h) % len(self._hashes)
        return self._owners[i]

    def successors(self, key: int, r: int) -> tuple[int, ...]:
        """The first ``r`` *distinct* shards at or after ``key`` on the ring.

        ``successors(key, 1) == (lookup(key),)`` — the primary — and each
        further entry is the next distinct owner walking clockwise: the
        classic replica-placement rule, so a key's backup set is stable
        under the same ring that places its primary.
        """
        if not 1 <= r <= self.n_shards:
            raise ValueError(
                f"r must be in [1, {self.n_shards}], got {r}")
        h = _h32(key.to_bytes(8, "little", signed=True))
        start = bisect_right(self._hashes, h)
        n = len(self._owners)
        replicas: list[int] = []
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in replicas:
                replicas.append(owner)
                if len(replicas) == r:
                    break
        return tuple(replicas)

    def __repr__(self) -> str:
        return f"<HashRing shards={self.n_shards} vnodes={self.vnodes}>"


class Balancer:
    """Client-side shard choice plus an in-flight view of each shard.

    ``pick`` chooses a shard for a request key; ``note_issued`` /
    ``note_resolved`` keep ``pending`` — this client's count of
    unresolved requests per shard — which :class:`LeastPending` routes
    on and every balancer exposes for tests.  The base class is the
    accounting alone: a replicated client routes by its directory's
    replica sets and never calls ``pick``.
    """

    name = "base"

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = n_shards
        self.pending = [0] * n_shards

    def pick(self, key: int) -> int:
        raise NotImplementedError

    def note_issued(self, shard: int) -> None:
        self.pending[shard] += 1

    def note_resolved(self, shard: int) -> None:
        if self.pending[shard] <= 0:
            raise RuntimeError(
                f"balancer resolved more requests than it issued on "
                f"shard {shard}")
        self.pending[shard] -= 1

    def __repr__(self) -> str:
        return f"<{type(self).__name__} shards={self.n_shards}>"


class ConsistentHash(Balancer):
    """``static``: the consistent-hash ring decides; load never does."""

    name = "static"

    def __init__(self, n_shards: int, vnodes: int = 64):
        super().__init__(n_shards)
        self.ring = HashRing(n_shards, vnodes)

    def pick(self, key: int) -> int:
        return self.ring.lookup(key)


class RoundRobin(Balancer):
    """``round_robin``: cycle through the shards, ignoring keys and load."""

    name = "round_robin"

    def __init__(self, n_shards: int):
        super().__init__(n_shards)
        self._next = 0

    def pick(self, key: int) -> int:
        shard = self._next
        self._next = (self._next + 1) % self.n_shards
        return shard


class LeastPending(Balancer):
    """``least_pending``: fewest in-flight from this client's view,
    ties to the lowest shard index (deterministic)."""

    name = "least_pending"

    def pick(self, key: int) -> int:
        return min(range(self.n_shards), key=lambda s: (self.pending[s], s))


def make_balancer(name: str, n_shards: int, vnodes: int = 64) -> Balancer:
    """Build the balancer called ``name`` (one of ``BALANCER_NAMES``)."""
    if name == "static":
        return ConsistentHash(n_shards, vnodes)
    if name == "round_robin":
        return RoundRobin(n_shards)
    if name == "least_pending":
        return LeastPending(n_shards)
    raise ValueError(
        f"balancer must be one of {BALANCER_NAMES}, got {name!r}")


class ShardDirectory:
    """Where a sharded service's shards live, as pure data.

    An :class:`~repro.workloads.rpc.RpcClient` only ever reads
    ``shard_nodes`` and ``n_shards`` — routing is client-side by design —
    so a directory of shard placements is all a client needs of the
    service.  Shard ``i``
    lives on node ``shard_nodes[i]``.
    """

    def __init__(self, shard_nodes: Sequence[int]):
        if not shard_nodes:
            raise ValueError("a ShardDirectory needs at least one shard")
        if len(set(shard_nodes)) != len(shard_nodes):
            raise ValueError(
                f"shards must live on distinct nodes, got {list(shard_nodes)}")
        self.shard_nodes = list(shard_nodes)

    @property
    def n_shards(self) -> int:
        return len(self.shard_nodes)

    def __repr__(self) -> str:
        return f"<ShardDirectory nodes={self.shard_nodes}>"
