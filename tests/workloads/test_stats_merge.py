"""Cross-process stats merging: the reduction behind partitioned reports.

Counters and unbounded reservoirs must merge *exactly* (the merged state
equals what one process recording everything would hold); bounded
reservoirs merge to an evenly-spaced subsample whose nearest-rank
quantiles stay within the documented ``1/(2*capacity)`` rank tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simkernel.env import Environment
from repro.obs.metrics import Reservoir
from repro.workloads.stats import WorkloadStats


def filled(values, capacity=None):
    reservoir = Reservoir("t", capacity=capacity)
    for value in values:
        reservoir.record(value)
    return reservoir


class TestReservoirMerge:
    def test_unbounded_merge_is_exact(self):
        rng = np.random.default_rng(7)
        left = [int(v) for v in rng.integers(0, 10**6, 331)]
        right = [int(v) for v in rng.integers(0, 10**6, 169)]
        merged = filled(left)
        merged.merge(filled(right))
        single = filled(left + right)
        assert sorted(merged.samples) == sorted(single.samples)
        assert (merged.count, merged.total) == (single.count, single.total)
        for p in (0, 50, 90, 99, 100):
            assert merged.percentile(p) == single.percentile(p)

    @pytest.mark.parametrize("capacity", [64, 256])
    def test_bounded_merge_within_rank_tolerance(self, capacity):
        rng = np.random.default_rng(capacity)
        left = [int(v) for v in rng.integers(0, 10**6, 5000)]
        right = [int(v) for v in rng.integers(0, 10**6, 5000)]
        a, b = filled(left, capacity=capacity), filled(right, capacity=capacity)
        # What the merge actually reduces: the union of the two held
        # sample sets (2*capacity order statistics).
        combined = sorted(a.samples + b.samples)
        a.merge(b)
        assert len(a.samples) == capacity
        assert a.count == 10000
        # Every quantile of the merged subsample must land within the
        # documented 1/(2*capacity) rank band of the combined multiset.
        n = len(combined)
        tolerance = 1 / (2 * capacity)
        for p in (1, 25, 50, 75, 90, 99):
            lo = combined[max(0, int(np.floor((p / 100 - tolerance) * n)))]
            hi = combined[min(n - 1, int(np.ceil((p / 100 + tolerance) * n)))]
            assert lo <= a.percentile(p) <= hi, f"p{p} outside rank band"

    def test_snapshot_restore_roundtrip(self):
        reservoir = filled([5, 1, 9])
        clone = Reservoir("t")
        clone.restore(reservoir.snapshot())
        assert clone.samples == reservoir.samples
        assert (clone.count, clone.total) == (3, 15)


class TestWorkloadStatsMerged:
    def make_stats(self, latencies, drops=0, n_shards=0, shard=None):
        env = Environment()
        stats = WorkloadStats(env, name="w", n_shards=n_shards)

        def driver():
            for latency in latencies:
                stats.note_sent(64, shard=shard)
                yield env.timeout(latency)
                stats.note_completed(latency, 64, shard=shard)
            for _ in range(drops):
                stats.note_dropped("shed", shard=shard)

        env.process(driver(), name="driver")
        env.run()
        return stats

    @staticmethod
    def merge(*parts, n_shards=0):
        """What ``run_partitioned`` does with worker snapshots: absorb
        them into a report-only (``env=None``) stats object."""
        merged = WorkloadStats(None, name="w", n_shards=n_shards)
        for part in parts:
            merged.absorb(part.snapshot())
        return merged

    def test_counters_and_latencies_merge_exactly(self):
        a = self.make_stats([100, 300], drops=1)
        b = self.make_stats([200], drops=2)
        merged = self.merge(a, b)
        assert merged.counters["sent"] == 3
        assert merged.counters["completed"] == 3
        assert merged.counters["shed"] == 3
        assert sorted(merged.latency.samples) == [100, 200, 300]
        assert merged.latency.percentile(50) == 200

    def test_time_span_is_min_first_max_last(self):
        a = self.make_stats([100])
        b = self.make_stats([500])
        merged = self.merge(a, b)
        assert merged.t_first_send == 0
        assert merged.t_last_done == 500

    def test_shard_fragments_merge_by_index(self):
        a = self.make_stats([100], n_shards=2, shard=0)
        b = self.make_stats([200], n_shards=2, shard=1)
        merged = self.merge(a, b, n_shards=2)
        assert merged.shards[0].counters["completed"] == 1
        assert merged.shards[1].latency.samples == [200]
        report = merged.report()
        assert report["shards"][0]["completed"] == 1
