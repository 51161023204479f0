"""Cross-process stats merging: the reduction behind partitioned reports.

Counters and latency samples must merge *exactly*: the merged state
equals what one process recording everything would hold, so every report
field — nearest-rank quantiles included — comes out identical.
"""

from __future__ import annotations

import numpy as np

from repro.simkernel.env import Environment
from repro.workloads.stats import WorkloadStats


def recorded(latencies):
    """A bare stats object holding ``latencies`` as completions."""
    env = Environment()
    stats = WorkloadStats(env, name="w")
    for latency in latencies:
        stats.note_sent(64)
        stats.note_completed(latency, 64)
    return stats


class TestReservoirMerge:
    """Merging the latency samples shipped in worker snapshots."""

    def test_unbounded_merge_is_exact(self):
        rng = np.random.default_rng(7)
        left = [int(v) for v in rng.integers(0, 10**6, 331)]
        right = [int(v) for v in rng.integers(0, 10**6, 169)]
        merged = WorkloadStats.merged(
            [recorded(left).snapshot(), recorded(right).snapshot()],
            name="w")
        single = recorded(left + right)
        assert sorted(merged.latency.values) == sorted(single.latency.values)
        assert merged.latency.total == single.latency.total
        for p in (0, 50, 90, 99, 100):
            assert merged.latency.percentile(p) == single.latency.percentile(p)
        assert merged.report() == single.report()

    def test_snapshot_restore_roundtrip(self):
        stats = recorded([5, 1, 9])
        stats.note_queue_wait(40)
        stats.note_queue_depth(2)
        stats.note_dropped("shed")
        clone = WorkloadStats.merged([stats.snapshot()], name="w")
        assert clone.latency.values == [5, 1, 9]
        assert clone.queue_wait.values == [40]
        assert clone.queue_depth == stats.queue_depth
        assert clone.report() == stats.report()


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

    def test_counters_and_latencies_merge_exactly(self):
        a = self.make_stats([100, 300], drops=1)
        b = self.make_stats([200], drops=2)
        merged = WorkloadStats.merged([a.snapshot(), b.snapshot()], name="w")
        assert merged.counters["sent"] == 3
        assert merged.counters["completed"] == 3
        assert merged.counters["shed"] == 3
        assert sorted(merged.latency.values) == [100, 200, 300]
        assert merged.latency.percentile(50) == 200

    def test_time_span_is_min_first_max_last(self):
        a = self.make_stats([100])
        b = self.make_stats([500])
        merged = WorkloadStats.merged([a.snapshot(), b.snapshot()], name="w")
        assert merged.t_first == 0
        assert merged.t_last == 500

    def test_shard_fragments_merge_by_index(self):
        a = self.make_stats([100], n_shards=2, shard=0)
        b = self.make_stats([200], n_shards=2, shard=1)
        merged = WorkloadStats.merged([a.snapshot(), b.snapshot()],
                                      name="w", n_shards=2)
        assert merged.shards[0].counters["completed"] == 1
        assert merged.shards[1].latency.values == [200]
        report = merged.report()
        assert report["shards"][0]["completed"] == 1
