"""Workload latency quantiles vs numpy, and stats federation."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs.metrics import Histogram
from repro.workloads.stats import WorkloadStats


class TestReservoirQuantiles:
    """The workload sample store (a :class:`Histogram`) against numpy."""

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 999])
    def test_matches_numpy_inverted_cdf(self, n):
        rng = np.random.default_rng(n)
        values = [int(v) for v in rng.integers(0, 1_000_000, n)]
        hist = Histogram("t")
        for value in values:
            hist.record(value)
        for p in (0, 1, 50, 90, 95, 99, 99.9, 100):
            expected = int(np.percentile(values, p, method="inverted_cdf"))
            assert hist.percentile(p) == expected, f"p{p} of n={n}"
        summary = hist.summary()
        for p in (50, 95, 99):
            expected = int(np.percentile(values, p, method="inverted_cdf"))
            assert summary[f"p{p}_ns"] == expected, f"p{p} of n={n}"

    def test_mean_and_max(self):
        hist = Histogram("t")
        for value in (10, 20, 60):
            hist.record(value)
        assert hist.mean == 30
        assert hist.summary()["max_ns"] == 60

    def test_empty_reservoir_raises_and_summarises_none(self):
        hist = Histogram("t")
        with pytest.raises(ValueError):
            hist.percentile(50)
        with pytest.raises(ValueError):
            _ = hist.mean
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p50_ns"] is None

    def test_percentile_range_checked(self):
        hist = Histogram("t")
        hist.record(1)
        with pytest.raises(ValueError):
            hist.percentile(101)


class FakeEnv(SimpleNamespace):
    """Stats only read ``env.now``; a mutable stand-in is enough."""


class TestWorkloadStats:
    def make(self):
        env = FakeEnv(now=0)
        return env, WorkloadStats(env, name="w")

    def test_throughput_over_active_window(self):
        env, stats = self.make()
        env.now = 1_000
        stats.note_sent(100)
        env.now = 2_000
        stats.note_sent(100)
        env.now = 11_000
        stats.note_completed(10_000, 50)
        stats.note_completed(9_000, 50)
        # 2 completions over 10_000 ns = 10 us -> 200k/s.
        assert stats.throughput_rps() == pytest.approx(200_000)
        report = stats.report()
        assert report["completed"] == 2
        assert report["elapsed_ns"] == 10_000
        assert report["latency"]["p50_ns"] == 9_000

    def test_goodput_scales_request_bytes_to_completions(self):
        env, stats = self.make()
        stats.note_sent(100)
        stats.note_sent(100)
        env.now = 1_000
        stats.note_completed(1_000, 60)
        # Half the sent requests completed: goodput counts 100 + 60 bytes
        # over 1000 ns = 160 MB/s... in MB/s units: 160 bytes/us = 160 MB/s.
        assert stats.goodput_mbs() == pytest.approx(160.0)

    def test_drop_accounting(self):
        _env, stats = self.make()
        stats.note_dropped("shed")
        stats.note_dropped("expired")
        stats.note_dropped("abandoned")
        stats.note_dropped("shed")
        drops = stats.report()["drops"]
        assert drops == {"shed": 2, "expired": 1, "abandoned": 1, "total": 4}

    def test_queue_depth_series_and_waits(self):
        env, stats = self.make()
        env.now = 5
        stats.note_queue_depth(3)
        env.now = 9
        stats.note_queue_depth(1)
        stats.note_queue_wait(400)
        assert stats.queue_depth == [(5, 3), (9, 1)]
        report = stats.report()
        assert report["queue_depth_max"] == 3
        assert report["queue_wait"]["p50_ns"] == 400

    def test_federation_registers_counters_and_mirrors_samples(self):
        from repro.obs.metrics import Metrics
        env, stats = self.make()
        metrics = Metrics()
        stats.federate(metrics)
        stats.note_sent(10)
        env.now = 100
        stats.note_completed(100, 10)
        stats.note_queue_wait(40)
        stats.note_queue_depth(2)
        hist = metrics.histogram("w.latency_ns")
        assert hist.count == 1
        assert metrics.histogram("w.queue_wait_ns").count == 1
        assert metrics.histogram("w.queue_depth").count == 1
        # The counters bag is adopted, not copied.
        stats.counters.add("sent")
        assert stats.counters["sent"] == 2
