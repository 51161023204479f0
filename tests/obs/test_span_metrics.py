"""Spans, the metrics registry, and the Observer lifecycle."""

import pytest

from repro.hardware.memory import CopyMeter
from repro.obs.metrics import DEFAULT_WINDOW_NS, Histogram, Metrics, RateMeter
from repro.obs.observer import Observer
from repro.obs.span import LAYER_ORDER, Span, layer_rank
from repro.simkernel.monitor import Counters


class TestSpan:
    def test_duration_and_key(self):
        span = Span("fm", "inject", 100, 250, track="node0/fm",
                    attrs={"bytes": 16})
        assert span.duration_ns == 150
        assert span.key() == ("fm", "inject")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Span("fm", "inject", 250, 100)

    def test_layer_rank_orders_top_down(self):
        ranks = [layer_rank(layer) for layer in LAYER_ORDER]
        assert ranks == sorted(ranks)
        assert layer_rank("app") < layer_rank("fm") < layer_rank("fabric")
        assert layer_rank("no-such-layer") > layer_rank("fabric")


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        hist = Histogram("lat")
        for value in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]:
            hist.record(value)
        assert hist.p50 == 50
        assert hist.p99 == 100
        assert hist.percentile(0) == 10
        assert hist.percentile(100) == 100
        assert hist.mean == 55.0
        assert hist.count == 10
        assert hist.total == 550

    def test_single_sample(self):
        hist = Histogram("lat")
        hist.record(42)
        assert hist.p50 == hist.p99 == 42

    def test_empty_raises(self):
        hist = Histogram("lat")
        with pytest.raises(ValueError):
            _ = hist.p50
        with pytest.raises(ValueError):
            _ = hist.mean

    def test_bad_percentile_rejected(self):
        hist = Histogram("lat")
        hist.record(1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_summary_empty_and_filled(self):
        hist = Histogram("lat")
        assert hist.summary() == {"count": 0, "mean_ns": None,
                                  "p50_ns": None, "p95_ns": None,
                                  "p99_ns": None, "max_ns": None}
        for value in [30, 10, 20, 40]:
            hist.record(value)
        assert hist.summary() == {"count": 4, "mean_ns": 25.0,
                                  "p50_ns": 20, "p95_ns": 40,
                                  "p99_ns": 40, "max_ns": 40}


class TestRateMeter:
    def test_buckets_by_window(self, env):
        meter = RateMeter(env, "bytes", window_ns=100)
        meter.mark(10)

        def worker(env):
            yield env.timeout(250)
            meter.mark(20)
        env.run(until=env.process(worker(env)))
        assert meter.total == 30
        assert meter.series() == [(0, 10), (200, 20)]

    def test_mean_rate(self, env):
        meter = RateMeter(env, "bytes", window_ns=1000)
        meter.mark(2000)   # 2000 bytes in one 1 us window = 2000 MB/s
        assert meter.mean_rate_mbs() == pytest.approx(2000.0)
        assert RateMeter(env, "idle").mean_rate_mbs() == 0.0

    def test_bad_window_rejected(self, env):
        with pytest.raises(ValueError):
            RateMeter(env, "x", window_ns=0)


class TestMetrics:
    def test_histogram_get_or_create_by_labels(self):
        metrics = Metrics()
        a = metrics.histogram("stage", stage="wire")
        b = metrics.histogram("stage", stage="wire")
        c = metrics.histogram("stage", stage="dma")
        assert a is b
        assert a is not c

    def test_label_subset_queries_sorted(self):
        metrics = Metrics()
        metrics.histogram("q", node="1", dir="rx").record(1)
        metrics.histogram("q", node="0", dir="rx").record(2)
        metrics.histogram("q", node="0", dir="tx").record(3)
        node0 = metrics.histograms("q", node="0")
        assert len(node0) == 2
        assert [h.labels["dir"] for h in node0] == ["rx", "tx"]
        assert len(metrics.histograms("q")) == 3
        assert metrics.histograms("other") == []

    def test_meter_requires_env(self):
        with pytest.raises(RuntimeError):
            Metrics().meter("bytes")

    def test_meter_get_or_create(self, env):
        metrics = Metrics(env)
        assert metrics.meter("b", link="l0") is metrics.meter("b", link="l0")
        assert len(metrics.meters("b")) == 1
        assert metrics.meters("b")[0].window_ns == DEFAULT_WINDOW_NS

    def test_federates_counters_and_copy_meters(self):
        metrics = Metrics()
        counters = Counters()
        counters.add("spills", 3)
        metrics.register_counters("mpi.rank0", counters)
        meter = CopyMeter()
        meter.record(64, "fm1.staging_copy")
        metrics.register_copy_meter("node0.cpu", meter)
        assert metrics.counter("mpi.rank0")["spills"] == 3
        assert metrics.copy_bytes_by_label() == {
            "node0.cpu": {"fm1.staging_copy": 64}
        }

    def test_duplicate_registration_rejected(self):
        metrics = Metrics()
        metrics.register_counters("x", Counters())
        with pytest.raises(ValueError):
            metrics.register_counters("x", Counters())
        metrics.register_copy_meter("y", CopyMeter())
        with pytest.raises(ValueError):
            metrics.register_copy_meter("y", CopyMeter())

    def test_as_dict_summary(self, env):
        metrics = Metrics(env)
        metrics.histogram("lat", stage="wire").record(100)
        metrics.meter("bytes", link="l0").mark(500)
        summary = metrics.as_dict()
        assert summary["histograms"]["lat{stage=wire}"]["count"] == 1
        assert summary["histograms"]["lat{stage=wire}"]["p50"] == 100
        assert summary["meters"]["bytes{link=l0}"]["total"] == 500


class TestObserver:
    def test_attach_detach(self, env):
        observer = Observer().attach(env)
        assert env.obs is observer
        assert observer.metrics.env is env
        observer.detach(env)
        assert env.obs is None

    def test_detach_only_removes_self(self, env):
        first = Observer().attach(env)
        second = Observer().attach(env)
        first.detach(env)          # no longer installed; must not clobber
        assert env.obs is second

    def test_span_default_end_is_now(self, env):
        observer = Observer().attach(env)

        def worker(env):
            yield env.timeout(40)
            observer.span("fm", "inject", 10, track="node0/fm", bytes=16)
        env.run(until=env.process(worker(env)))
        (span,) = observer.spans
        assert (span.t_start, span.t_end) == (10, 40)
        assert span.attrs == {"bytes": 16}

    def test_queries(self, env):
        observer = Observer().attach(env)
        observer.span("fm", "inject", 0, t_end=5, track="node0/fm")
        observer.span("nic", "tx_firmware", 5, t_end=9, track="node0/nic.tx")
        observer.span("fm", "inject", 9, t_end=12, track="node1/fm")
        assert len(observer.spans_for(layer="fm")) == 2
        assert len(observer.spans_for(layer="fm", track="node0/fm")) == 1
        assert observer.tracks() == ["node0/fm", "node0/nic.tx", "node1/fm"]
        assert len(observer) == 3

    def test_packet_done_builds_stage_histograms(self, env):
        from repro.hardware.packet import Packet, PacketFlags, PacketHeader
        observer = Observer().attach(env)
        packet = Packet(PacketHeader(0, 1, 0, 0, 0, 4,
                                     PacketFlags.FIRST | PacketFlags.LAST),
                        b"abcd")
        packet.stamp("submit", 100)
        packet.stamp("wire", 250)
        observer.packet_done(packet, "extract", 400)
        stages = {h.labels["stage"]: h.total
                  for h in observer.metrics.histograms("packet.stage")}
        assert stages == {"submit -> wire": 150, "wire -> extract": 150}
        (latency,) = observer.metrics.histograms("packet.latency_ns")
        assert latency.total == 300
