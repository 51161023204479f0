"""Streaming workload statistics: latency, throughput, queues.

One :class:`WorkloadStats` per scenario run collects everything the report
needs:

* a :class:`~repro.obs.metrics.Histogram` of end-to-end request latencies
  (plus one for server queue waits) with deterministic nearest-rank
  p50/p95/p99;
* a :class:`~repro.simkernel.monitor.Counters` bag of request outcomes
  (``sent``, ``completed``, ``shed``, ``expired``, request/response
  bytes);
* a queue-depth time series sampled at every enqueue/dequeue;
* first-send / last-completion marks, from which delivered throughput
  (requests/s) and goodput (MB/s) fall out.

Everything is bookkeeping-only — recording never touches the event heap,
so stats add zero simulated time — and, like the rest of the stack, a
pure function of the simulated run: two runs of the same scenario spec
produce bit-identical sample lists.

When a run is observed (``cluster.observe()``), :meth:`WorkloadStats.federate`
registers the counters with the observer's metrics registry and mirrors
every latency sample into its histograms, so the breakdown CLI and Perfetto
exports see workload signals alongside the per-layer spans.

With ``sample_interval_ns`` set, the aggregate object additionally owns a
:class:`~repro.obs.timeseries.TimeSeriesBank` and every ``note_*`` call
records into windowed series — ``completed`` / ``drops`` / ``sent``
rates, ``delivered_bytes`` goodput, ``latency_ns`` windowed quantiles,
and the ``queue_depth`` gauge — both aggregate and (for sharded calls)
``shard=<i>``-labelled.  Those series are what the
:mod:`repro.obs.slo` burn-rate detectors evaluate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import Histogram, RunStats
from repro.obs.timeseries import TimeSeriesBank

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Metrics
    from repro.simkernel.env import Environment


class WorkloadStats(RunStats):
    """All quantitative signals of one workload run, federated on demand.

    With ``n_shards`` set, the aggregate object carries one nested
    :class:`WorkloadStats` per shard (``self.shards``), and every
    ``note_*`` call that names a ``shard`` records into both the aggregate
    and that shard's histograms/counters — so imbalance across a
    :class:`~repro.workloads.sharding.ShardedService` is first-class in
    the report rather than something to reconstruct from logs.
    """

    def __init__(self, env: Optional["Environment"], name: str = "workload",
                 n_shards: int = 0, sample_interval_ns: int = 0):
        if n_shards < 0:
            raise ValueError(f"n_shards must be non-negative, got {n_shards}")
        if sample_interval_ns < 0:
            raise ValueError(f"sample_interval_ns must be non-negative, "
                             f"got {sample_interval_ns}")
        super().__init__(env, name)
        self.latency = Histogram(f"{name}.latency_ns")
        self.queue_wait = Histogram(f"{name}.queue_wait_ns")
        #: (time_ns, depth) samples, one per enqueue/dequeue.
        self.queue_depth: list[tuple[int, int]] = []
        #: Windowed time series (None unless ``sample_interval_ns`` > 0).
        #: Shard-labelled series live on the aggregate's bank, so sub-stats
        #: never carry their own.
        self.timeseries: Optional[TimeSeriesBank] = (
            TimeSeriesBank(env, sample_interval_ns)
            if sample_interval_ns else None)
        #: Per-shard sub-stats (empty for unsharded runs).
        self.shards: list["WorkloadStats"] = [
            WorkloadStats(env, f"{name}.shard{i}") for i in range(n_shards)]

    # -- federation -----------------------------------------------------------
    def federate(self, metrics: "Metrics") -> None:
        """Register with an observer's metrics registry (see module doc).

        Per-shard counters federate under ``<name>.shard<i>``, so the
        breakdown CLI sees shard-level outcomes alongside the aggregate.
        """
        super().federate(metrics)
        for shard in self.shards:
            shard.federate(metrics)

    def _shard(self, shard: Optional[int]) -> Optional["WorkloadStats"]:
        if shard is None or not self.shards:
            return None
        return self.shards[shard]

    def _series(self, kind: str, name: str, value: int,
                shard: Optional[int]) -> None:
        """Record into the aggregate series and, when sharded, the
        ``shard=<i>``-labelled variant (no-op without a bank)."""
        bank = self.timeseries
        if bank is None:
            return
        getattr(bank, kind)(name).observe(value)
        if shard is not None:
            getattr(bank, kind)(name, shard=str(shard)).observe(value)

    # -- recording --------------------------------------------------------------
    def note_sent(self, nbytes: int, shard: Optional[int] = None) -> None:
        """Record one request issued with ``nbytes`` of request payload."""
        if self.t_first is None:
            self.t_first = self.env.now
        self.counters.add("sent")
        self.counters.add("request_bytes", nbytes)
        self._series("rate", "sent", 1, shard)
        sub = self._shard(shard)
        if sub is not None:
            sub.note_sent(nbytes)

    def note_completed(self, latency_ns: int, response_bytes: int,
                       shard: Optional[int] = None) -> None:
        """Record one successful completion and its end-to-end latency."""
        self.t_last = self.env.now
        self.counters.add("completed")
        self.counters.add("response_bytes", response_bytes)
        self.latency.record(latency_ns)
        self._series("rate", "completed", 1, shard)
        self._series("rate", "delivered_bytes", response_bytes, shard)
        self._series("quantile", "latency_ns", latency_ns, shard)
        self._mirror("latency_ns", latency_ns)
        sub = self._shard(shard)
        if sub is not None:
            sub.note_completed(latency_ns, response_bytes)

    def note_dropped(self, kind: str, shard: Optional[int] = None) -> None:
        """Count one lost request: ``kind`` is ``shed``, ``expired``, or
        ``abandoned`` (client gave up waiting)."""
        self.counters.add(kind)
        self._series("rate", "drops", 1, shard)
        sub = self._shard(shard)
        if sub is not None:
            sub.note_dropped(kind)

    def note_failover(self, shard: Optional[int] = None) -> None:
        """Count one failover: a request gave up on ``shard`` and moved to
        another replica.  Not a drop — the logical request is still live —
        so it never touches the ``drops`` series the availability SLO
        reads; the failed shard's trouble shows up on its own series."""
        self.counters.add("failover")
        self._series("rate", "failovers", 1, shard)
        sub = self._shard(shard)
        if sub is not None:
            sub.note_failover()

    def note_retried(self, shard: Optional[int] = None) -> None:
        """Count one failover re-issue (the send following a failover).
        Logical request counts (``sent``) are untouched: the request was
        already counted when first issued."""
        self.counters.add("retried")
        self._series("rate", "retries", 1, shard)
        sub = self._shard(shard)
        if sub is not None:
            sub.note_retried()

    def note_queue_depth(self, depth: int, shard: Optional[int] = None) -> None:
        """Sample the server queue depth observed at dequeue time."""
        self.queue_depth.append((self.env.now, depth))
        self._series("gauge", "queue_depth", depth, shard)
        self._mirror("queue_depth", depth)
        sub = self._shard(shard)
        if sub is not None:
            sub.note_queue_depth(depth)

    def note_queue_wait(self, wait_ns: int, shard: Optional[int] = None) -> None:
        """Record how long a request sat in the server queue."""
        self.queue_wait.record(wait_ns)
        self._mirror("queue_wait_ns", wait_ns)
        sub = self._shard(shard)
        if sub is not None:
            sub.note_queue_wait(wait_ns)

    # -- cross-process merge ----------------------------------------------------
    def snapshot(self) -> dict:
        """Everything :meth:`report` needs, as picklable primitives.

        Partition workers ship snapshots over their pipe at the end of a
        partitioned run; :meth:`merged` folds them back into one stats
        object whose report is identical to a single-process run's:
        counters sum exactly, sample lists concatenate (the merged
        multisets equal a single run's, so nearest-rank quantiles agree),
        and the first-send / last-done marks take min/max.
        """
        return {
            "counters": self.counters.as_dict(),
            "latency": list(self.latency.values),
            "queue_wait": list(self.queue_wait.values),
            "queue_depth": list(self.queue_depth),
            "t_first": self.t_first,
            "t_last": self.t_last,
            "shards": [shard.snapshot() for shard in self.shards],
        }

    def absorb(self, snap: dict) -> None:
        """Fold one worker's :meth:`snapshot` into this object."""
        for key, value in sorted(snap["counters"].items()):
            self.counters.add(key, value)
        self.latency.values.extend(snap["latency"])
        self.queue_wait.values.extend(snap["queue_wait"])
        self.queue_depth.extend(tuple(s) for s in snap["queue_depth"])
        if snap["t_first"] is not None:
            if self.t_first is None or snap["t_first"] < self.t_first:
                self.t_first = snap["t_first"]
        if snap["t_last"] is not None:
            if self.t_last is None or snap["t_last"] > self.t_last:
                self.t_last = snap["t_last"]
        if len(snap["shards"]) != len(self.shards):
            raise ValueError(
                f"snapshot has {len(snap['shards'])} shards, "
                f"target has {len(self.shards)}")
        for shard, shard_snap in zip(self.shards, snap["shards"]):
            shard.absorb(shard_snap)

    @classmethod
    def merged(cls, snapshots, name: str = "workload",
               n_shards: int = 0) -> "WorkloadStats":
        """A report-only stats object folding worker snapshots together.

        The result has no environment bound (``note_*`` must not be called
        on it); fold order is the caller's worker order, which only affects
        internal sample-list order — every report field is order-invariant
        (sums, min/max, sorted-rank quantiles).
        """
        stats = cls(None, name=name, n_shards=n_shards)
        for snap in snapshots:
            stats.absorb(snap)
        return stats

    # -- derived ----------------------------------------------------------------
    def throughput_rps(self) -> float:
        """Delivered completions per second over the active window."""
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.counters["completed"] / (elapsed / 1e9)

    def goodput_mbs(self) -> float:
        """Delivered payload (request + response bytes of *completed*
        exchanges) in MB/s over the active window."""
        elapsed = self.elapsed_ns
        completed = self.counters["completed"]
        sent = self.counters["sent"]
        if elapsed <= 0 or completed == 0 or sent == 0:
            return 0.0
        # Request bytes are counted at send time; scale to the completed set.
        request_bytes = self.counters["request_bytes"] * completed / sent
        payload = request_bytes + self.counters["response_bytes"]
        return payload / (elapsed / 1e9) / 1e6

    def drops(self) -> int:
        """Total lost requests across all drop kinds."""
        return (self.counters["shed"] + self.counters["expired"]
                + self.counters["abandoned"])

    def imbalance(self) -> Optional[float]:
        """Peak-to-mean ratio of per-shard completions (1.0 = balanced).

        ``None`` for unsharded runs or before any completion.  The ratio
        reads as "the hottest shard carried X times its fair share" — the
        quantity a consistent-hash ring pays under skewed keys and a
        least-pending balancer flattens.
        """
        if not self.shards:
            return None
        completed = [s.counters["completed"] for s in self.shards]
        mean = sum(completed) / len(completed)
        if mean == 0:
            return None
        return max(completed) / mean

    def fault_window_report(self, windows) -> Optional[dict]:
        """Availability and goodput *during* fault episodes, per episode.

        ``windows`` is ``(label, start_ns, end_ns)`` triples — the fault
        injector's episode windows.  Each episode is scored over the
        time-series windows it overlaps (requires ``sample_interval_ns``;
        returns ``None`` without a bank or without traffic): availability
        is ``completed / (completed + drops)`` of the requests *resolved*
        inside the episode, goodput is the delivered response payload over
        the episode span, and sharded runs add the per-shard availability
        split — the number that shows one shard blacking out while the
        aggregate keeps serving.  A pure function of the bank's contents,
        so reruns stay byte-identical.
        """
        bank = self.timeseries
        if bank is None or not windows:
            return None
        span = bank.window_range()
        if span is None:
            return None
        rows = []
        for label, start_ns, end_ns in windows:
            first = max(start_ns // bank.interval_ns, span[0])
            last = min((end_ns - 1) // bank.interval_ns, span[1])
            if last < first:
                continue
            idx = range(first, last + 1)
            rows.append({
                "episode": label,
                "start_ns": start_ns,
                "end_ns": min(end_ns, (span[1] + 1) * bank.interval_ns),
                **self._window_availability(idx),
                **({"shards": [
                    self._window_availability(idx, shard=i)
                    for i in range(len(self.shards))]}
                   if self.shards else {}),
            })
        if not rows:
            return None
        return {"interval_ns": bank.interval_ns, "episodes": rows}

    def _window_availability(self, idx, shard: Optional[int] = None) -> dict:
        """Good/bad/goodput totals over time-series windows ``idx``."""
        bank = self.timeseries
        labels = {} if shard is None else {"shard": str(shard)}
        completed = bank.rate("completed", **labels)
        drops = bank.rate("drops", **labels)
        delivered = bank.rate("delivered_bytes", **labels)
        good = sum(completed.window_sum(i) for i in idx)
        bad = sum(drops.window_sum(i) for i in idx)
        nbytes = sum(delivered.window_sum(i) for i in idx)
        duration_ns = len(idx) * bank.interval_ns
        out = {
            "completed": good,
            "drops": bad,
            "availability": (None if good + bad == 0
                             else round(good / (good + bad), 4)),
            "goodput_mbs": round(nbytes / (duration_ns / 1e9) / 1e6, 4),
        }
        if shard is not None:
            out = {"shard": shard, **out}
        return out

    def report(self) -> dict:
        """The deterministic per-run report fragment.

        Sharded runs add a ``shards`` list (one full report fragment per
        shard) and the aggregate ``imbalance`` ratio; unsharded runs keep
        the flat schema.
        """
        report = self._report_flat()
        if self.shards:
            report["shards"] = [s._report_flat() for s in self.shards]
            imbalance = self.imbalance()
            report["imbalance"] = (None if imbalance is None
                                   else round(imbalance, 4))
        if self.timeseries is not None:
            report["timeseries"] = self.timeseries.as_dict()
        return report

    def _report_flat(self) -> dict:
        depths = [depth for _t, depth in self.queue_depth]
        return {
            "latency": self.latency.summary(),
            "queue_wait": self.queue_wait.summary(),
            "queue_depth_max": max(depths) if depths else 0,
            "throughput_rps": round(self.throughput_rps(), 2),
            "goodput_mbs": round(self.goodput_mbs(), 4),
            "sent": self.counters["sent"],
            "completed": self.counters["completed"],
            "drops": {
                "shed": self.counters["shed"],
                "expired": self.counters["expired"],
                "abandoned": self.counters["abandoned"],
                "total": self.drops(),
            },
            "elapsed_ns": self.elapsed_ns,
        }

    def __repr__(self) -> str:
        return (f"<WorkloadStats {self.name!r} sent={self.counters['sent']} "
                f"completed={self.counters['completed']} drops={self.drops()}>")
