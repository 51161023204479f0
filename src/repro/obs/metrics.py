"""The metrics registry: histograms, rate meters, and federated counters.

One :class:`Metrics` object per cluster collects every quantitative signal
the observability layer produces:

* **histograms** — named distributions with label sets (per-stage packet
  latencies, credit-stall times, queue depths), queried by label;
* **rate meters** — amounts bucketed into fixed simulated-time windows
  (delivered bytes per link per millisecond), from which MB/s series fall
  out;
* **federated primitives** — the pre-existing
  :class:`~repro.simkernel.monitor.Counters` and
  :class:`~repro.hardware.memory.CopyMeter` objects scattered through the
  stack, registered here under stable labels so one object can answer
  "where did the bytes/copies/stalls go in *this* run".

:class:`RunStats` is the base of every workload's per-run stats object
(rpc/MPI, dataflow pipelines, RDMA pingpong): the counters bag, the
active-window clock, federation into this registry, and the
:class:`Histogram` samples behind each report's latency block.

Everything here is bookkeeping-only: recording never touches the event
heap, so metrics add zero simulated time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro.hardware.memory import CopyMeter
from repro.simkernel.monitor import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment

#: Default rate-meter window: one simulated millisecond.
DEFAULT_WINDOW_NS: int = 1_000_000

#: Type of the internal (name, sorted-labels) registry keys.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, str]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def nearest_rank(ordered: Sequence[int], p: float) -> int:
    """Nearest-rank percentile ``p`` in [0, 100] of the sorted, non-empty
    ``ordered``: the value at rank ``max(1, ceil(p * n / 100))``, which is
    what ``numpy.percentile(..., method="inverted_cdf")`` returns.  The
    one quantile rule of every histogram and windowed series.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


class Histogram:
    """A named value distribution with deterministic quantiles.

    Quantiles use the nearest-rank method on the sorted sample list, so a
    histogram's summary is a pure function of the recorded values — no
    interpolation, no floating-point order dependence.
    """

    def __init__(self, name: str, labels: Optional[dict[str, str]] = None):
        self.name = name
        self.labels: dict[str, str] = dict(labels or {})
        self.values: list[int] = []

    def record(self, value: int) -> None:
        """Add one sample."""
        self.values.append(value)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.values)

    @property
    def total(self) -> int:
        """Sum of all samples."""
        return sum(self.values)

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile ``p`` in [0, 100] (raises when empty)."""
        if not self.values:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return nearest_rank(sorted(self.values), p)

    @property
    def p50(self) -> int:
        """Median (nearest rank)."""
        return self.percentile(50)

    @property
    def p99(self) -> int:
        """99th percentile (nearest rank)."""
        return self.percentile(99)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (raises when empty)."""
        if not self.values:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self.total / len(self.values)

    def summary(self) -> dict:
        """The deterministic report block: count, mean, p50/p95/p99, max
        (``None`` everywhere but ``count`` when empty)."""
        if not self.values:
            return {"count": 0, "mean_ns": None, "p50_ns": None,
                    "p95_ns": None, "p99_ns": None, "max_ns": None}
        ordered = sorted(self.values)
        return {
            "count": len(ordered),
            "mean_ns": round(self.mean, 1),
            "p50_ns": nearest_rank(ordered, 50),
            "p95_ns": nearest_rank(ordered, 95),
            "p99_ns": nearest_rank(ordered, 99),
            "max_ns": ordered[-1],
        }

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"<Histogram {self.name!r} {self.labels} n={len(self.values)}>"


class RunStats:
    """What every workload's per-run stats object shares.

    One object per run, bookkeeping only (recording never touches the
    event heap), a pure function of the simulated run.  Subclasses add
    their own ``note_*`` recorders and :meth:`report`.
    """

    def __init__(self, env: Optional["Environment"], name: str):
        self.env = env
        self.name = name
        self.counters = Counters()
        #: The active window (first send to last completion), from which
        #: :attr:`elapsed_ns` and every per-second rate fall out.
        self.t_first: Optional[int] = None
        self.t_last: Optional[int] = None
        self._metrics: Optional["Metrics"] = None

    def federate(self, metrics: "Metrics") -> None:
        """Register the counters bag with an observer's metrics registry;
        from then on :meth:`_mirror` copies samples into its histograms."""
        metrics.register_counters(self.name, self.counters)
        self._metrics = metrics

    def _mirror(self, suffix: str, value: int) -> None:
        """Copy one sample into the federated ``<name>.<suffix>``
        histogram (no-op when unobserved)."""
        if self._metrics is not None:
            self._metrics.histogram(f"{self.name}.{suffix}").record(value)

    @property
    def elapsed_ns(self) -> int:
        """Length of the active window (0 before it closes)."""
        if self.t_first is None or self.t_last is None:
            return 0
        return self.t_last - self.t_first

    def fault_window_report(self, windows) -> Optional[dict]:
        """Per-episode scoring of fault ``windows``; ``None`` for workloads
        whose health signal lives in their own report section."""
        return None

    def report(self) -> dict:
        """The deterministic ``results`` block of the run's report."""
        raise NotImplementedError


class RateMeter:
    """Amounts bucketed into fixed windows of simulated time.

    ``mark(amount)`` adds to the bucket covering ``env.now``; the series of
    (window start, amount) pairs yields delivered-rate curves over the run
    (e.g. link MB/s per simulated millisecond).
    """

    def __init__(self, env: "Environment", name: str,
                 window_ns: int = DEFAULT_WINDOW_NS,
                 labels: Optional[dict[str, str]] = None):
        if window_ns < 1:
            raise ValueError(f"window must be >= 1 ns, got {window_ns}")
        self.env = env
        self.name = name
        self.window_ns = window_ns
        self.labels: dict[str, str] = dict(labels or {})
        self.total: int = 0
        self._buckets: dict[int, int] = {}

    def mark(self, amount: int = 1) -> None:
        """Add ``amount`` to the current window's bucket."""
        index = self.env.now // self.window_ns
        self._buckets[index] = self._buckets.get(index, 0) + amount
        self.total += amount

    def series(self) -> list[tuple[int, int]]:
        """Sorted (window_start_ns, amount) pairs for non-empty windows."""
        return [(index * self.window_ns, amount)
                for index, amount in sorted(self._buckets.items())]

    def mean_rate_mbs(self) -> float:
        """Mean rate in MB/s (10^6 bytes/s) over the spanned windows."""
        if not self._buckets:
            return 0.0
        n_windows = max(self._buckets) - min(self._buckets) + 1
        elapsed_s = n_windows * self.window_ns / 1e9
        return self.total / elapsed_s / 1e6

    def __repr__(self) -> str:
        return (f"<RateMeter {self.name!r} total={self.total} "
                f"windows={len(self._buckets)}>")


class Metrics:
    """Per-cluster registry federating every quantitative signal.

    Histograms and meters are created on first use (get-or-create by name
    plus label set); existing :class:`Counters` / :class:`CopyMeter`
    instances are adopted via the ``register_*`` methods.  All query
    results are deterministically ordered.
    """

    def __init__(self, env: Optional["Environment"] = None):
        self.env = env
        self._histograms: dict[MetricKey, Histogram] = {}
        self._meters: dict[MetricKey, RateMeter] = {}
        self._counters: dict[str, Counters] = {}
        self._copy_meters: dict[str, CopyMeter] = {}

    # -- creation -------------------------------------------------------------
    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create the histogram ``name`` with this exact label set."""
        key = _key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(name, labels)
        return hist

    def meter(self, name: str, window_ns: int = DEFAULT_WINDOW_NS,
              **labels: str) -> RateMeter:
        """Get or create the rate meter ``name`` with this exact label set."""
        if self.env is None:
            raise RuntimeError(
                "rate meters need an environment clock; build this Metrics "
                "with Metrics(env) (Cluster.observe() does)"
            )
        key = _key(name, labels)
        meter = self._meters.get(key)
        if meter is None:
            meter = self._meters[key] = RateMeter(self.env, name, window_ns,
                                                  labels)
        return meter

    # -- federation ------------------------------------------------------------
    def register_counters(self, label: str, counters: Counters) -> None:
        """Adopt an existing Counters bag under ``label``."""
        if label in self._counters:
            raise ValueError(f"counters {label!r} already registered")
        self._counters[label] = counters

    def register_copy_meter(self, label: str, meter: CopyMeter) -> None:
        """Adopt an existing CopyMeter under ``label``."""
        if label in self._copy_meters:
            raise ValueError(f"copy meter {label!r} already registered")
        self._copy_meters[label] = meter

    # -- queries -----------------------------------------------------------------
    def histograms(self, name: Optional[str] = None,
                   **labels: str) -> list[Histogram]:
        """Histograms matching ``name`` (if given) and the label subset."""
        return sorted(
            (h for h in self._histograms.values()
             if (name is None or h.name == name) and _subset(labels, h.labels)),
            key=lambda h: (h.name, sorted(h.labels.items())),
        )

    def meters(self, name: Optional[str] = None, **labels: str) -> list[RateMeter]:
        """Rate meters matching ``name`` (if given) and the label subset."""
        return sorted(
            (m for m in self._meters.values()
             if (name is None or m.name == name) and _subset(labels, m.labels)),
            key=lambda m: (m.name, sorted(m.labels.items())),
        )

    def counter(self, label: str) -> Counters:
        """The Counters bag registered under ``label``."""
        return self._counters[label]

    def copy_bytes_by_label(self) -> dict[str, dict[str, int]]:
        """``{owner: {copy label: bytes}}`` across all registered CopyMeters."""
        return {
            owner: dict(sorted(meter.by_label.items()))
            for owner, meter in sorted(self._copy_meters.items())
        }

    def as_dict(self) -> dict:
        """A flat, deterministic summary of everything registered."""
        out: dict = {"histograms": {}, "meters": {}, "counters": {},
                     "copy_bytes": self.copy_bytes_by_label()}
        for hist in self.histograms():
            label = _render_key(hist.name, hist.labels)
            out["histograms"][label] = {
                "count": hist.count, "total": hist.total,
                "p50": hist.p50 if hist.count else None,
                "p99": hist.p99 if hist.count else None,
            }
        for meter in self.meters():
            label = _render_key(meter.name, meter.labels)
            out["meters"][label] = {"total": meter.total,
                                    "mean_rate_mbs": meter.mean_rate_mbs()}
        for owner, counters in sorted(self._counters.items()):
            out["counters"][owner] = dict(sorted(counters.as_dict().items()))
        return out


def _subset(wanted: dict[str, str], have: dict[str, str]) -> bool:
    return all(have.get(k) == str(v) for k, v in wanted.items())


def _render_key(name: str, labels: dict[str, str]) -> str:
    """``name{a=1,b=2}``: the stable key syntax of every exported label set."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"
