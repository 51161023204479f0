"""Windowed time series sampled at fixed simulated-time intervals.

Aggregate statistics (a whole-run p99, a total drop count) cannot show
*when* a service degraded — a 2 ms NicStall inside a 40 ms run vanishes
into the average.  A :class:`TimeSeriesBank` buckets observations into
fixed ``interval_ns`` windows of simulated time, giving every signal a
time axis:

* :class:`RateSeries` — counts/amounts per window (completions, drops,
  delivered bytes): the windowed goodput view;
* :class:`GaugeSeries` — last and max of a sampled level per window
  (queue depth);
* :class:`QuantileSeries` — full sample list per window with
  deterministic nearest-rank quantiles (windowed p50/p99 latency).

Everything is bookkeeping-only: recording never touches the event heap,
so time series obey the observability zero-cost invariant (bit-identical
simulated results with the bank on or off).  Buckets are sparse — only
windows that saw at least one observation materialise — and every
summary is a pure function of the observation stream, so reruns export
byte-identical JSON.  The :mod:`repro.obs.slo` detectors consume these
windows to compute error-budget burn rates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import _render_key, nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class _Series:
    """Shared machinery: sparse per-window buckets keyed by window index."""

    kind = "base"

    def __init__(self, env: "Environment", name: str, interval_ns: int,
                 labels: dict[str, str]):
        self.env = env
        self.name = name
        self.interval_ns = interval_ns
        self.labels = labels
        self._buckets: dict[int, object] = {}

    def _window(self) -> int:
        return self.env.now // self.interval_ns

    def windows(self) -> list[int]:
        """Sorted indices of windows that saw at least one observation."""
        return sorted(self._buckets)

    def points(self) -> list[list]:
        """``[window start ns, ...summary...]`` rows, one per live window."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {_render_key(self.name, self.labels)!r} "
                f"windows={len(self._buckets)}>")


class RateSeries(_Series):
    """Per-window sums of a counted quantity (requests, bytes, drops)."""

    kind = "rate"

    def observe(self, amount: int = 1) -> None:
        """Add ``amount`` to the current window's sum."""
        i = self._window()
        self._buckets[i] = self._buckets.get(i, 0) + amount

    def window_sum(self, window: int) -> int:
        """The sum recorded in ``window`` (0 for untouched windows)."""
        return self._buckets.get(window, 0)

    @property
    def total(self) -> int:
        """Sum over all windows."""
        return sum(self._buckets.values())

    def points(self) -> list[list]:
        return [[i * self.interval_ns, self._buckets[i]]
                for i in sorted(self._buckets)]


class GaugeSeries(_Series):
    """Per-window last/max of a sampled level (queue depth)."""

    kind = "gauge"

    def observe(self, level: int) -> None:
        """Sample the gauge at ``env.now``."""
        i = self._window()
        entry = self._buckets.get(i)
        if entry is None:
            self._buckets[i] = [level, level]
        else:
            entry[0] = level
            entry[1] = max(entry[1], level)

    def points(self) -> list[list]:
        return [[i * self.interval_ns] + list(self._buckets[i])
                for i in sorted(self._buckets)]


class QuantileSeries(_Series):
    """Per-window sample lists with deterministic nearest-rank quantiles.

    Uses :func:`repro.obs.metrics.nearest_rank`, the rule of the aggregate
    :class:`~repro.obs.metrics.Histogram` too, so a windowed p99 agrees
    with it when a run fits one window.
    """

    kind = "quantile"

    def observe(self, value: int) -> None:
        """Add one sample to the current window."""
        self._buckets.setdefault(self._window(), []).append(value)

    def window_values(self, window: int) -> list[int]:
        """The raw samples of ``window`` (empty for untouched windows)."""
        return list(self._buckets.get(window, []))

    def points(self) -> list[list]:
        rows = []
        for i in sorted(self._buckets):
            ordered = sorted(self._buckets[i])
            rows.append([i * self.interval_ns, len(ordered),
                         nearest_rank(ordered, 50),
                         nearest_rank(ordered, 99),
                         ordered[-1]])
        return rows


#: Column names for each series kind's point rows (after the leading
#: window-start timestamp) — recorded in the JSON so reports self-describe.
POINT_COLUMNS = {
    "rate": ["sum"],
    "gauge": ["last", "max"],
    "quantile": ["count", "p50", "p99", "max"],
}


class TimeSeriesBank:
    """Get-or-create registry of windowed series for one stats object."""

    def __init__(self, env: "Environment", interval_ns: int):
        if interval_ns < 1:
            raise ValueError(
                f"interval_ns must be positive, got {interval_ns}")
        self.env = env
        self.interval_ns = interval_ns
        self._series: dict[tuple, _Series] = {}

    def _get(self, cls, name: str, labels: dict[str, str]) -> _Series:
        key = (cls.kind, name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            series = cls(self.env, name, self.interval_ns, labels)
            self._series[key] = series
        return series

    def rate(self, name: str, **labels: str) -> RateSeries:
        """The rate series ``name`` with ``labels`` (created on first use)."""
        return self._get(RateSeries, name, labels)

    def gauge(self, name: str, **labels: str) -> GaugeSeries:
        """The gauge series ``name`` with ``labels``."""
        return self._get(GaugeSeries, name, labels)

    def quantile(self, name: str, **labels: str) -> QuantileSeries:
        """The quantile series ``name`` with ``labels``."""
        return self._get(QuantileSeries, name, labels)

    def window_range(self) -> Optional[tuple[int, int]]:
        """(first, last) window index over every series, or ``None`` when
        nothing has been observed — the dense range SLO evaluation walks."""
        live = [i for s in self._series.values() for i in s.windows()]
        if not live:
            return None
        return min(live), max(live)

    def as_dict(self) -> dict:
        """Deterministic JSON fragment: every series' windowed points."""
        out: dict[str, dict] = {}
        for series in self._series.values():
            points = series.points()
            if not points:
                continue
            out[_render_key(series.name, series.labels)] = {
                "kind": series.kind,
                "columns": POINT_COLUMNS[series.kind],
                "points": points,
            }
        return {"interval_ns": self.interval_ns,
                "series": dict(sorted(out.items()))}

    def __repr__(self) -> str:
        return (f"<TimeSeriesBank interval={self.interval_ns}ns "
                f"series={len(self._series)}>")
