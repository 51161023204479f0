"""Pipeline statistics: end-to-end latency plus per-stage telemetry.

:class:`PipelineStats` plays the role :class:`~repro.workloads.stats
.WorkloadStats` plays for RPC — both are :class:`~repro.obs.metrics
.RunStats`: one object per run, bookkeeping only (recording never touches
the event heap), a pure function of the simulated run, and federable into
an observer's metrics registry.  The shape differs because the unit of
work differs: a record flows through *stages*, so the report carries a
per-stage section (received / processed / emitted / filtered counts, max
queue depth, credit-stall count and nanoseconds, completion time)
alongside the aggregate end-to-end latency histogram and conservation
counters.

Credit stalls are the backpressure signal: a stage whose sends stall is
a stage being paced by its downstream's bounded queue through FM's
credit ledger.  The runtime attributes each stall episode to the emitting
stage via the core ``on_credit_stall`` hook, so "where is the pipeline
tight?" is answerable per stage from the report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import Histogram, RunStats
from repro.simkernel.monitor import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class StageStats:
    """Counters for one placed stage."""

    def __init__(self, name: str, kind: str, node: int):
        self.name = name
        self.kind = kind
        self.node = node
        self.counters = Counters()
        self.queue_depth_max = 0
        self.done_ns: Optional[int] = None

    def note_queue_depth(self, depth: int) -> None:
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "received": self.counters["received"],
            "processed": self.counters["processed"],
            "emitted": self.counters["emitted"],
            "filtered": self.counters["filtered"],
            "credit_stalls": self.counters["credit_stalls"],
            "credit_stall_ns": self.counters["credit_stall_ns"],
            "queue_depth_max": self.queue_depth_max,
            "done_ns": self.done_ns,
        }


class PipelineStats(RunStats):
    """Everything one pipeline run reports.

    The active window runs from the first source emit to the last sink
    delivery.  Federate before building stages: each stage's counters
    bag registers as ``<name>.<stage>`` when the stage is added.
    """

    def __init__(self, env: "Environment", name: str = "pipeline"):
        super().__init__(env, name)
        #: End-to-end record latency (source emit -> sink arrival).
        self.latency = Histogram(f"{name}.latency_ns")
        self.stages: dict[str, StageStats] = {}

    # -- construction ------------------------------------------------------
    def add_stage(self, name: str, kind: str, node: int) -> StageStats:
        if name in self.stages:
            raise ValueError(f"duplicate stage stats {name!r}")
        stage = StageStats(name, kind, node)
        self.stages[name] = stage
        if self._metrics is not None:
            self._metrics.register_counters(f"{self.name}.{name}",
                                            stage.counters)
        return stage

    # -- recording ---------------------------------------------------------
    def note_emitted(self, stage: StageStats) -> None:
        """A source put one fresh record into the pipeline (the stage's
        own ``emitted`` counter is bumped by the send path)."""
        self.counters.add("emitted")
        if self.t_first is None:
            self.t_first = self.env.now

    def note_delivered(self, stage: StageStats, latency_ns: int,
                       source_records: int) -> None:
        """A sink consumed one record carrying ``source_records`` counts."""
        stage.counters.add("received")
        stage.counters.add("processed")
        self.counters.add("delivered")
        self.counters.add("delivered_source_records", source_records)
        self.latency.record(latency_ns)
        self.t_last = self.env.now
        self._mirror("latency_ns", latency_ns)

    def note_filtered(self, stage: StageStats, source_records: int) -> None:
        """A filter stage dropped-by-predicate ``source_records`` counts
        (conserved, not lost: they show up in the conservation section)."""
        stage.counters.add("filtered")
        self.counters.add("filtered_records", source_records)

    def note_credit_stall(self, stage: StageStats, stall_ns: int) -> None:
        stage.counters.add("credit_stalls")
        stage.counters.add("credit_stall_ns", stall_ns)
        self.counters.add("credit_stalls")
        self.counters.add("credit_stall_ns", stall_ns)

    def note_queue_depth(self, stage: StageStats, depth: int) -> None:
        stage.note_queue_depth(depth)
        if self._metrics is not None:  # skip the name format when unobserved
            self._mirror(f"{stage.name}.queue_depth", depth)

    # -- reporting ---------------------------------------------------------
    def throughput_rps(self) -> float:
        """Delivered *source* records per second of pipeline activity."""
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.counters["delivered_source_records"] * 1e9 / elapsed

    def report(self) -> dict:
        emitted = self.counters["emitted"]
        sink_records = self.counters["delivered_source_records"]
        filtered = self.counters["filtered_records"]
        return {
            "records": {
                "emitted": emitted,
                "delivered": self.counters["delivered"],
                "delivered_source_records": sink_records,
                "filtered": filtered,
                "dropped": self.counters["dropped"],
            },
            "conservation": {
                "sources_emitted": emitted,
                "sink_source_records": sink_records,
                "filtered": filtered,
                "ok": emitted == sink_records + filtered,
            },
            "latency": self.latency.summary(),
            "throughput_rps": round(self.throughput_rps(), 2),
            "elapsed_ns": self.elapsed_ns,
            "credit_stalls": self.counters["credit_stalls"],
            "credit_stall_ns": self.counters["credit_stall_ns"],
            "stages": [stage.as_dict() for stage in self.stages.values()],
        }
