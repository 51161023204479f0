"""The traced pass: per-layer host time and simulated counts, read from outside.

Three sources, none of which changes ``src/``:

* a cProfile hook: each function's host self time goes to the package that
  defines it, and calls whose caller sits in another package count as
  ``<layer>.calls_in``;
* wrappers around public functions (``Nic.rx_wakeup``, ``FM2.extract``,
  ``build_mpi_world``), installed only for the traced pass;
* the observer's spans and histograms plus the public counters of the
  cluster's components.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
from pathlib import Path

from repro.obs.metrics import Histogram
from repro.workloads.rpc import IDLE_WAIT_CAP_NS

#: The repo's packages, top to bottom, as the ledger names them.
LAYERS = ("workloads", "dataflow", "upper.mpi", "core", "hardware",
          "simkernel", "parallel", "cluster", "obs")

#: Everything else: C builtins, the standard library, this benchmark and
#: repro modules outside the layers above.
REMAINDER = "builtins"

#: Largest gap allowed between the summed self times and the traced wall.
CLOSURE_TOLERANCE = 0.10


def layer_of(filename: str, src_root: Path) -> str:
    """The layer that owns a profiled function's source file."""
    try:
        parts = Path(filename).relative_to(src_root / "repro").parts
    except ValueError:
        return REMAINDER
    if len(parts) > 2 and parts[:2] == ("upper", "mpi"):
        return "upper.mpi"
    return parts[0] if parts[0] in LAYERS else REMAINDER


def profile_rollup(profile: cProfile.Profile,
                   src_root: Path) -> tuple[dict, dict]:
    """``(self seconds, calls in from other layers)`` per layer."""
    self_s = dict.fromkeys(LAYERS + (REMAINDER,), 0.0)
    calls_in = dict.fromkeys(LAYERS + (REMAINDER,), 0)
    cache: dict[str, str] = {}

    def owner(func) -> str:
        name = func[0]
        if name not in cache:
            cache[name] = layer_of(name, src_root)
        return cache[name]

    for func, (_cc, _nc, tottime, _ct, callers) in \
            pstats.Stats(profile).stats.items():
        layer = owner(func)
        self_s[layer] += tottime
        calls_in[layer] += sum(entry[0] for caller, entry in callers.items()
                               if owner(caller) != layer)
    return self_s, calls_in


class Probes:
    """Wrappers around public functions, recording what the layers did.

    Use as a context manager around one run; the originals are restored
    on exit.  The wrappers add host time but no simulated events.
    """

    def __init__(self):
        self.waits: list[list] = []      # [registered_ns, fired_ns or None]
        self.extract_calls = 0
        self.mpi_engines: list = []

    @contextlib.contextmanager
    def installed(self):
        from repro.core.fm2.api import FM2
        from repro.hardware.nic import Nic
        import repro.upper.mpi.world as world

        originals = [(Nic, "rx_wakeup", Nic.rx_wakeup),
                     (FM2, "extract", FM2.extract),
                     (world, "build_mpi_world", world.build_mpi_world)]
        waits = self.waits
        rx_wakeup = Nic.rx_wakeup

        def wakeup(nic):
            event = rx_wakeup(nic)
            env = nic.env
            record = [env.now, None]
            waits.append(record)
            event.callbacks.append(
                lambda _event: record.__setitem__(1, env.now))
            return event

        extract = FM2.extract

        def counted_extract(fm, *args, **kwargs):
            self.extract_calls += 1
            return extract(fm, *args, **kwargs)

        build_mpi_world = world.build_mpi_world

        def mpi_world(*args, **kwargs):
            comms = build_mpi_world(*args, **kwargs)
            self.mpi_engines.extend(comm.engine for comm in comms)
            return comms

        Nic.rx_wakeup = wakeup
        FM2.extract = counted_extract
        world.build_mpi_world = mpi_world
        try:
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    def cap_frac(self) -> float:
        """Share of idle waits not ended by a deposit inside the cap."""
        if not self.waits:
            return 0.0
        by_deposit = sum(1 for start, fired in self.waits
                         if fired is not None
                         and fired - start < IDLE_WAIT_CAP_NS)
        return 1.0 - by_deposit / len(self.waits)


def sim_counts(cluster) -> dict[str, int]:
    """Simulated counts from public counters (must repeat exactly)."""
    nodes = cluster.nodes
    return {
        "simkernel.events": cluster.env.scheduled_events,
        "hardware.packets": sum(n.nic.sent_packets for n in nodes),
        "hardware.control_packets": sum(n.nic.control_packets
                                        for n in nodes),
        "hardware.copy_bytes": sum(n.cpu.meter.bytes for n in nodes),
        "hardware.copies": sum(n.cpu.meter.copies for n in nodes),
        "hardware.cpu_busy_ns": sum(n.cpu.busy_ns for n in nodes),
        "hardware.bus_busy_ns": sum(n.bus.busy_ns for n in nodes),
        "core.messages": sum(n.fm.stats_sent_messages for n in nodes),
        "core.credit_stalls": sum(n.fm.stats_credit_stalls for n in nodes),
        "core.credit_stall_ns": sum(n.fm.stats_credit_stall_ns
                                    for n in nodes),
    }


def span_metrics(observer) -> dict[str, int]:
    """Simulated time inside each layer's spans, and the receive wait."""
    span_ns = {"nic": 0, "fabric": 0, "fm": 0, "mpi": 0}
    for span in observer.spans:
        if span.layer in span_ns:
            span_ns[span.layer] += span.t_end - span.t_start
    rx_wait = Histogram("rx_wait")
    for hist in observer.metrics.histograms("packet.stage"):
        if hist.labels["stage"].endswith(".dma_done -> extract"):
            rx_wait.values.extend(hist.values)
    return {
        "hardware.rx_wait_p99_ns": rx_wait.p99 if rx_wait.count else 0,
        "hardware.nic_sim_ns": span_ns["nic"],
        "hardware.fabric_sim_ns": span_ns["fabric"],
        "core.sim_span_ns": span_ns["fm"],
        "upper.mpi.sim_span_ns": span_ns["mpi"],
    }


def report_metrics(results: dict) -> dict[str, float]:
    """Layer metrics the workload report already carries (0 where the
    workload does not exercise that layer)."""
    queue_wait = results.get("queue_wait", {}).get("p99_ns") or 0
    stages = results.get("stages", [])
    return {
        "workloads.queue_wait_p99_us": queue_wait / 1e3,
        "workloads.imbalance": results.get("imbalance", 0.0),
        "workloads.samples": results["latency"]["count"],
        "dataflow.queue_depth_max": max(
            (stage["queue_depth_max"] for stage in stages), default=0),
        "dataflow.credit_stall_ns": results.get("credit_stall_ns", 0),
    }


def mpi_metrics(engines: list) -> dict[str, int]:
    return {
        "upper.mpi.rendezvous": sum(e.stats_rendezvous for e in engines),
        "upper.mpi.unexpected": sum(e.stats_unexpected for e in engines),
        "upper.mpi.spills": sum(e.stats_spills for e in engines),
    }
