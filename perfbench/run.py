"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rpc-fanout --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` with tracing off and
prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs it
once untraced and once under the profiler and observer, and prints the
per-layer metrics.  Every run checks the simulated outputs, requires
repeated runs to be exactly identical, and prints a JSON result as its
last line.  Run information and the benchmark's own spans are written to
``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 120
#: Every run repeats its workload at least this often (exact-repeat check).
MIN_REPS = 2
#: Host timings are reported as on a host whose calibration loop
#: (:func:`calibration_s`) takes this long.  Shared hosts drift in speed by
#: up to 2x over minutes; the loop timed on either side of each measurement
#: follows that drift, so scaling by it keeps runs comparable.
REFERENCE_CALIBRATION_S = 0.040


class SpanLog:
    """Spans around the benchmark's own calls, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans) + 1,
                  "parent": self._open[-1] if self._open else None,
                  "name": name, "start_s": time.monotonic(), "attrs": attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end_s"] = time.monotonic()


@contextlib.contextmanager
def first_event_clock():
    """Wrap ``Environment.run`` to note the host time of the first
    simulated event; yields a list that receives that time."""
    from repro.simkernel.env import Environment

    run = Environment.run
    stamps: list[float] = []

    def timed_run(env, until=None):
        if not stamps:
            stamps.append(time.monotonic())
        return run(env, until)

    Environment.run = timed_run
    try:
        yield stamps
    finally:
        Environment.run = run


def run_once(sc) -> dict:
    """One run of ``sc`` with tracing off: report, wall times, counts."""
    from layers import sim_counts
    from repro.workloads.runner import execute_scenario
    from workloads import completed_ops, transport_errors

    gc.collect()
    with first_event_clock() as stamps:
        start = time.monotonic()
        outcome = execute_scenario(sc)
        end = time.monotonic()
    return {
        "report": outcome.report,
        "report_json": json.dumps(outcome.report),
        "wall_s": end - stamps[0],
        "call_s": end - start,
        "ops": completed_ops(sc, outcome.report["results"]),
        "counts": sim_counts(outcome.cluster),
        "errors": transport_errors(outcome.cluster),
    }


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first simulated event."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_PROBE_TIMEOUT_S, check=False)
    stamps = [float(line.split()[1]) for line in proc.stdout.splitlines()
              if line.startswith("first-event ")]
    if proc.returncode != 0 or not stamps:
        raise RuntimeError(f"setup probe for {name} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return stamps[0] - start


def calibration_s() -> float:
    """Wall time of a 10^6-iteration pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i
    return time.perf_counter() - t0


def calibrated(raw: list, calibrations: list, per_second: bool) -> list:
    """Scale host timings to the reference host, using the calibration
    loops timed on either side of each measurement (``calibrations`` has
    one more entry than ``raw``)."""
    scaled = []
    for i, value in enumerate(raw):
        slowdown = ((calibrations[i] + calibrations[i + 1]) / 2
                    / REFERENCE_CALIBRATION_S)
        scaled.append(value * slowdown if per_second else value / slowdown)
    return scaled


def commit() -> str:
    """The checked-out commit, when the tree is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


class Outcome:
    """Checks and counts accumulated over one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_run(self, sc, run: dict) -> None:
        from workloads import check

        attempted, failed, problems = check(sc, run["report"]["results"],
                                            run["errors"])
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def same(self, what: str, first, other) -> None:
        if first != other:
            self.problems.append(f"nondeterminism: {what} differ between "
                                 "two runs of the same code and inputs")


def measure_end_to_end(name: str, seed: int, seconds: int, log: SpanLog,
                       outcome: Outcome, info: dict) -> dict:
    from workloads import scenario, sim_metrics

    sc = scenario(name, seed)
    setups, setup_cals = [], [calibration_s()]
    with log.span("setup", probes=SETUP_PROBES):
        for _ in range(SETUP_PROBES):
            setups.append(probe_setup(name, seed))
            setup_cals.append(calibration_s())
    runs, run_cals = [], [calibration_s()]
    deadline = time.monotonic() + seconds
    while len(runs) < MIN_REPS or time.monotonic() < deadline:
        with log.span("run", rep=len(runs)):
            runs.append(run_once(sc))
        run_cals.append(calibration_s())
    with log.span("report"):
        first = runs[0]
        for run in runs:
            outcome.add_run(sc, run)
            outcome.same("reports", first["report_json"], run["report_json"])
            outcome.same("simulated counts", first["counts"], run["counts"])
        results = first["report"]["results"]
        rates = [run["ops"] / run["wall_s"] for run in runs]
        info.update(reps=len(runs), samples=results["latency"]["count"],
                    setup_raw_s=setups, setup_calibrations_s=setup_cals,
                    host_ops_per_s_raw=rates, run_calibrations_s=run_cals)
        return {
            "host_ops_per_s": statistics.fmean(
                calibrated(rates, run_cals, per_second=True)),
            "setup_s": statistics.median(
                calibrated(setups, setup_cals, per_second=False)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6),
            **sim_metrics(sc, results),
            "success_frac": 1.0 - outcome.failed / outcome.attempted,
        }


def measure_parallel(sc, log: SpanLog, outcome: Outcome) -> dict:
    """The workload's grouped twin, serially and on worker processes."""
    from repro.workloads.partitioned import run_partitioned
    from workloads import PARALLEL_WORKERS, grouped_twin

    twin = grouped_twin(sc)
    if twin is None:
        return {"parallel.speedup": 0.0, "parallel.windows": 0,
                "parallel.boundary_messages": 0,
                "parallel.boundary_stalls": 0,
                "parallel.event_overhead": 0.0}
    with log.span("run", mode="grouped-serial"):
        serial = run_once(twin)
    outcome.add_run(twin, serial)
    details: dict = {}
    with log.span("run", mode=f"partitions={PARALLEL_WORKERS}"):
        gc.collect()
        start = time.monotonic()
        report = run_partitioned(replace(twin, partitions=PARALLEL_WORKERS),
                                 details=details)
        wall = time.monotonic() - start
    if json.dumps(report) != serial["report_json"]:
        outcome.problems.append(
            f"partition invariance broken: the partitions="
            f"{PARALLEL_WORKERS} report differs from the serial report")
    return {
        "parallel.speedup": serial["call_s"] / wall,
        "parallel.windows": details["windows"],
        "parallel.boundary_messages": details["boundary_messages"],
        "parallel.boundary_stalls": details["boundary_stalls"],
        "parallel.event_overhead": (
            details["events"] / serial["counts"]["simkernel.events"]),
    }


def measure_layers(name: str, seed: int, log: SpanLog, outcome: Outcome,
                   info: dict) -> dict:
    import layers
    from repro.workloads.runner import execute_scenario
    from workloads import scenario

    sc = scenario(name, seed)
    with log.span("run", mode="untraced"):
        untraced = run_once(sc)
    outcome.add_run(sc, untraced)
    parallel = measure_parallel(sc, log, outcome)
    probes = layers.Probes()
    profile = cProfile.Profile()
    gc.collect()
    with log.span("run", mode="traced"), probes.installed():
        start = time.monotonic()
        profile.enable()
        traced = execute_scenario(sc, observe=True)
        profile.disable()
        traced_wall = time.monotonic() - start
    with log.span("report"):
        counts = layers.sim_counts(traced.cluster)
        outcome.same("reports (traced vs untraced)", untraced["report_json"],
                     json.dumps(traced.report))
        outcome.same("simulated counts (traced vs untraced)",
                     untraced["counts"], counts)
        self_s, calls_in = layers.profile_rollup(profile, SRC)
        closure = sum(self_s.values()) / traced_wall
        if abs(1.0 - closure) > layers.CLOSURE_TOLERANCE:
            outcome.problems.append(
                f"accounting closure: per-layer self times sum to "
                f"{closure:.3f} of the traced wall time (tolerance "
                f"{layers.CLOSURE_TOLERANCE})")
        results = traced.report["results"]
        received = sum(n.fm.stats_recv_packets for n in traced.cluster.nodes)
        metrics = dict(counts)
        metrics.update({f"{layer}.self_s": s for layer, s in self_s.items()})
        metrics.update({f"{layer}.calls_in": calls_in[layer]
                        for layer in ("simkernel", "hardware", "core")})
        metrics.update(layers.span_metrics(traced.observer))
        metrics.update(layers.report_metrics(results))
        metrics.update(layers.mpi_metrics(probes.mpi_engines))
        metrics.update(parallel)
        metrics.update({
            "simkernel.events_per_s": (counts["simkernel.events"]
                                       / untraced["wall_s"]),
            "hardware.rx_wakeups": len(probes.waits),
            "hardware.rx_wakeups_cap_frac": probes.cap_frac(),
            "hardware.link_errors": untraced["errors"],
            "core.packets_per_extract": (received / probes.extract_calls
                                         if probes.extract_calls else 0.0),
            "trace.overhead": traced_wall / untraced["call_s"],
            "trace.closure": closure,
        })
        info.update(samples=results["latency"]["count"],
                    traced_wall_s=traced_wall,
                    untraced_call_s=untraced["call_s"])
    return metrics


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    from workloads import HELD_OUT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    log = SpanLog()
    outcome = Outcome()
    info = {"workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
            "commit": commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "calibration_s": calibration_s(),
            "reference_calibration_s": REFERENCE_CALIBRATION_S}
    with log.span("benchmark", workload=args.workload, seed=args.seed):
        if args.trace:
            metrics = measure_layers(args.workload, args.seed, log, outcome,
                                     info)
        else:
            metrics = measure_end_to_end(args.workload, args.seed,
                                         args.seconds, log, outcome, info)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric names disagree with BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}")
    for problem in outcome.problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"info": info, "problems": outcome.problems,
                   "result": result, "spans": log.spans}, handle, indent=1)
    print("info " + json.dumps(info))
    for name in units:
        print(f"{name:32s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
