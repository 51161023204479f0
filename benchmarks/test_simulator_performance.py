"""Meta-benchmark: the simulator's own speed (kernel wall time, packets/sec).

Unlike the figure benchmarks (one deterministic simulation run each),
these use pytest-benchmark's statistical machinery properly — multiple
rounds of the same deterministic workload — to track the *wall-clock*
cost of simulating, which bounds how large an experiment the library can
host.  Regressions here make every other benchmark slower.

The speed gates are **relative**: each workload is compared against a
trivial pure-Python calibration loop timed on the same machine in the same
session, so a slow CI runner slows both sides and the ratio holds.  The
absolute numbers (and the tracked history) live in ``BENCH_selfperf.json``,
regenerated here via :mod:`repro.bench.selfperf`.
"""

import os
from pathlib import Path
from time import perf_counter

import pytest

from repro.bench.selfperf import (
    build_document,
    kernel_workload,
    measure,
    partitioned_parallel_workload,
    partitioned_serial_workload,
    stack_obs_workload,
    stack_workload,
    write_selfperf,
)


def _calibration_seconds() -> float:
    """Wall time of a trivial 10^6-iteration pure-Python loop (min of 3).

    This is the machine-speed yardstick: every workload gate below is a
    multiple of this, so the assertions measure *simulator efficiency*, not
    the runner's absolute speed.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i
        best = min(best, perf_counter() - t0)
    assert acc == 499999500000
    return best


def test_simkernel_event_throughput(benchmark):
    simulated_ns, events = benchmark.pedantic(
        kernel_workload, rounds=5, iterations=1, warmup_rounds=1)
    # The fixed chain: same work and end time whatever the kernel skips.
    assert simulated_ns == 5009
    assert events > 0

    # The chain (8k scheduled events since in-place completion, 12k
    # before) must cost no more than ~2x a million trivial loop
    # iterations.  (Post-overhaul the ratio is ~0.4; the baseline kernel
    # sat near 0.9.)
    assert benchmark.stats.stats.mean < 2.0 * _calibration_seconds()


def test_full_stack_simulation_throughput(benchmark):
    simulated_ns, packets = benchmark.pedantic(
        stack_workload, rounds=3, iterations=1, warmup_rounds=1)
    assert simulated_ns > 0
    assert packets >= 60      # at least one wire packet per message

    # One bandwidth point (60 messages, full FM2 protocol, 2 nodes) should
    # cost no more than ~3x the calibration loop.
    assert benchmark.stats.stats.mean < 3.0 * _calibration_seconds()


def test_observability_overhead_bounded(benchmark):
    """Full observability may cost wall time, but only a bounded factor.

    The obs-on stack workload (identical traffic, observer attached) is
    gated machine-relative like everything else here; separately, its min
    wall time must stay within 4x the obs-off run measured in the same
    session — recording spans/metrics must never dominate simulation.
    """
    simulated_ns, packets = benchmark.pedantic(
        stack_obs_workload, rounds=3, iterations=1, warmup_rounds=1)
    assert simulated_ns > 0
    assert packets >= 60
    assert benchmark.stats.stats.mean < 6.0 * _calibration_seconds()

    best_plain = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        plain_ns, _count = stack_workload()
        best_plain = min(best_plain, perf_counter() - t0)
    # Zero *simulated* cost is exact; wall cost is allowed but bounded.
    assert plain_ns == simulated_ns
    assert benchmark.stats.stats.min < 4.0 * best_plain


def test_partitioned_scaling():
    """The partitioned engine must actually scale — where it can.

    Wall-clock speedup of 4 worker processes over the serial runner is
    bounded above by the machine's core count, so the gate is
    machine-relative: on >= 4 cpus (the CI runners) the partitioned run
    must be at least 2x faster; on smaller boxes (where parallel wall
    time is serial compute plus barrier overhead on one core) we only
    require that the engine completes and simulates the same scenario.
    """
    best_serial, best_parallel = float("inf"), float("inf")
    sim_serial = sim_parallel = 0
    for _ in range(2):
        t0 = perf_counter()
        sim_serial, _events = partitioned_serial_workload()
        best_serial = min(best_serial, perf_counter() - t0)
    for _ in range(2):
        t0 = perf_counter()
        sim_parallel, _events = partitioned_parallel_workload()
        best_parallel = min(best_parallel, perf_counter() - t0)
    # Same scenario, same simulated end time — partition-count invariance.
    assert sim_serial == sim_parallel > 0
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert best_serial / best_parallel >= 2.0, (
            f"partitioned run only {best_serial / best_parallel:.2f}x "
            f"faster on {cpus} cpus")


def test_selfperf_baseline_regenerated():
    """Regenerate BENCH_selfperf.json (the tracked self-performance file).

    Runs the same harness the CLI uses and rewrites the repo-root artifact,
    so a benchmarks run always leaves a fresh ``current`` section behind.
    Only determinism is asserted here — the committed file, not this test,
    records the speedup claim.
    """
    current = measure(repeats=3)
    document = build_document(current)
    # The workloads are deterministic: the kernel chain must reach the
    # frozen baseline's simulated end time (its event count may fall as
    # the kernel skips events), and the stack its packet count.
    assert current["kernel"]["simulated_ns"] == \
        document["baseline"]["kernel"]["simulated_ns"]
    assert current["stack"]["packets"] == document["baseline"]["stack"]["packets"]

    root = Path(__file__).resolve().parent.parent
    path = write_selfperf(root / "BENCH_selfperf.json", document=document)
    assert path.exists()
