"""The one blocking-wait policy every layer above FM shares.

A layer that finds nothing to do sleeps on a one-shot NIC wakeup
(:meth:`~repro.hardware.nic.Nic.rx_wakeup` or ``cq_wakeup``) rather than
re-polling on a fixed backoff.  The sleep is capped at
:data:`IDLE_WAIT_CAP_NS` because a deposit is not the only way a waiter's
condition can come true: another process on the same node may extract the
waiter's data with no fresh deposit to wake it.

Blocking calls (MPI waits, sockets, Shmem, Winsock) use
:func:`progress_until`, whose stall clock measures simulated time
*without progress*: every pass that makes progress re-anchors it, and it
is read from ``env.now``, so time spent inside a slowed ``progress()``
pass counts and detection cannot fire late.  Pumps that never give up
(RPC, dataflow, the supervisor) yield :func:`idle_wait` directly.
"""

from __future__ import annotations

from typing import Callable, Generator

#: Longest one idle wait sleeps before its waiter re-checks (the
#: missed-wakeup guard).
IDLE_WAIT_CAP_NS = 20_000


def idle_wait(env, wakeup):
    """The event to yield while idle: ``wakeup`` or the cap, whichever
    fires first.  ``wakeup`` is created by the caller, before the cap
    timer, which keeps event order (and every report) stable."""
    return env.any_of([wakeup, env.timeout(IDLE_WAIT_CAP_NS)])


def progress_until(env, nic, ready: Callable[[], bool],
                   progress: Callable[[], Generator],
                   stall_limit_ns: int,
                   stalled: Callable[[int], Exception]) -> Generator:
    """Run ``progress()`` passes until ``ready()`` holds.

    After an idle pass (``progress()`` returned false) the call raises
    ``stalled(ns)`` once ``ns``, the time since the last pass that made
    progress, exceeds ``stall_limit_ns``; otherwise it sleeps on the next
    receive-region deposit (capped).
    """
    t_wait = env.now
    while not ready():
        if (yield from progress()):
            t_wait = env.now
            continue
        stalled_ns = env.now - t_wait
        if stalled_ns > stall_limit_ns:
            raise stalled(stalled_ns)
        yield idle_wait(env, nic.rx_wakeup())
