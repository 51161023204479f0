"""The lean :class:`Lock` and in-place completion, against their references.

Two properties over small random programs — processes with random delays
(same-nanosecond ties included) contending on locks and bounded stores,
joining each other, and an outside process spawned between two runs:

* every process sees the same history (time and value at every resume),
  and the resumes interleave in the same global order, with in-place
  completion on and with ``Environment._fires_next`` — the single check
  that allows it — patched to ``False``;
* a :class:`Lock` grants in the same order and at the same times as the
  reference ``Resource(capacity=1)``.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment, Lock, Resource, SimulationError, Store

N_LOCKS = 2
N_STORES = 2

ops = st.one_of(
    st.tuples(st.just("delay"), st.integers(0, 3)),
    st.tuples(st.just("lock"), st.integers(0, N_LOCKS - 1), st.integers(0, 3)),
    st.tuples(st.just("both"), st.integers(0, 3)),
    st.tuples(st.just("put"), st.integers(0, N_STORES - 1)),
    st.tuples(st.just("get"), st.integers(0, N_STORES - 1)),
    st.tuples(st.just("join"), st.integers(1, 3)),
)
programs = st.lists(
    st.tuples(st.integers(0, 3), st.lists(ops, max_size=8)),
    min_size=1, max_size=4)
capacities = st.lists(st.integers(1, 2), min_size=N_STORES,
                      max_size=N_STORES)


class LockHolder:
    """Holds a :class:`Lock` the way the hardware model does."""

    def __init__(self, env):
        self.lock = Lock(env)

    def acquire(self):
        yield self.lock.acquire()

    def release(self):
        self.lock.release()


class ResourceHolder:
    """Holds the reference ``Resource(capacity=1)``."""

    def __init__(self, env):
        self.resource = Resource(env, capacity=1)
        self.held = []

    def acquire(self):
        request = self.resource.request()
        yield request
        self.held.append(request)

    def release(self):
        self.resource.release(self.held.pop())


def run_program(program, caps, holder=LockHolder):
    """Run ``program``; return per-process histories, the global resume
    order, a snapshot, the grant log, the end time and the event count.

    The run stops once the last process finishes (or the heap drains) —
    earlier processes may be joining it — spawns an extra process from
    outside the loop, then runs to quiescence, so in-place completion must
    also leave the state at ``run(until=...)`` unchanged.
    """
    env = Environment()
    locks = [holder(env) for _ in range(N_LOCKS)]
    stores = [Store(env, capacity=cap) for cap in caps]
    histories = [[] for _ in range(len(program) + 1)]
    resumes = []
    grants = []
    procs = []

    def hold(pid, lock_ids, ns):
        for lock_id in lock_ids:
            yield from locks[lock_id].acquire()
            grants.append((env.now, pid, lock_id))
        try:
            yield env.timeout(ns)
        finally:
            for lock_id in reversed(lock_ids):
                locks[lock_id].release()

    def process(pid, start, steps):
        log = histories[pid]
        value = yield env.timeout(start)
        log.append((env.now, value))
        resumes.append(pid)
        for index, op in enumerate(steps):
            kind = op[0]
            if kind == "delay":
                value = yield env.timeout(op[1], value=index)
            elif kind == "lock":
                value = yield from hold(pid, (op[1],), op[2])
            elif kind == "both":
                value = yield from hold(pid, (0, 1), op[1])
            elif kind == "put":
                value = yield stores[op[1]].put((pid, index))
            elif kind == "get":
                value = yield stores[op[1]].get()
            else:  # join a later process; several may wait on one
                other = pid + op[1]
                if other >= len(procs):
                    continue
                value = yield procs[other]
            log.append((env.now, value))
            resumes.append(pid)
        return pid

    for pid, (start, steps) in enumerate(program):
        procs.append(env.process(process(pid, start, steps)))
    try:
        env.run(until=procs[-1])
    except SimulationError:
        pass  # the last process blocked for good; the heap drained
    snapshot = len(resumes)
    procs.append(env.process(process(len(program), 0, (
        ("put", 0), ("both", 1), ("get", 1)))))
    env.run()
    return histories, resumes, snapshot, grants, env.now, env.scheduled_events


@settings(max_examples=300, deadline=None)
@given(program=programs, caps=capacities)
def test_inplace_completion_preserves_every_history(program, caps):
    inplace = run_program(program, caps)
    with mock.patch.object(Environment, "_fires_next", lambda self: False):
        plain = run_program(program, caps)
    assert inplace[:5] == plain[:5]
    # In-place completion only ever removes scheduled events.
    assert inplace[5] <= plain[5]


@settings(max_examples=300, deadline=None)
@given(program=programs, caps=capacities)
def test_lock_grants_match_the_reference_resource(program, caps):
    lean = run_program(program, caps, LockHolder)
    with mock.patch.object(Environment, "_fires_next", lambda self: False):
        reference = run_program(program, caps, ResourceHolder)
        # Without in-place completion the lock schedules exactly what the
        # resource does, event for event.
        assert run_program(program, caps, LockHolder) == reference
    assert lean[:5] == reference[:5]


class TestLock:
    def test_fifo_handoff(self, env):
        lock = Lock(env)
        order = []

        def worker(env, name, start):
            yield env.timeout(start)
            yield lock.acquire()
            try:
                order.append((name, env.now))
                yield env.timeout(10)
            finally:
                lock.release()

        for name, start in (("a", 0), ("b", 1), ("c", 1), ("d", 2)):
            env.process(worker(env, name, start))
        env.run()
        assert order == [("a", 0), ("b", 10), ("c", 20), ("d", 30)]
        assert not lock.locked()

    def test_locked_flag(self, env):
        lock = Lock(env)
        assert not lock.locked()
        lock.acquire()
        assert lock.locked()

    def test_release_of_unheld_lock_is_loud(self, env):
        with pytest.raises(SimulationError, match="unheld"):
            Lock(env, name="bus").release()

    def test_uncontended_grant_completes_in_place(self, env):
        lock = Lock(env)
        store = Store(env, capacity=1)
        seen = []

        def worker(env):
            yield env.timeout(5)
            seen.append((yield lock.acquire()))
            lock.release()
            seen.append((yield store.put("x")))
            seen.append((yield store.get()))
            seen.append(env.now)

        env.process(worker(env))
        env.run()
        assert seen == [None, "x", "x", 5]
        # Process start, the timeout and the process's own exit: the grant,
        # put and get each fired next, so none was scheduled.
        assert env.scheduled_events == 3

    def test_grant_outside_a_lone_process_dispatch_is_scheduled(self, env):
        lock = Lock(env)
        grant = lock.acquire()   # no dispatch running: plain scheduling
        assert grant.triggered and not grant.processed
        assert env.scheduled_events == 1
