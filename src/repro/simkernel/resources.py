"""Exclusive-use resources: the lean :class:`Lock` and the general
:class:`Resource`.

Every device in the hardware model — the host CPU, a bus arbiter, a DMA
channel — is a capacity-1 FIFO :class:`Lock`::

    yield cpu.lock.acquire()
    try:
        yield env.timeout(cost)
    finally:
        cpu.lock.release()

An uncontended :meth:`Lock.acquire` costs one pooled grant event — or none,
when the grant would be the next event to fire and completes in place (see
``repro.simkernel.env``).  :class:`Resource` (any capacity, FIFO or priority
queueing, cancellable requests used as context managers) is the reference
the lock is property-tested against.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING

from repro.simkernel.errors import SimulationError
from repro.simkernel.events import _EVENT_FREE, Event, SEQ_BITS, PRIORITY_NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


_NORMAL_KEY = PRIORITY_NORMAL << SEQ_BITS


class Lock:
    """A capacity-1 lock with strict FIFO handoff.

    Grants follow acquire order and are scheduled exactly when a
    ``Resource(capacity=1)`` request's would be (same sequence numbers,
    unless a grant completes in place), so swapping one for the other
    changes no simulated result.  Unlike a
    :class:`Request`, a grant carries no identity: :meth:`release` frees
    whichever holder there is, so a process must only release a lock it
    holds (acquire outside the ``try``, release in its ``finally``).  A
    process interrupted while still queued would leave its grant behind;
    model processes are never interrupted.
    """

    __slots__ = ("env", "name", "_held", "_waiters")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self._held = False
        self._waiters: deque[Event] = deque()

    def locked(self) -> bool:
        return self._held

    def acquire(self) -> Event:
        """An event that fires once the lock is this caller's."""
        env = self.env
        if self._held:
            grant = env.event()
            self._waiters.append(grant)
            return grant
        self._held = True
        if env._fires_next():
            return env._fired
        # Inlined env.event().succeed(): a granted, scheduled event.
        pool = _EVENT_FREE
        grant = pool.pop() if pool else Event(env)
        grant.env = env
        grant._value = None
        grant._ok = grant._triggered = True
        grant._processed = grant._defused = False
        env._seq += 1
        env._imm.append((_NORMAL_KEY + env._seq, grant))
        return grant

    def release(self) -> None:
        """Hand the lock to the longest waiter, or free it."""
        waiters = self._waiters
        if waiters:
            waiters.popleft().succeed()
        elif self._held:
            self._held = False
        else:
            raise SimulationError(f"release of unheld lock {self.name!r}")

    def __repr__(self) -> str:
        state = "held" if self._held else "free"
        return f"<Lock {self.name!r} {state} queued={len(self._waiters)}>"


class Request(Event):
    """A pending or granted claim on a resource (usable as context manager)."""

    __slots__ = ("resource", "key")

    def __init__(self, resource: "Resource", key: tuple):
        super().__init__(resource.env)
        self.resource = resource
        self.key = key

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)
        return None

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource.release(self)


class Resource:
    """A FIFO resource with integer capacity (the reference for :class:`Lock`).

    Fairness: grants strictly follow request order (for
    :class:`PriorityResource`, priority order with FIFO tie-break), which
    keeps host-CPU contention between the send path and the extract path
    deterministic.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: list[tuple[tuple, Request]] = []  # heap keyed by request key
        self._seq = 0

    # -- API -------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    def request(self) -> Request:
        self._seq += 1
        req = Request(self, key=(self._seq,))
        self._admit_or_queue(req)
        return req

    def release(self, request: Request) -> None:
        """Release a held request, or cancel a queued one. Idempotent."""
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            for i, (_key, queued_req) in enumerate(self._queue):
                if queued_req is request:
                    self._queue.pop(i)
                    heapq.heapify(self._queue)
                    break

    # -- internals ------------------------------------------------------------
    def _admit_or_queue(self, req: Request) -> None:
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            heapq.heappush(self._queue, (req.key, req))

    def _grant_next(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            _key, req = heapq.heappop(self._queue)
            self._users.add(req)
            req.succeed(req)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} users={len(self._users)}"
                f"/{self.capacity} queued={len(self._queue)}>")


class PriorityResource(Resource):
    """Resource whose queue is ordered by (priority, arrival)."""

    def request(self, priority: int = 0) -> Request:  # type: ignore[override]
        self._seq += 1
        req = Request(self, key=(priority, self._seq))
        self._admit_or_queue(req)
        return req


def held_by_anyone(resource: Resource) -> bool:
    """True if the resource has at least one holder (test helper)."""
    if not isinstance(resource, Resource):
        raise SimulationError(f"not a resource: {resource!r}")
    return resource.count > 0
