"""The simulation environment: clock, event heap, run loop.

Two execution paths share one event ordering:

* :meth:`Environment.step` is the *reference* path — fire exactly one event,
  with every guard in place.  Debugging helpers (:meth:`run_steps`) and
  direct test drivers use it.
* :meth:`Environment.run` uses an inlined *drain loop* (:meth:`_drain`) that
  pops and fires events without re-entering ``step()`` per event, keeps the
  ``trace`` hook test down to one load per event, and recycles anonymous
  events into per-class free lists (see ``repro.simkernel.events``).

Both paths pop the same heap in the same order, so simulated results are
bit-identical whichever drives the run — ``tests/test_determinism.py``
compares full (time, seq, priority) traces across the two.

**In-place completion.**  While an event's only callback is one process
(the dominant dispatch), that process's code is the last thing the dispatch
runs.  If it then asks for an event that would be scheduled *now* and
nothing else is due now (:meth:`Environment._fires_next`: the immediate
queue is empty and no heap entry is at the current instant), that event is
provably the next to fire, and its only possible waiter is this process.
:class:`~repro.simkernel.resources.Lock` grants and the
:class:`~repro.simkernel.store.Store` fast paths then return it already
fired instead of scheduling it, and both loops continue the generator
inline when it is yielded.  Skipping an event that fires next shifts every
later sequence number by one, so the (time, priority, seq) order of every
remaining event — and with it every simulated result — is unchanged.  The
rule assumes the caller yields the returned event (at once or later); a
condition built over it, or a higher-priority event scheduled at ``now``,
in the same step would see it fire early.  No model code does either.
"""

from __future__ import annotations

import gc
import sys
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.simkernel.errors import SimulationError, StopProcess
from repro.simkernel.events import (
    _EVENT_FREE,
    _POOL_CAP,
    _TIMEOUT_FREE,
    AllOf,
    AnyOf,
    Event,
    PRIORITY_NORMAL,
    SEQ_BITS,
    Timeout,
)
from repro.simkernel.process import Process

_PENDING = Event._PENDING
#: ``until_time`` of an untimed drain: later than any reachable instant.
_FOREVER = sys.maxsize


class Environment:
    """Holds simulated time and executes events in deterministic order.

    Events scheduled for the same instant are ordered by ``priority`` then by
    a monotonically increasing sequence number, so any run is a pure function
    of the model — there is no dependence on hash ordering or wall-clock.
    """

    __slots__ = ("now", "_heap", "_imm", "_seq", "_active_process",
                 "_active_processes", "_inplace", "_fired", "trace",
                 "last_key", "obs", "faults")

    def __init__(self, initial_time: int = 0):
        if not isinstance(initial_time, int) or initial_time < 0:
            raise ValueError(f"initial_time must be a non-negative int, got {initial_time!r}")
        #: Current simulated time in nanoseconds.  A plain slot (not a
        #: property): model code reads it on nearly every operation, and
        #: only the run loops write it.
        self.now: int = initial_time
        self._heap: list[tuple[int, int, Event]] = []
        #: FIFO of ``(key, event)`` pairs scheduled for *now* at normal
        #: priority — the dominant schedule (every succeed).  Appending here
        #: skips the heap sift; keys stay monotone within the queue, so the
        #: pop order against same-time heap entries is a single head compare.
        self._imm: deque[tuple[int, Event]] = deque()
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        self._active_processes: int = 0
        #: True while the dispatch in progress is a lone process resume
        #: whose end is followed directly by the next pop (see
        #: :meth:`_fires_next`); False everywhere else.
        self._inplace: bool = False
        #: The shared already-fired event that in-place lock grants return
        #: (value ``None``); store fast paths fire their own events in place.
        fired = Event(self)
        fired.callbacks = None
        fired._value = None
        fired._triggered = fired._processed = True
        self._fired = fired
        #: Optional hook called as ``trace(time, event)`` before each event
        #: fires.  While it runs, :attr:`last_key` holds the fired event's
        #: packed (priority, seq) heap key.
        self.trace: Optional[Callable[[int, Event], None]] = None
        #: Packed heap key of the most recently traced event; decode with
        #: :meth:`decode_key`.  Only maintained while ``trace`` is attached
        #: (keeping the untraced drain loop free of the extra store).
        self.last_key: int = 0
        #: Optional :class:`repro.obs.observer.Observer`; instrumented layers
        #: emit spans/metrics into it.  ``None`` (the default) disables all
        #: observability at the cost of one ``is None`` test per site; the
        #: observer itself never consumes simulated time, so results are
        #: bit-identical with it on or off.
        self.obs: Optional[Any] = None
        #: Optional :class:`repro.faults.injector.FaultInjector`; hardware
        #: models consult it at their fault points.  ``None`` (the default)
        #: disables injection at the cost of one ``is None`` test per site;
        #: an injector with an *empty* plan is also bit-identical to none.
        self.faults: Optional[Any] = None

    # -- clock ---------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def active_process_count(self) -> int:
        """Number of processes started but not yet finished."""
        return self._active_processes

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled (the self-perf events/sec numerator)."""
        return self._seq

    @staticmethod
    def decode_key(key: int) -> tuple[int, int]:
        """Unpack a heap key into ``(priority, seq)``."""
        return key >> SEQ_BITS, key & ((1 << SEQ_BITS) - 1)

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        pool = _EVENT_FREE
        if pool:
            event = pool.pop()
            event.env = self
            event._value = _PENDING
            event._ok = True
            event._triggered = False
            event._processed = False
            event._defused = False
            return event
        return Event(self)

    def timeout(self, delay: int, value: Any = None, priority: int = PRIORITY_NORMAL) -> Timeout:
        """An event that fires ``delay`` nanoseconds from now."""
        pool = _TIMEOUT_FREE
        if pool and type(delay) is int and delay >= 0:
            timeout = pool.pop()
            timeout.env = self
            timeout.delay = delay
            timeout._value = value
            timeout._ok = True
            timeout._triggered = True
            timeout._processed = False
            timeout._defused = False
            seq = self._seq + 1
            self._seq = seq
            if delay:
                heappush(self._heap,
                         (self.now + delay, (priority << SEQ_BITS) + seq, timeout))
            elif priority == PRIORITY_NORMAL:
                self._imm.append(((PRIORITY_NORMAL << SEQ_BITS) + seq, timeout))
            else:
                heappush(self._heap, (self.now, (priority << SEQ_BITS) + seq, timeout))
            return timeout
        # Cold path: fresh allocation, with full argument validation.
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------------
    def schedule(self, event: Event, delay: int = 0, priority: int = PRIORITY_NORMAL) -> None:
        """Queue a triggered event to fire ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        if delay == 0 and priority == PRIORITY_NORMAL:
            self._imm.append(((PRIORITY_NORMAL << SEQ_BITS) + self._seq, event))
            return
        heappush(self._heap,
                 (self.now + delay, (priority << SEQ_BITS) + self._seq, event))

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if nothing is queued."""
        if self._imm:
            return self.now
        return self._heap[0][0] if self._heap else None

    def _fires_next(self) -> bool:
        """Would an event succeeded now, at normal priority, fire next?

        True only inside a lone-process dispatch (nothing else runs before
        the next pop), with the immediate queue empty and no heap entry at
        the current instant.  Such an event may be completed in place (see
        the module docstring); this is the single check every in-place
        site consults, so patching it to ``False`` restores plain
        scheduling everywhere.
        """
        if not self._inplace or self._imm:
            return False
        heap = self._heap
        return not heap or heap[0][0] != self.now

    def step(self) -> None:
        """Fire exactly one event (the earliest) — the reference path.

        The next event is the smaller of the heap head and the immediate
        queue head (immediate entries are all at the current time; a heap
        entry wins only if it is at the current time with a smaller key).
        This merge rule is shared verbatim with the drain loop, so both
        paths fire events in the same order; a lone-process dispatch allows
        in-place completion here exactly as it does there (so code run
        between two steps sees that process already past such events).
        """
        imm = self._imm
        if imm:
            heap = self._heap
            if heap and heap[0][0] == self.now and heap[0][1] < imm[0][0]:
                when, key, event = heappop(heap)
            else:
                when = self.now
                key, event = imm.popleft()
        elif self._heap:
            when, key, event = heappop(self._heap)
        else:
            raise SimulationError("step() on an empty event heap")
        if when < self.now:  # pragma: no cover - guarded by schedule()
            raise SimulationError("event heap corrupted: time went backwards")
        self.now = when
        if self.trace is not None:
            self.last_key = key
            self.trace(when, event)
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        self._inplace = len(callbacks) == 1 and callbacks[0].__class__ is Process
        try:
            for callback in callbacks:
                callback(event)
        finally:
            self._inplace = False
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run_steps(self, n: int) -> int:
        """Fire at most ``n`` events via :meth:`step`; return how many fired.

        A debugging helper: lets a test or a REPL session single-step through
        an interleaving (``env.run_steps(1)``) or drive a whole run on the
        reference path to compare against the drain loop.
        """
        if n < 0:
            raise ValueError(f"cannot run a negative number of steps ({n})")
        fired = 0
        while fired < n and (self._imm or self._heap):
            self.step()
            fired += 1
        return fired

    # -- the drain loop ---------------------------------------------------------
    def _drain(self, target: Optional[Event], until_time: int) -> None:
        """Fire events until the heap empties, ``target`` is processed, or
        the next event lies beyond ``until_time``.

        This is ``step()`` unrolled into ``run()``'s inner loop: no per-event
        function call, a single ``trace`` check per event (hoisted from the
        guards ``step()`` re-evaluates), and anonymous-event recycling.  Event
        order is identical to repeated ``step()`` calls by construction —
        both pop the same heap.

        ``target`` is detected by identity (events become processed only by
        being popped here); ``target=None`` runs to quiescence.  Its own
        dispatch disallows in-place completion: ``run()`` returns right
        after it, so the next pop is not guaranteed.  Immediate entries
        never pass ``until_time`` (they are at the current instant, which
        ``run()`` has already bounds-checked), so only heap pops test it.
        """
        heap = self._heap
        imm = self._imm
        getrefcount = sys.getrefcount
        now = self.now
        self._inplace = True
        while True:
            if imm:
                # Immediate entries are all at the current instant; a heap
                # entry fires first only if it is at this instant with a
                # smaller key (scheduled earlier, or at higher priority).
                if heap and heap[0][0] == now and heap[0][1] < imm[0][0]:
                    now, key, event = heappop(heap)
                else:
                    key, event = imm.popleft()
            elif heap:
                if heap[0][0] > until_time:
                    return
                now, key, event = heappop(heap)
                self.now = now
            else:
                return
            trace = self.trace
            if trace is not None:
                self.last_key = key
                trace(now, event)
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if event is target:
                self._inplace = False
            if len(callbacks) == 1 and callbacks[0].__class__ is Process:
                # Dominant case: exactly one waiting process.  Drive its
                # generator right here — a faithful inline of
                # Process._resume, minus the per-event call frame — and keep
                # driving it while it yields events that have already fired
                # (completed in place, or long ago).
                cb = callbacks[0]
                self._active_process = cb
                ok = event._ok
                value = event._value
                if not ok:
                    event._defused = True
                while True:
                    try:
                        if ok:
                            next_event = cb._send(value)
                        else:
                            next_event = cb._throw(value)
                    except StopIteration as exc:
                        self._active_processes -= 1
                        cb.succeed(exc.value)
                        break
                    except StopProcess as exc:
                        self._active_processes -= 1
                        cb._generator.close()
                        cb.succeed(exc.value)
                        break
                    except BaseException as exc:
                        self._active_processes -= 1
                        cb.fail(exc)
                        break
                    try:
                        waiters = next_event.callbacks
                    except AttributeError:
                        self._active_processes -= 1
                        cb.fail(SimulationError(
                            f"process {cb.name!r} yielded a "
                            f"non-event: {next_event!r}"))
                        break
                    if waiters is None:
                        ok = next_event._ok
                        value = next_event._value
                        if not ok:
                            next_event._defused = True
                            continue
                        # An anonymous event fired in place: recycle it
                        # like a popped one (see below).
                        pool = next_event._pool
                        if (pool is not None
                                and len(pool) < _POOL_CAP
                                and getrefcount(next_event) == 2):
                            next_event.env = None
                            next_event.callbacks = []
                            pool.append(next_event)
                        continue
                    if next_event.env is not self:
                        self._active_processes -= 1
                        cb.fail(SimulationError(
                            f"process {cb.name!r} yielded an event "
                            "from another environment"))
                    else:
                        waiters.append(cb)
                        cb._target = next_event
                    break
                self._active_process = None
            elif callbacks:
                # Anything but a lone process: other code may run after the
                # callback that asks for an event, so nothing fires in place.
                self._inplace = False
                for callback in callbacks:
                    callback(event)
                self._inplace = True
            if not event._ok and not event._defused:
                raise event._value
            if event is target:
                return
            # Recycle the event iff nothing outside this loop references it
            # (or its callbacks list): two refs = the local + getrefcount's
            # own argument.  See repro.simkernel.events for the invariants.
            pool = event._pool
            if (pool is not None
                    and len(pool) < _POOL_CAP
                    and getrefcount(event) == 2):
                # Only detach what must not leak; flag/value resets happen at
                # the pop sites (event()/timeout()/Store.put/Store.get), which
                # overwrite most fields anyway.
                event.env = None
                event.callbacks = []
                pool.append(event)

    def _run_drain(self, target: Optional[Event], until_time: int) -> None:
        """:meth:`_drain` with the cyclic collector paused.

        The hot loop churns heap-entry tuples fast enough to trigger a
        gen-0 collection every few hundred events, and the kernel's own
        objects are either pooled or freed by reference counting.  Cyclic
        garbage produced by the model (conditions, abandoned processes) is
        collected once the run returns.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._drain(target, until_time)
        finally:
            self._inplace = False
            if gc_was_enabled:
                gc.enable()

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run until the heap drains, time ``until`` passes, or event fires.

        * ``until=None`` — run to quiescence (no events left).
        * ``until=<int>`` — run until simulated time reaches that instant;
          ``now`` is set to exactly ``until`` even if the heap drains early.
        * ``until=<Event>`` — run until the event fires and return its value
          (raises ``SimulationError`` if the heap drains first).

        The cyclic garbage collector is paused for the duration of the
        drain and restored to its prior state after (see :meth:`_run_drain`).
        """
        if until is None:
            self._run_drain(None, _FOREVER)
            return None

        if isinstance(until, Event):
            target = until
            if not target._processed:
                self._run_drain(target, _FOREVER)
            if not target._processed:
                raise SimulationError(
                    "run(until=event): event heap drained before the event fired "
                    "(deadlock: some process is waiting on a condition that can "
                    "never become true)"
                )
            if not target._ok:
                target._defused = True
                raise target._value
            return target._value

        if isinstance(until, int):
            if until < self.now:
                raise ValueError(f"until ({until}) is in the past (now={self.now})")
            # Empty-heap (or already-idle-past-until) fast path: advance the
            # clock without touching any event machinery.
            if self._imm or (self._heap and self._heap[0][0] <= until):
                self._run_drain(None, until)
            self.now = until
            return None

        raise TypeError(f"until must be None, an int time, or an Event; got {until!r}")

    def run_window(self, end_ns: int) -> None:
        """Process every event strictly before ``end_ns`` (exclusive).

        The partitioned-simulation primitive: a conservative-lookahead
        worker advances through window ``[start, end_ns)`` with this call,
        then exchanges boundary packets whose arrival times all lie at or
        beyond ``end_ns``.  Implemented as ``run(until=end_ns - 1)``:
        integer timestamps make "every event at time <= end_ns - 1" the
        same set as "every event at time < end_ns", and the clock is left
        at ``end_ns - 1`` so arrivals injected exactly at ``end_ns`` are
        still in the future.
        """
        if end_ns <= self.now:
            raise ValueError(
                f"window end {end_ns} is not ahead of now={self.now}")
        self.run(until=end_ns - 1)

    def __repr__(self) -> str:
        pending = len(self._heap) + len(self._imm)
        return f"<Environment now={self.now} pending={pending}>"
