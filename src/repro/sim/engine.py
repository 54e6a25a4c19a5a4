"""Hybrid cycle/event simulation engine.

The engine advances a global clock in GPU cycles.  Components come in two
flavours:

* **Tickables** (the SMs) are called once per cycle while *active*.  An SM
  deactivates itself when every warp is blocked on something that can only
  change through a scheduled event (a memory response, a barrier release,
  ...); the event handler re-activates it.  This lets long memory waits be
  simulated in O(events) rather than O(cycles) while preserving per-cycle
  stall attribution (the stall cause is constant while the SM sleeps, so the
  sleeping SM attributes the gap in bulk).
* **Events** are callbacks due at a cycle; ties break in schedule order so
  runs are deterministic.

When no tickable is active the clock jumps straight to the next event.

Pending events live in a *calendar queue*:

* a ``dict`` mapping each pending cycle to its **bucket** -- a deque of
  callbacks in schedule order;
* a min-heap over the *distinct* bucket times (one entry per bucket, so
  its size is the number of pending cycles, not of pending events);
* a freelist of retired bucket deques, so steady-state scheduling
  allocates no containers at all.

Its contract:

* ties break in schedule order (bucket append order), so within a cycle
  events fire exactly as a ``(time, seq)`` heap would fire them;
* the **same-cycle lane**: an event scheduled *at the drain's own cycle*
  from inside an event callback is appended to the live bucket and run by
  the same drain (the popleft loop chases the growing deque);
* pop-before-execute: an event leaves the queue before its callback runs,
  so ``pending_events()`` observed from inside a callback counts exactly
  the not-yet-executed events (this is what lets a telemetry sampler
  decide "no sim work remains" and stop re-arming);
* events scheduled at a cycle the clock already passed mid-tick (legal via
  ``schedule_at(now)`` from a tick) are drained by the next iteration,
  ascending time first;
* ``schedule(delay<0)`` / ``schedule_at(past)`` raise ``ValueError``;
* ``peek_next_event`` is O(1): the time heap's root always owns a live,
  non-empty bucket (both are retired together).

``schedule_call(delay, fn, arg)`` stores the bare ``(fn, arg)`` pair in
the bucket and the drain unpacks it, so per-message paths (the mesh, the
L2 bank pipeline) schedule without building a closure.

The run loop is the hottest code in the simulator, so it avoids per-cycle
allocation and sorting: the active set's deterministic tick order is
maintained *incrementally* -- re-sorted only when an activation changes
membership, never once per cycle -- and all events due in a cycle are
drained in one batch before the tickables run.  The engine is itself a
:class:`~repro.core.component.Component` exposing an ``engine`` stats group
(cycles ticked, events processed, wake-ups) through zero-overhead derived
stats, so instrumentation costs the hot loop nothing.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Protocol

from repro.core.component import Component

_heappush = heapq.heappush
_heappop = heapq.heappop


class Tickable(Protocol):
    """Anything the engine can tick once per active cycle."""

    def tick(self) -> None:  # pragma: no cover - protocol stub
        ...


class Engine(Component):
    """Discrete event + cycle hybrid simulation kernel."""

    def __init__(self) -> None:
        Component.__init__(self, "engine")
        self.engine = self  # a component tree rooted here schedules on self
        self.now: int = 0
        #: cycle -> bucket (callbacks and ``(fn, arg)`` pairs, in schedule
        #: order).  A time is in ``_times`` iff its bucket exists here, and
        #: live buckets are never empty outside the drain of that bucket.
        self._buckets: dict[int, deque] = {}
        #: min-heap of the distinct pending cycles (one entry per bucket).
        self._times: list[int] = []
        #: retired bucket deques, recycled by later schedules.
        self._free_buckets: list[deque] = []
        self._active: dict[int, Tickable] = {}
        #: cached ascending tid order of ``_active``; rebuilt lazily (only
        #: after membership changes) instead of sorted once per cycle.
        self._order: list[int] = []
        self._order_dirty: bool = False
        self._tickables: dict[int, Tickable] = {}
        self._next_tid: int = 0
        self._stopped: bool = False
        #: True while the run loop is draining a cycle's event batch; lets
        #: observers (the trace recorder) tell event-phase callbacks apart
        #: from tick-phase calls without any per-cycle bookkeeping.
        self._in_event_phase: bool = False
        # hot-loop statistics: plain ints (bumped millions of times), shown
        # in the stats tree as derived views so the loop pays nothing.
        self.events_processed: int = 0
        self.cycles_ticked: int = 0
        self.wakeups: int = 0
        # Observer events (telemetry sampling) ride the normal queue but must
        # not perturb the ``events`` stat: the byte-identity gate compares
        # stats with telemetry on vs off.
        self.observer_events: int = 0
        self._observers_pending: int = 0
        self.stat_derived("events", lambda: self.events_processed - self.observer_events)
        self.stat_derived("cycles", lambda: self.cycles_ticked)
        self.stat_derived("wakeups", lambda: self.wakeups)

    def on_reset_stats(self) -> None:
        self.events_processed = 0
        self.cycles_ticked = 0
        self.wakeups = 0
        self.observer_events = 0

    # ------------------------------------------------------------------
    def register(self, tickable: Tickable) -> int:
        """Assign a stable id to a tickable and store it; starts inactive."""
        tid = self._next_tid
        self._next_tid += 1
        self._tickables[tid] = tickable
        return tid

    def activate(self, tid: int) -> None:
        """Start ticking the registered tickable ``tid`` every cycle."""
        active = self._active
        if tid not in active:
            active[tid] = self._tickables[tid]
            self._order_dirty = True
            self.wakeups += 1

    def deactivate(self, tid: int) -> None:
        if self._active.pop(tid, None) is not None:
            # Mark for rebuild so the next tick phase starts from an exact
            # snapshot (a stale entry must not tick on a mid-cycle re-wake).
            self._order_dirty = True

    def is_active(self, tid: int) -> bool:
        return tid in self._active

    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (``delay >= 0``)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%d)" % delay)
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._new_bucket(time)
        bucket.append(callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError("cannot schedule into the past (t=%d < now=%d)" % (time, self.now))
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._new_bucket(time)
        bucket.append(callback)

    def schedule_call(self, delay: int, fn: Callable, arg) -> None:
        """Run ``fn(arg)`` ``delay`` cycles from now: the pair is stored
        as-is and unpacked by the drain, no closure."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%d)" % delay)
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._new_bucket(time)
        bucket.append((fn, arg))

    def _new_bucket(self, time: int) -> deque:
        free = self._free_buckets
        bucket = free.pop() if free else deque()
        self._buckets[time] = bucket
        _heappush(self._times, time)
        return bucket

    def schedule_observer(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule a pure-observer event ``delay`` cycles from now.

        Observer events (stat samplers, heartbeats) run exactly like normal
        events -- same queue, same drain, same determinism -- but are
        excluded from the ``engine.events`` stat, so a run with telemetry
        attached reports byte-identical statistics to one without.  The hot
        loop is untouched: when no observer is scheduled, nothing here runs.
        """

        def fire() -> None:
            self._observers_pending -= 1
            callback()
            self.observer_events += 1

        self._observers_pending += 1
        self.schedule(delay, fire)

    def pending_events(self) -> int:
        """Number of events currently in the queue (observers included)."""
        return sum(map(len, self._buckets.values()))

    def pending_sim_events(self) -> int:
        """Pending events excluding not-yet-fired observer events.

        Zero (with no active tickables) means the simulation itself is out
        of work: observers use this to stop rescheduling themselves so a
        dead run still terminates the same way it would without telemetry.
        """
        return self.pending_events() - self._observers_pending

    def stop(self) -> None:
        """Request the run loop to end after the current cycle."""
        self._stopped = True

    # ------------------------------------------------------------------
    def peek_next_event(self) -> int | None:
        return self._times[0] if self._times else None

    @property
    def in_event_phase(self) -> bool:
        """Is an event-batch drain currently executing (vs. a tick)?"""
        return self._in_event_phase

    def run(self, max_cycles: int = 10_000_000) -> int:
        """Run until :meth:`stop` is called, work runs out, or the cycle cap.

        Within one cycle, events run *before* tickables so that a wake-up
        event delivered at cycle ``W`` reactivates its SM in time for the SM
        to classify cycle ``W`` itself.  Returns the final cycle count.
        Raises ``RuntimeError`` on hitting ``max_cycles`` so silent
        livelocks do not masquerade as results.
        """
        self._stopped = False
        deadline = self.now + max_cycles
        times = self._times
        buckets = self._buckets
        free = self._free_buckets
        active = self._active
        cycles = 0
        try:
            while not self._stopped:
                now = self.now
                if times and times[0] <= now:
                    # Batch-drain every due bucket before ticking, ascending
                    # time, each in schedule order.  The event count is
                    # flushed once per batch (not per event, not at run end)
                    # so in-flight observers see a live ``engine.events``.
                    events = 0
                    self._in_event_phase = True
                    try:
                        while times and times[0] <= now:
                            t = times[0]
                            bucket = buckets[t]
                            pop = bucket.popleft
                            while bucket:
                                item = pop()
                                events += 1
                                if item.__class__ is tuple:
                                    item[0](item[1])
                                else:
                                    item()
                            _heappop(times)
                            del buckets[t]
                            free.append(bucket)
                    finally:
                        self._in_event_phase = False
                        self.events_processed += events
                    if self._stopped:
                        break
                if active:
                    # Tick in deterministic (ascending-tid) order.  ``_order``
                    # is a snapshot: peers (de)activated mid-cycle are honoured
                    # via the membership check and tick from the next cycle.
                    order = self._order
                    if self._order_dirty:
                        order = self._order = sorted(active)
                        self._order_dirty = False
                    get = active.get
                    for tid in order:
                        tickable = get(tid)
                        if tickable is not None:
                            tickable.tick()
                    self.now = now + 1
                    cycles += 1
                else:
                    if not times:
                        break
                    nxt = times[0]
                    if nxt > now:
                        self.now = nxt
                if self.now > deadline:
                    raise RuntimeError(
                        "simulation exceeded %d cycles; likely livelock" % max_cycles
                    )
        finally:
            self.cycles_ticked += cycles
        return self.now
