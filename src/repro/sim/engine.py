"""Discrete event simulation engine.

The engine is a classic calendar built on a binary heap.  Time is measured
in integer processor clocks (pclocks; the paper uses 1 pclock = 30 ns).
Events scheduled for the same time fire in FIFO order, which makes runs
deterministic.

The engine also exposes :meth:`EventEngine.peek_time`, which lets a
processor model decide whether it may keep executing *inline* (no event
round-trip) because no other event in the system can fire before the
processor's own local time.  This is the key fast path: streams of cache
hits cost zero heap operations.

This heap implementation is the *reference* backend, the default, and
the faster of the two on measured runs (medium-scale ``Machine.run``:
LU 0.32 s vs 0.43 s on the wheel, MP3D 0.30 vs 0.35, PTHOR 0.32 vs
0.37).  A drop-in indexed event wheel
(:class:`repro.sim.wheel.WheelEventEngine`) provides the same API and
bit-identical behaviour; select between them with :func:`create_engine`
(driven by ``MachineConfig.engine_backend``).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Sentinel returned by :meth:`EventEngine.peek_time` when the calendar is
#: empty — any local time compares as "not behind" this.  An integer (not
#: ``float("inf")``) so pclock comparisons never mix in floats; 2**63 is
#: far beyond any reachable simulated time (the event limit bounds runs
#: to ~2e9 events).
TIME_INFINITY = 2**63

#: Default event budget before a run is declared a livelock.
DEFAULT_EVENT_LIMIT = 2_000_000_000

#: Recognised event-calendar implementations (see :func:`create_engine`).
ENGINE_BACKENDS = ("heap", "wheel")


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class DeadlockError(SimulationError):
    """Raised when the calendar drains while work is still pending."""


class EventEngine:
    """A deterministic discrete-event calendar.

    Events are ``(time, callback)`` pairs.  ``run`` pops events in time
    order and invokes the callbacks; callbacks typically advance a
    processor, retire a memory transaction, or release a synchronization
    primitive, and may schedule further events.

    The public ``next_time`` attribute always equals the time of the
    earliest pending event (``TIME_INFINITY`` when the calendar is
    empty) whenever user code runs — i.e. outside the engine's own
    internal bookkeeping.  Hot paths may read it directly instead of
    calling :meth:`peek_time`.
    """

    __slots__ = (
        "_queue",
        "_seq",
        "_now",
        "next_time",
        "_events_processed",
        "_limit",
        "_heartbeat",
        "_heartbeat_every",
        "_next_heartbeat",
    )

    def __init__(self, event_limit: int = DEFAULT_EVENT_LIMIT) -> None:
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0
        self.next_time = TIME_INFINITY
        self._events_processed = 0
        self._limit = event_limit
        self._heartbeat: Optional[Callable[["EventEngine"], None]] = None
        self._heartbeat_every = 0
        self._next_heartbeat = TIME_INFINITY

    @property
    def now(self) -> int:
        """Time of the most recently fired event."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (diagnostic)."""
        return self._events_processed

    def schedule(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at ``time``.

        ``time`` must not be in the past relative to the engine clock;
        same-time scheduling is allowed and fires in FIFO order.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        heapq.heappush(self._queue, (time, self._seq, callback))
        self._seq += 1
        if time < self.next_time:
            self.next_time = time

    def schedule_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` pclocks from now."""
        self.schedule(self._now + delay, callback)

    def peek_time(self) -> int:
        """Time of the earliest pending event, or ``TIME_INFINITY``.

        A component whose local clock is <= this value may safely act
        inline without an event round-trip: no other event can interleave
        before its local time.
        """
        return self.next_time

    @property
    def pending(self) -> int:
        """Number of events waiting in the calendar."""
        return len(self._queue)

    def set_heartbeat(
        self, callback: Optional[Callable[["EventEngine"], None]], every: int = 250_000
    ) -> None:
        """Invoke ``callback(engine)`` every ``every`` fired events.

        Used by watchdogs to check wall-clock progress from inside long
        runs; pass ``None`` to detach.  The callback may raise to abort
        the run (e.g. :class:`~repro.faults.watchdog.WatchdogTimeout`).
        """
        if callback is not None and every <= 0:
            raise ValueError("heartbeat interval must be positive")
        self._heartbeat = callback
        if callback is None:
            self._next_heartbeat = TIME_INFINITY
        else:
            self._heartbeat_every = every
            self._next_heartbeat = self._events_processed + every

    def _fire_heartbeat(self) -> None:
        self._next_heartbeat = self._events_processed + self._heartbeat_every
        self._heartbeat(self)  # type: ignore[misc]

    def _limit_error(self, time: int) -> SimulationError:
        return SimulationError(
            f"event limit {self._limit} exceeded at t={time} with "
            f"{len(self._queue)} events pending; likely a livelock in "
            "the simulated program"
        )

    def run(self) -> int:
        """Fire events until the calendar drains; return the final time."""
        queue = self._queue
        while queue:
            time, _seq, callback = heapq.heappop(queue)
            self._now = time
            if queue:
                self.next_time = queue[0][0]
            else:
                self.next_time = TIME_INFINITY
            self._events_processed += 1
            if self._events_processed > self._limit:
                raise self._limit_error(time)
            if self._events_processed >= self._next_heartbeat:
                self._fire_heartbeat()
            callback()
        return self._now

    def run_until(self, deadline: int) -> int:
        """Fire events with time <= ``deadline``; return the final time."""
        queue = self._queue
        while queue and queue[0][0] <= deadline:
            time, _seq, callback = heapq.heappop(queue)
            self._now = time
            if queue:
                self.next_time = queue[0][0]
            else:
                self.next_time = TIME_INFINITY
            self._events_processed += 1
            if self._events_processed > self._limit:
                raise self._limit_error(time)
            if self._events_processed >= self._next_heartbeat:
                self._fire_heartbeat()
            callback()
        if self._now < deadline:
            self._now = deadline
        return self._now


def create_engine(backend: str, event_limit: int = DEFAULT_EVENT_LIMIT):
    """Build the event calendar named by ``backend``.

    ``"heap"`` is the reference :class:`EventEngine`; ``"wheel"`` is the
    indexed event wheel, proven bit-identical by the differential battery
    in ``tests/test_engine_wheel.py``.
    """
    if backend == "heap":
        return EventEngine(event_limit=event_limit)
    if backend == "wheel":
        # Imported lazily: wheel.py imports the error types from here.
        from repro.sim.wheel import WheelEventEngine

        return WheelEventEngine(event_limit=event_limit)
    raise ValueError(
        f"unknown engine backend {backend!r}; expected one of {ENGINE_BACKENDS}"
    )
