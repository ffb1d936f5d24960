"""Differential battery: the heap event calendar vs a reference calendar.

The module grew up comparing an indexed event wheel with the heap; the
wheel is gone, and the same contract corners now pin
:class:`repro.sim.engine.EventEngine` against :class:`ReferenceCalendar`,
a deliberately naive calendar defined below.  The reference keeps an
unordered list, finds the next event by a linear scan over
``(time, seq)``, and checks the event limit and the heartbeat on every
event instead of through the engine's watermark, so the two share no
algorithm — only the contract:

* targeted unit tests for every contract corner (FIFO ties across
  schedule times, widely spaced times, exception recovery mid-tie,
  ``run_until`` at the deadline boundary, heartbeats, event limits),
  each asserting the exact values as well as agreement;

* a derandomized Hypothesis battery that drives random
  schedule/``run_until``/heartbeat programs — including callbacks that
  schedule further events at moving values of ``now`` — through both
  calendars side by side and asserts identical fire order, ``now``,
  ``pending``, ``events_processed``, ``peek_time``, ``next_time`` and
  identical ``SimulationError`` strings.

``next_time`` is part of every snapshot because the processor's inline
batching path reads it directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    DEFAULT_EVENT_LIMIT,
    TIME_INFINITY,
    DeadlockError,
    EventEngine,
    SimulationError,
)

#: A time span used to spread events far apart; any value well above
#: the dense same-time traffic near zero would do.
SPAN = 128


class ReferenceCalendar:
    """The engine's documented contract, implemented as plainly as
    possible: linear-scan pops and per-event limit/heartbeat checks."""

    def __init__(self, event_limit=DEFAULT_EVENT_LIMIT):
        self.entries = []
        self.seq = 0
        self.now = 0
        self.events_processed = 0
        self.limit = event_limit
        self.heartbeat = None
        self.heartbeat_every = 0
        self.next_heartbeat = None

    @property
    def next_time(self):
        return min((e[0] for e in self.entries), default=TIME_INFINITY)

    @property
    def pending(self):
        return len(self.entries)

    def peek_time(self):
        return self.next_time

    def schedule(self, time, callback):
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        self.entries.append((time, self.seq, callback))
        self.seq += 1

    def schedule_after(self, delay, callback):
        self.schedule(self.now + delay, callback)

    def set_heartbeat(self, callback, every=250_000):
        if callback is not None and every <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.heartbeat = callback
        if callback is not None:
            self.heartbeat_every = every
            self.next_heartbeat = self.events_processed + every

    def _fire_next(self):
        entry = min(self.entries, key=lambda e: (e[0], e[1]))
        self.entries.remove(entry)
        time, _seq, callback = entry
        self.now = time
        self.events_processed += 1
        if self.events_processed > self.limit:
            raise SimulationError(
                f"event limit {self.limit} exceeded at t={time} with "
                f"{len(self.entries)} events pending; likely a livelock in "
                "the simulated program"
            )
        if self.heartbeat is not None and self.events_processed == self.next_heartbeat:
            self.next_heartbeat += self.heartbeat_every
            self.heartbeat(self)
        callback()

    def run(self):
        while self.entries:
            self._fire_next()
        return self.now

    def run_until(self, deadline):
        while self.entries and self.next_time <= deadline:
            self._fire_next()
        if self.now < deadline:
            self.now = deadline
        return self.now


def both_engines(event_limit=DEFAULT_EVENT_LIMIT):
    return (
        EventEngine(event_limit=event_limit),
        ReferenceCalendar(event_limit=event_limit),
    )


def snapshot(engine):
    return (
        engine.now,
        engine.pending,
        engine.events_processed,
        engine.peek_time(),
        engine.next_time,
    )


class TestFactory:
    def test_time_infinity_is_an_integer(self):
        # The empty-calendar sentinel must be an int: peek_time feeds
        # straight into pclock comparisons in the processor's inline
        # batching path, and a float('inf') would silently promote
        # integer time arithmetic to floats.
        assert type(TIME_INFINITY) is int
        for engine in both_engines():
            assert engine.peek_time() == TIME_INFINITY
            assert type(engine.peek_time()) is int


class TestBasicParity:
    def test_empty_run(self):
        for engine in both_engines():
            assert engine.run() == 0
            assert snapshot(engine) == (0, 0, 0, TIME_INFINITY, TIME_INFINITY)

    def test_fifo_ties_within_one_time(self):
        logs = []
        for engine in both_engines():
            log = []
            for tag in range(5):
                engine.schedule(7, lambda tag=tag: log.append(tag))
            engine.run()
            logs.append((log, snapshot(engine)))
        assert logs[0] == logs[1]
        assert logs[0][0] == [0, 1, 2, 3, 4]

    def test_far_before_bucket_on_equal_time(self):
        """An event scheduled early for time T fires before one that a
        later callback schedules for the same T: FIFO ties are global,
        not per scheduling epoch."""
        target = SPAN + 70
        logs = []
        for engine in both_engines():
            log = []
            engine.schedule(target, lambda: log.append("far"))
            # A stepping stone whose callback schedules a *near* event
            # for the same absolute time.
            engine.schedule(
                target - 10,
                lambda engine=engine, log=log: engine.schedule(
                    target, lambda: log.append("near")
                ),
            )
            engine.run()
            logs.append((log, snapshot(engine)))
        assert logs[0] == logs[1]
        assert logs[0][0] == ["far", "near"]

    def test_wraparound_keeps_time_order(self):
        """A chain of events at widely spaced times, each scheduled by
        its predecessor, fires in absolute time order."""
        times = [0, 3, SPAN - 1, SPAN + 3, 3 * SPAN + 1]
        logs = []
        for engine in both_engines():
            log = []

            def chain(t, engine=engine, log=log):
                log.append(t)
                pending = [u for u in times if u > t]
                if pending:
                    engine.schedule(
                        pending[0], lambda chain=chain: chain(pending[0])
                    )

            engine.schedule(times[0], lambda chain=chain: chain(times[0]))
            engine.run()
            logs.append((log, snapshot(engine)))
        assert logs[0] == logs[1]
        assert logs[0][0] == times

    def test_schedule_in_past_identical_error(self):
        messages = []
        for engine in both_engines():
            engine.schedule(10, lambda: None)
            engine.run()
            with pytest.raises(SimulationError) as excinfo:
                engine.schedule(9, lambda: None)
            messages.append(str(excinfo.value))
            assert snapshot(engine) == (10, 0, 1, TIME_INFINITY, TIME_INFINITY)
        assert messages[0] == messages[1]
        assert messages[0] == "cannot schedule event at t=9 before now=10"

    def test_schedule_after(self):
        logs = []
        for engine in both_engines():
            log = []
            engine.schedule(
                5,
                lambda engine=engine, log=log: engine.schedule_after(
                    3, lambda: log.append(engine.now)
                ),
            )
            engine.run()
            logs.append((log, snapshot(engine)))
        assert logs[0] == logs[1]
        assert logs[0][0] == [8]


class TestRunUntil:
    def test_deadline_is_inclusive(self):
        logs = []
        for engine in both_engines():
            log = []
            for t in (3, 5, 5, 7):
                engine.schedule(t, lambda t=t, log=log: log.append(t))
            returned = engine.run_until(5)
            logs.append((log[:], returned, snapshot(engine)))
            engine.run()
            logs.append((log, snapshot(engine)))
        assert logs[0] == logs[2]
        assert logs[1] == logs[3]
        assert logs[0] == ([3, 5, 5], 5, (5, 1, 3, 7, 7))
        assert logs[1][0] == [3, 5, 5, 7]

    def test_now_advances_to_deadline_when_idle(self):
        for engine in both_engines():
            assert engine.run_until(42) == 42
            assert engine.now == 42
            # The clock never runs backwards on a stale deadline.
            assert engine.run_until(17) == 42
            assert snapshot(engine) == (42, 0, 0, TIME_INFINITY, TIME_INFINITY)

    def test_resume_after_deadline(self):
        logs = []
        for engine in both_engines():
            log = []
            engine.schedule(SPAN + 9, lambda log=log: log.append("late"))
            engine.run_until(SPAN)
            state_mid = snapshot(engine)
            engine.run_until(2 * SPAN)
            logs.append((log, state_mid, snapshot(engine)))
        assert logs[0] == logs[1]
        assert logs[0] == (
            ["late"],
            (SPAN, 1, 0, SPAN + 9, SPAN + 9),
            (2 * SPAN, 0, 1, TIME_INFINITY, TIME_INFINITY),
        )


class TestHeartbeat:
    def test_fires_every_n_events(self):
        logs = []
        for engine in both_engines():
            beats = []
            engine.set_heartbeat(
                lambda e, beats=beats: beats.append((e.now, e.events_processed)),
                every=2,
            )
            for t in range(5):
                engine.schedule(t, lambda: None)
            engine.run()
            logs.append((beats, snapshot(engine)))
        assert logs[0] == logs[1]
        assert logs[0][0] == [(1, 2), (3, 4)]

    def test_detach(self):
        for engine in both_engines():
            beats = []
            engine.set_heartbeat(lambda e: beats.append(e.now), every=1)
            engine.schedule(1, lambda: None)
            engine.run()
            engine.set_heartbeat(None)
            engine.schedule(2, lambda: None)
            engine.run()
            assert beats == [1]

    def test_nonpositive_interval_rejected(self):
        for engine in both_engines():
            with pytest.raises(ValueError):
                engine.set_heartbeat(lambda e: None, every=0)
            # Detaching with a nonpositive interval is fine.
            engine.set_heartbeat(None, every=0)

    def test_heartbeat_abort_propagates(self):
        """A raising heartbeat aborts the run: the event it fired on is
        consumed but its callback never runs."""

        class Abort(SimulationError):
            pass

        outcomes = []
        for engine in both_engines():
            fired = []

            def beat(e):
                raise Abort(f"aborted at {e.events_processed}")

            engine.set_heartbeat(beat, every=3)
            for t in range(6):
                engine.schedule(t, lambda t=t, fired=fired: fired.append(t))
            with pytest.raises(Abort) as excinfo:
                engine.run()
            outcomes.append((str(excinfo.value), fired, snapshot(engine)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == ("aborted at 3", [0, 1], (2, 3, 3, 3, 3))


class TestEventLimit:
    def test_limit_error_identical(self):
        outcomes = []
        for engine in both_engines(event_limit=10):

            def respawn(engine=engine):
                engine.schedule_after(1, lambda: respawn(engine))

            engine.schedule(0, respawn)
            # Background events so the pending count in the message is
            # exercised, not just zero.
            engine.schedule(1000, lambda: None)
            engine.schedule(SPAN * 3, lambda: None)
            with pytest.raises(SimulationError) as excinfo:
                engine.run()
            outcomes.append((str(excinfo.value), snapshot(engine)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (
            "event limit 10 exceeded at t=10 with 2 events pending; likely a "
            "livelock in the simulated program",
            (10, 2, 11, SPAN * 3, SPAN * 3),
        )


class TestExceptionConsistency:
    """A callback exception must leave the calendar consistent enough to
    resume: survivors stay pending and fire in the original order."""

    @pytest.mark.parametrize("exc_type", [DeadlockError, SimulationError])
    def test_multi_entry_bucket_restores_survivors(self, exc_type):
        outcomes = []
        for engine in both_engines():
            log = []

            def boom():
                raise exc_type("stalled mid-tie")

            engine.schedule(4, lambda log=log: log.append("a"))
            engine.schedule(4, boom)
            engine.schedule(4, lambda log=log: log.append("c"))
            engine.schedule(9, lambda log=log: log.append("d"))
            with pytest.raises(exc_type) as excinfo:
                engine.run()
            mid = (str(excinfo.value), log[:], snapshot(engine))
            engine.run()
            outcomes.append((mid, log, snapshot(engine)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == ("stalled mid-tie", ["a"], (4, 2, 2, 4, 4))
        assert outcomes[0][1] == ["a", "c", "d"]
        assert outcomes[0][2] == (9, 0, 4, TIME_INFINITY, TIME_INFINITY)

    def test_singleton_exception_consumes_event(self):
        outcomes = []
        for engine in both_engines():

            def boom():
                raise DeadlockError("lone event")

            engine.schedule(5, boom)
            engine.schedule(11, lambda: None)
            with pytest.raises(DeadlockError):
                engine.run()
            mid = snapshot(engine)
            engine.run()
            outcomes.append((mid, snapshot(engine)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (
            (5, 1, 1, 11, 11),
            (11, 0, 2, TIME_INFINITY, TIME_INFINITY),
        )


# -- the randomized differential battery --------------------------------------

#: Deltas biased toward dense same-time traffic near zero, plus medium
#: and long jumps so run_until deadlines fall between events.
_DELTAS = st.one_of(
    st.integers(0, 6),
    st.integers(SPAN - 4, SPAN + 4),
    st.integers(2 * SPAN, 2 * SPAN + 300),
)

#: A spawn tree: what a fired callback schedules next, two levels deep,
#: so schedules are issued from inside run() at moving values of now.
_SPAWNS = st.lists(
    st.tuples(_DELTAS, st.lists(st.tuples(_DELTAS, st.just(())), max_size=2)),
    max_size=3,
)

_OPS = st.one_of(
    st.tuples(st.just("sched"), _DELTAS, _SPAWNS),
    st.tuples(st.just("run")),
    st.tuples(st.just("run_until"), st.integers(0, 2 * SPAN + 300)),
    st.tuples(st.just("heartbeat"), st.integers(1, 4)),
    st.tuples(st.just("heartbeat_off")),
)

_PROGRAMS = st.lists(_OPS, min_size=1, max_size=24)


def drive(engine, program):
    """Interpret one generated program against ``engine``; return the
    fire log and the per-op state snapshots."""
    log = []

    def make_callback(path, spawns):
        def callback():
            log.append((path, engine.now, engine.events_processed, engine.next_time))
            for branch, (delta, nested) in enumerate(spawns):
                engine.schedule(
                    engine.now + delta,
                    make_callback(path + (branch,), nested),
                )

        return callback

    def heartbeat(e):
        log.append(("hb", e.now, e.events_processed))

    snapshots = []
    for step, op in enumerate(program):
        kind = op[0]
        if kind == "sched":
            engine.schedule(engine.now + op[1], make_callback((step,), op[2]))
        elif kind == "run":
            engine.run()
        elif kind == "run_until":
            engine.run_until(op[1])
        elif kind == "heartbeat":
            engine.set_heartbeat(heartbeat, every=op[1])
        else:
            engine.set_heartbeat(None)
        snapshots.append(snapshot(engine))
    engine.run()
    snapshots.append(snapshot(engine))
    return log, snapshots


@settings(max_examples=200, derandomize=True, deadline=None)
@given(program=_PROGRAMS)
def test_differential_battery(program):
    """Random schedule/run_until/heartbeat programs produce bit-identical
    observable behaviour on the engine and the reference."""
    engine_log, engine_snapshots = drive(EventEngine(), program)
    reference_log, reference_snapshots = drive(ReferenceCalendar(), program)
    assert engine_log == reference_log
    assert engine_snapshots == reference_snapshots


@settings(max_examples=60, derandomize=True, deadline=None)
@given(program=_PROGRAMS, limit=st.integers(1, 12))
def test_differential_battery_under_event_limit(program, limit):
    """With a tiny event budget both calendars raise the same
    SimulationError (or both finish) and agree on the final state."""
    outcomes = []
    for engine in both_engines(event_limit=limit):
        try:
            log, snapshots = drive(engine, program)
            outcomes.append(("ok", log, snapshots))
        except SimulationError as exc:
            outcomes.append(("err", str(exc), snapshot(engine)))
    assert outcomes[0] == outcomes[1]
