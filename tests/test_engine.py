"""Unit tests for the discrete-event engine."""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.sim import EventEngine, SimulationError, TIME_INFINITY


def test_events_fire_in_time_order():
    engine = EventEngine()
    fired = []
    engine.schedule(30, lambda: fired.append(30))
    engine.schedule(10, lambda: fired.append(10))
    engine.schedule(20, lambda: fired.append(20))
    engine.run()
    assert fired == [10, 20, 30]


def test_same_time_events_fire_fifo():
    engine = EventEngine()
    fired = []
    for tag in range(5):
        engine.schedule(7, lambda tag=tag: fired.append(tag))
    engine.run()
    assert fired == [0, 1, 2, 3, 4]


def test_now_tracks_last_fired_event():
    engine = EventEngine()
    seen = []
    engine.schedule(5, lambda: seen.append(engine.now))
    engine.schedule(9, lambda: seen.append(engine.now))
    end = engine.run()
    assert seen == [5, 9]
    assert end == 9


def test_callbacks_may_schedule_more_events():
    engine = EventEngine()
    fired = []

    def first():
        fired.append("first")
        engine.schedule(engine.now + 5, lambda: fired.append("second"))

    engine.schedule(1, first)
    engine.run()
    assert fired == ["first", "second"]


def test_scheduling_in_the_past_raises():
    engine = EventEngine()
    engine.schedule(10, lambda: engine.schedule(5, lambda: None))
    with pytest.raises(SimulationError):
        engine.run()


def test_schedule_after_uses_current_time():
    engine = EventEngine()
    fired = []
    engine.schedule(10, lambda: engine.schedule_after(7, lambda: fired.append(engine.now)))
    engine.run()
    assert fired == [17]


def test_peek_time_empty_is_infinity():
    engine = EventEngine()
    assert engine.peek_time() == TIME_INFINITY


def test_peek_time_returns_earliest():
    engine = EventEngine()
    engine.schedule(42, lambda: None)
    engine.schedule(17, lambda: None)
    assert engine.peek_time() == 17


def test_pending_counts_queue():
    engine = EventEngine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    assert engine.pending == 2
    engine.run()
    assert engine.pending == 0


def test_run_until_stops_at_deadline():
    engine = EventEngine()
    fired = []
    engine.schedule(5, lambda: fired.append(5))
    engine.schedule(15, lambda: fired.append(15))
    engine.run_until(10)
    assert fired == [5]
    assert engine.now == 10
    engine.run()
    assert fired == [5, 15]


def test_event_limit_guards_livelock():
    engine = EventEngine(event_limit=10)

    def rearm():
        engine.schedule(engine.now + 1, rearm)

    engine.schedule(0, rearm)
    with pytest.raises(SimulationError):
        engine.run()


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_property_pop_order_is_sorted_and_stable(times):
    engine = EventEngine()
    fired = []
    for index, time in enumerate(times):
        engine.schedule(time, lambda t=time, i=index: fired.append((t, i)))
    engine.run()
    assert [t for t, _ in fired] == sorted(times)
    # FIFO among equal times: insertion indices increase within a time.
    for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2


def _rearming(event_limit):
    engine = EventEngine(event_limit=event_limit)

    def rearm():
        engine.schedule(engine.now + 1, rearm)

    engine.schedule(0, rearm)
    return engine


def test_event_limit_message_names_livelock_and_pending():
    engine = _rearming(event_limit=10)
    with pytest.raises(SimulationError, match="likely a livelock") as excinfo:
        engine.run()
    assert "events pending" in str(excinfo.value)


def test_run_until_event_limit_message_matches_run():
    engine = _rearming(event_limit=10)
    with pytest.raises(SimulationError, match="likely a livelock") as excinfo:
        engine.run_until(1_000)
    assert "events pending" in str(excinfo.value)


def test_heartbeat_fires_every_n_events():
    engine = EventEngine()
    for t in range(25):
        engine.schedule(t, lambda: None)
    beats = []
    engine.set_heartbeat(lambda e: beats.append(e.events_processed), every=10)
    engine.run()
    assert beats == [10, 20]


def test_heartbeat_detaches_with_none():
    engine = EventEngine()
    for t in range(20):
        engine.schedule(t, lambda: None)
    beats = []
    engine.set_heartbeat(lambda e: beats.append(e.events_processed), every=5)
    engine.set_heartbeat(None)
    engine.run()
    assert beats == []


def test_heartbeat_rejects_nonpositive_interval():
    engine = EventEngine()
    with pytest.raises(ValueError):
        engine.set_heartbeat(lambda e: None, every=0)


# -- contract corners (more in test_engine_wheel.py, against a reference) ----


def snapshot(engine):
    return (
        engine.now,
        engine.pending,
        engine.events_processed,
        engine.peek_time(),
        engine.next_time,
    )


def test_state_is_exact_inside_callbacks():
    """``now``, ``events_processed``, ``next_time`` and ``pending`` as
    a callback sees them, including after it schedules more events."""
    engine = EventEngine()
    seen = []

    def probe(tag):
        def callback():
            seen.append((tag, snapshot(engine)))
            if tag == "a":
                engine.schedule(4, lambda: seen.append(("c", snapshot(engine))))
                seen.append(("a+", snapshot(engine)))

        return callback

    engine.schedule(3, probe("a"))
    engine.schedule(7, probe("b"))
    engine.run()
    assert seen == [
        ("a", (3, 1, 1, 7, 7)),
        ("a+", (3, 2, 1, 4, 4)),
        ("c", (4, 1, 2, 7, 7)),
        ("b", (7, 0, 3, TIME_INFINITY, TIME_INFINITY)),
    ]


def test_heartbeat_cadence_survives_run_until_slices():
    engine = EventEngine()
    beats = []
    engine.set_heartbeat(lambda e: beats.append(e.events_processed), every=3)
    for t in range(10):
        engine.schedule(t, lambda: None)
    for deadline in (1, 4, 6, 20):
        engine.run_until(deadline)
    assert beats == [3, 6, 9]


def test_event_limit_wins_over_a_coinciding_heartbeat():
    # Heartbeats are due at 3 and 6; the limit trips at the 6th event.
    engine = _rearming(event_limit=5)
    beats = []
    engine.set_heartbeat(lambda e: beats.append(e.events_processed), every=3)
    with pytest.raises(SimulationError, match="event limit 5 exceeded"):
        engine.run()
    assert beats == [3]
    assert engine.events_processed == 6


def test_inline_requeue_and_scheduled_grant_fire_in_push_order():
    """The processor re-queues its continuation with a raw push that
    draws from the engine's shared counter; at one pclock it must tie
    with ``schedule``d grants exactly as ``schedule`` alone would."""

    def program(inline):
        engine = EventEngine()
        log = []

        def requeue(tag):
            callback = lambda: log.append(tag)  # noqa: E731
            if inline:
                # Precondition of the processor's push: an earlier event
                # is pending, so ``next_time`` needs no update.
                assert engine.next_time < 9
                heapq.heappush(engine._queue, (9, next(engine._seq), callback))
            else:
                engine.schedule(9, callback)

        def step():
            engine.schedule(9, lambda: log.append("grant-before"))
            requeue("continuation")
            engine.schedule(9, lambda: log.append("grant-after"))

        engine.schedule(5, step)
        engine.schedule(6, lambda: log.append("other"))
        engine.run()
        return log, snapshot(engine)

    inline = program(inline=True)
    assert inline == program(inline=False)
    assert inline[0] == ["other", "grant-before", "continuation", "grant-after"]


def test_engine_times_stay_integral():
    """No path may feed a float time into the calendar — neither
    ``schedule`` nor the processor's inline push.  Every calendar entry
    is inspected after each event of a real smoke run."""
    from repro.config import dash_scaled_config
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
    from repro.system import Machine

    machine = Machine(dash_scaled_config(num_processors=SMOKE_PROCESSES))
    machine.load(smoke_program("LU"))
    seen = {"entries": 0}

    def check(engine):
        assert type(engine.now) is int and type(engine.next_time) is int
        for time, _seq, _callback in engine._queue:
            assert type(time) is int, f"non-integer time {time!r} queued"
        seen["entries"] += len(engine._queue)

    machine.engine.set_heartbeat(check, every=1)
    result = machine.run()
    assert type(result.execution_time) is int
    assert seen["entries"] > 0
