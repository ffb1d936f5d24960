"""Unit tests for the processor model: accounting, stalls, switching."""

import pytest

from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.processor.accounting import Bucket, TimeBreakdown
from repro.system import Machine
from repro.tango import Program
from repro.tango import ops as O


def run_threads(thread_bodies, consistency=Consistency.SC, **changes):
    """Run one thread per processor on a small quiet machine."""
    config = dash_scaled_config(
        num_processors=len(thread_bodies),
        consistency=consistency,
        contention=ContentionConfig(enabled=False),
        **changes,
    )

    def setup(allocator, num_processes):
        return {
            "regions": [
                allocator.alloc_local(f"r{i}", 8192, i % config.num_processors)
                for i in range(num_processes)
            ],
            "shared": allocator.alloc_round_robin("shared", 4096),
        }

    def factory(world, env):
        return thread_bodies[env.process_id % len(thread_bodies)](world, env)

    machine = Machine(config)
    machine.load(Program("test", setup, factory))
    result = machine.run()
    return machine, result


class TestAccounting:
    def test_busy_only_thread(self):
        def body(world, env):
            yield (O.BUSY, 100)

        machine, result = run_threads([body])
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.BUSY] == 100
        assert breakdown.total == 100

    def test_read_hit_counts_busy(self):
        def body(world, env):
            addr = world["regions"][0].addr(0)
            yield (O.READ, addr)  # local fill: 1 busy + 25 stall
            yield (O.READ, addr)  # primary hit: 1 busy

        machine, result = run_threads([body])
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.BUSY] == 2
        assert breakdown[Bucket.READ_STALL] == 25

    def test_sc_write_accounts_write_stall(self):
        def body(world, env):
            yield (O.WRITE, world["regions"][0].addr(0))

        machine, result = run_threads([body], consistency=Consistency.SC)
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.WRITE_STALL] == 17  # 18 - 1 busy cycle

    def test_rc_write_does_not_stall(self):
        def body(world, env):
            yield (O.WRITE, world["regions"][0].addr(0))

        machine, result = run_threads([body], consistency=Consistency.RC)
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.WRITE_STALL] == 0

    def test_partition_invariant(self):
        def body(world, env):
            region = world["regions"][env.process_id]
            for i in range(50):
                yield (O.READ, region.addr(i * 16 % 8192))
                yield (O.BUSY, 3)
                yield (O.WRITE, region.addr(i * 16 % 8192))
            yield (O.BARRIER, world["shared"].addr(0), env.num_processes)

        machine, result = run_threads([body, body, body])
        for processor in machine.processors:
            assert processor.breakdown.total == processor.finish_time

    def test_prefetch_overhead_accounted(self):
        def body(world, env):
            yield (O.PREFETCH, world["regions"][0].addr(0), False)
            yield (O.BUSY, 10)

        machine, result = run_threads([body])
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.PREFETCH_OVERHEAD] >= 2


class TestMultipleContexts:
    def test_switch_on_long_stall(self):
        def body(world, env):
            # Each context reads a line homed on another node: 72 cycles.
            other = (env.process_id + 1) % env.num_processes
            yield (O.READ, world["regions"][other].addr(env.process_id * 2048))
            yield (O.BUSY, 10)

        machine, result = run_threads(
            [body], contexts_per_processor=2, context_switch_cycles=4
        )
        processor = machine.processors[0]
        assert processor.context_switches >= 1
        assert processor.breakdown[Bucket.SWITCH] >= 4

    def test_short_stall_does_not_switch(self):
        def body(world, env):
            addr = world["regions"][0].addr(0)
            yield (O.WRITE, addr)  # first write: long, switches
            yield (O.WRITE, addr)  # dirty-hit: 2 cycles, no switch

        machine, result = run_threads(
            [body], contexts_per_processor=2, context_switch_cycles=4
        )
        assert machine.processors[0].breakdown[Bucket.NO_SWITCH] >= 1

    def test_all_idle_when_every_context_blocked(self):
        def body(world, env):
            other = (env.process_id + 1) % env.num_processes
            for i in range(5):
                yield (O.READ, world["regions"][other].addr(env.process_id * 1024 + i * 16))

        machine, result = run_threads(
            [body], contexts_per_processor=2, context_switch_cycles=4
        )
        assert machine.processors[0].breakdown[Bucket.ALL_IDLE] > 0

    def test_work_conserving_overlap(self):
        """Two contexts with independent misses finish faster than
        double a single context's time."""

        def body(world, env):
            other = (env.process_id + 1) % env.num_processes
            for i in range(20):
                yield (O.READ, world["regions"][other].addr(env.process_id * 2048 + i * 16))
                yield (O.BUSY, 20)

        machine1, result1 = run_threads([body])
        machine2, result2 = run_threads(
            [body], contexts_per_processor=2, context_switch_cycles=4
        )
        assert result2.execution_time < 2 * result1.execution_time

    def test_context_counters(self):
        def body(world, env):
            yield (O.BUSY, 5)

        machine, result = run_threads([body], contexts_per_processor=4)
        assert all(p.finished for p in machine.processors)
        assert result.execution_time > 0


class TestSynchronizationOps:
    def test_lock_serializes_critical_sections(self):
        log = []

        def body(world, env):
            lock = world["shared"].addr(0)
            yield (O.LOCK, lock)
            log.append(("enter", env.process_id))
            yield (O.BUSY, 50)
            log.append(("exit", env.process_id))
            yield (O.UNLOCK, lock)

        run_threads([body, body, body])
        # Sections never interleave.
        for i in range(0, len(log), 2):
            assert log[i][0] == "enter"
            assert log[i + 1][0] == "exit"
            assert log[i][1] == log[i + 1][1]

    def test_barrier_joins_all(self):
        after = []

        def body(world, env):
            yield (O.BUSY, env.process_id * 100)
            yield (O.BARRIER, world["shared"].addr(0), env.num_processes)
            after.append(env.process_id)

        machine, result = run_threads([body, body, body, body])
        assert sorted(after) == [0, 1, 2, 3]

    def test_flag_orders_producer_consumer(self):
        order = []

        def producer(world, env):
            yield (O.BUSY, 500)
            order.append("produced")
            yield (O.FLAG_SET, world["shared"].addr(0))

        def consumer(world, env):
            yield (O.FLAG_WAIT, world["shared"].addr(0))
            order.append("consumed")

        run_threads([producer, consumer])
        assert order == ["produced", "consumed"]

    def test_sync_stall_accounted(self):
        def holder(world, env):
            yield (O.LOCK, world["shared"].addr(0))
            yield (O.BUSY, 1000)
            yield (O.UNLOCK, world["shared"].addr(0))

        def waiter(world, env):
            yield (O.BUSY, 1)
            yield (O.LOCK, world["shared"].addr(0))
            yield (O.UNLOCK, world["shared"].addr(0))

        machine, result = run_threads([holder, waiter])
        assert machine.processors[1].breakdown[Bucket.SYNC_STALL] > 500


class TestTermination:
    def test_deadlock_detected(self):
        from repro.sim import DeadlockError

        def body(world, env):
            yield (O.LOCK, world["shared"].addr(0))
            # Never unlocks; the second thread can never acquire.
            yield (O.BUSY, 10)

        with pytest.raises(DeadlockError):
            run_threads([body, body])

    def test_unknown_opcode_rejected(self):
        def body(world, env):
            yield (99, 0)

        with pytest.raises(ValueError):
            run_threads([body])


class TestContinuation:
    """The processor resumes one suspended ``_loop`` frame per event."""

    @staticmethod
    def _holder(world, env):
        lock = world["shared"].addr(0)
        yield (O.LOCK, lock)
        yield (O.READ, world["regions"][0].addr(0))
        yield (O.BUSY, 300)
        yield (O.WRITE, world["regions"][0].addr(64))
        yield (O.UNLOCK, lock)
        yield (O.BUSY, 7)

    @staticmethod
    def _waiter(world, env):
        lock = world["shared"].addr(0)
        yield (O.BUSY, 20)
        # Contended: every context of this processor waits for the
        # grant, so the processor parks until the grant resumes it.
        yield (O.LOCK, lock)
        yield (O.READ, world["regions"][0].addr(64))
        yield (O.BUSY, 11)
        yield (O.UNLOCK, lock)
        yield (O.READ, world["regions"][1].addr(128))

    @staticmethod
    def _cycles(processor):
        return {b.name: c for b, c in processor.breakdown.cycles.items() if c}

    def test_parked_processor_resumes_on_grant_and_finishes(self):
        machine, result = run_threads([self._holder, self._waiter])
        holder, waiter = machine.processors
        assert all(p.finished for p in machine.processors)
        assert self._cycles(holder) == {
            "BUSY": 311, "READ_STALL": 25, "WRITE_STALL": 17, "SYNC_STALL": 26,
        }
        assert self._cycles(waiter) == {
            "BUSY": 35, "READ_STALL": 96, "SYNC_STALL": 398,
        }
        assert (holder.finish_time, waiter.finish_time) == (379, 529)
        assert result.execution_time == 529

    def test_parked_multi_context_processor_resumes_on_grant(self):
        machine, result = run_threads(
            [self._holder, self._waiter],
            contexts_per_processor=2,
            context_switch_cycles=4,
        )
        holder, waiter = machine.processors
        assert self._cycles(holder) == {
            "BUSY": 622, "SWITCH": 12, "ALL_IDLE": 81, "NO_SWITCH": 7,
        }
        assert self._cycles(waiter) == {
            "BUSY": 70, "SWITCH": 12, "ALL_IDLE": 827, "NO_SWITCH": 10,
        }
        assert (holder.context_switches, waiter.context_switches) == (3, 3)
        assert result.execution_time == 919

    def test_read_wrapper_installed_before_run_reroutes_every_read(self):
        def body(world, env):
            base = world["regions"][env.process_id].addr(0)
            for i in range(50):
                # Mostly primary hits: the processor's inline probe
                # would serve them without calling protocol.read.
                yield (O.READ, base + (i % 4) * 16)
                yield (O.BUSY, 3)

        def build():
            config = dash_scaled_config(
                num_processors=2, contention=ContentionConfig(enabled=False)
            )
            machine = Machine(config)
            machine.load(Program("reads", lambda allocator, n: {
                "regions": [
                    allocator.alloc_local(f"r{i}", 8192, i) for i in range(n)
                ],
            }, body))
            return machine

        plain = build().run()
        machine = build()
        calls = []
        original = machine.protocol.read

        def counting_read(node, addr, now):
            calls.append(node)
            return original(node, addr, now)

        machine.protocol.read = counting_read
        result = machine.run()
        reads = sum(p.shared_reads for p in machine.processors)
        assert reads == 100
        assert len(calls) == reads
        assert result.execution_time == plain.execution_time
        assert result.per_processor == plain.per_processor
