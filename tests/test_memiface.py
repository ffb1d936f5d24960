"""Unit tests for the node memory interface (write/prefetch buffers,
MSHR combining, consistency behaviour)."""

from repro.caches import LineState
from repro.coherence import AccessClass
from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.consistency import policy_for
from repro.sim.engine import TIME_INFINITY
from repro.system import Machine


def make_machine(consistency=Consistency.RC, **changes):
    config = dash_scaled_config(
        num_processors=4,
        consistency=consistency,
        contention=ContentionConfig(enabled=False),
        **changes,
    )
    machine = Machine(config)
    regions = [
        machine.allocator.alloc_local(f"r{i}", 8192, i) for i in range(4)
    ]
    return machine, regions


class TestSCWrites:
    def test_sc_write_stalls_to_completion(self):
        machine, regions = make_machine(Consistency.SC)
        iface = machine.memifaces[0]
        result = iface.write(regions[0].addr(0), 0)
        assert result.proceed == 18  # local ownership, no sharers

    def test_sc_write_waits_for_acks(self):
        machine, regions = make_machine(Consistency.SC)
        addr = regions[0].addr(0)
        machine.protocol.read(1, addr, 0)  # remote sharer
        result = machine.memifaces[0].write(addr, 10)
        lat = machine.config.latency
        assert result.proceed == 10 + lat.write_owned_local + lat.invalidation_ack_remote


class TestRCWrites:
    def test_rc_write_returns_immediately(self):
        machine, regions = make_machine(Consistency.RC)
        result = machine.memifaces[0].write(regions[0].addr(0), 0)
        assert result.proceed == 1
        assert result.buffer_full_stall == 0

    def test_rc_write_buffer_fills_and_stalls(self):
        machine, regions = make_machine(
            Consistency.RC, write_buffer_depth=2, max_outstanding_writes=1
        )
        iface = machine.memifaces[0]
        # Fill the buffer with remote write misses that retire slowly.
        for i in range(3):
            result = iface.write(regions[1].addr(i * 16), 0)
        assert result.buffer_full_stall > 0
        assert iface.write_buffer_full_stall_cycles > 0

    def test_release_point_covers_ack_horizon(self):
        machine, regions = make_machine(Consistency.RC)
        addr = regions[0].addr(0)
        machine.protocol.read(1, addr, 0)  # remote sharer to invalidate
        iface = machine.memifaces[0]
        iface.write(addr, 10)
        lat = machine.config.latency
        fence = iface.release_point(11)
        assert fence >= 10 + lat.write_owned_local + lat.invalidation_ack_remote

    def test_release_point_is_now_once_drained(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        iface.write(regions[0].addr(0), 0)
        assert iface.release_point(10_000) == 10_000

    def test_release_point_is_latest_live_completion_after_partial_expiry(self):
        machine, regions = make_machine(Consistency.RC)
        addr = regions[0].addr(0)
        machine.protocol.read(1, addr, 0)  # two remote sharers: the
        machine.protocol.read(2, addr, 0)  # write completes on their acks
        iface = machine.memifaces[0]
        iface.write(addr, 10)
        acked = iface.release_point(11)
        iface.write(regions[0].addr(64), 11)  # local, no sharers
        retires = list(iface._wb_retires)
        assert len(retires) == 2 and retires[-1] < acked
        # Both entries retire before the acks are in; an access past the
        # retires expires them, and the fence still waits for the acks.
        iface.read(regions[0].addr(1024), retires[-1] + 1)
        assert iface.write_buffer_occupancy == 0
        assert iface.release_point(retires[-1] + 1) == acked
        assert iface.release_point(acked - 1) == acked
        assert iface.release_point(acked + 5) == acked + 5

    def test_rewritten_line_forwards_until_the_later_retire(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        line = iface.protocol.line_of(addr)
        iface.write(addr, 0)
        first = iface._wb_lines[line]
        iface.write(regions[2].addr(0), 1)  # a slower write in between
        iface.write(addr, 2)  # re-buffer the line: retires after both
        second = iface._wb_lines[line]
        assert second > first
        forwards = iface.store_forwards
        for now in (first, second - 1):
            result = iface.read(addr, now)
            assert result.ready == now + machine.config.latency.read_primary_hit
            forwards += 1
            assert iface.store_forwards == forwards
        iface.read(addr, second)
        assert iface.store_forwards == forwards
        assert line not in iface._wb_lines

    def test_sc_release_point_is_now(self):
        machine, regions = make_machine(Consistency.SC)
        assert machine.memifaces[0].release_point(55) == 55

    def test_read_forwards_from_write_buffer(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)  # remote line: slow retire
        iface.write(addr, 0)
        result = iface.read(addr, 1)
        assert result.ready == 1 + machine.config.latency.read_primary_hit
        assert iface.store_forwards == 1


class TestPrefetchPath:
    def test_prefetch_then_demand_read_combines(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        iface.prefetch(addr, exclusive=False, now=0)
        result = iface.read(addr, 5)
        assert result.combined_with_prefetch
        assert result.ready == 72  # completes when the prefetch returns
        assert iface.demand_combined_with_prefetch == 1

    def test_prefetch_after_completion_reads_hit(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        iface.prefetch(addr, exclusive=False, now=0)
        result = iface.read(addr, 500)  # long after arrival
        assert result.access_class in (
            AccessClass.PRIMARY_HIT,
            AccessClass.SECONDARY_HIT,
        )

    def test_duplicate_prefetch_discarded(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        iface.prefetch(addr, exclusive=False, now=0)
        result = iface.prefetch(addr, exclusive=False, now=1)
        assert result.discarded
        assert iface.prefetches_discarded == 1

    def test_prefetch_buffer_full_stalls(self):
        machine, regions = make_machine(Consistency.RC, prefetch_buffer_depth=2)
        iface = machine.memifaces[0]
        # Saturate the issue pipe so entries linger in the buffer.
        stall = 0
        for i in range(8):
            result = iface.prefetch(regions[1].addr(1024 + i * 16), False, 0)
            stall += result.buffer_full_stall
        assert stall > 0

    def test_fill_lockout_consumed_once(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        iface.prefetch(regions[1].addr(0), exclusive=False, now=0)
        assert iface.consume_fill_stalls(1000) == 1
        assert iface.consume_fill_stalls(1000) == 0

    def test_out_of_order_fill_arrivals_consumed_partially_once_each(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        for arrival in (300, 100, 200, 100):
            iface.note_fill_arrival(arrival)
        # The processor gates its call on the earliest pending arrival.
        assert iface._next_fill == 100
        assert iface.consume_fill_stalls(99) == 0
        assert iface.consume_fill_stalls(150) == 2
        assert iface.consume_fill_stalls(150) == 0
        assert iface._next_fill == 200
        assert iface.consume_fill_stalls(250) == 1
        assert iface.consume_fill_stalls(10_000) == 1
        assert iface.consume_fill_stalls(10_000) == 0
        assert iface._next_fill == TIME_INFINITY  # nothing pending

    def test_upgrade_prefetch_outlives_the_stale_shared_entry(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        line = iface.protocol.line_of(addr)
        shared = iface.read(addr, 0).ready
        # An exclusive prefetch over the in-flight shared fetch replaces
        # its MSHR entry with one that completes later.
        assert not iface.prefetch(addr, exclusive=True, now=40).discarded
        upgrade = iface.mshr.lookup(line).complete_time
        assert upgrade > shared
        # Crossing the old entry's completion must not retire the new
        # miss: demand reads keep combining until the upgrade lands.
        for now in (shared, shared + 1, upgrade - 1):
            result = iface.read(addr, now)
            assert result.combined_with_prefetch
            assert result.ready == upgrade
            assert iface.mshr.lookup(line).complete_time == upgrade
        assert not iface.read(addr, upgrade).combined_with_prefetch
        assert iface.mshr.lookup(line) is None


class TestMSHRCombining:
    def test_second_read_combines_with_first(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        first = iface.read(addr, 0)
        second = iface.read(addr, 5)  # while outstanding
        assert second.ready == first.ready

    def test_mshr_expires_lazily(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        iface.read(addr, 0)
        iface.read(regions[0].addr(0), 10_000)  # triggers expiry
        assert iface.mshr.lookup(iface.protocol.line_of(addr)) is None


class TestUncachedMode:
    def test_uncached_read_and_write(self):
        machine, regions = make_machine(
            Consistency.SC, caching_shared_data=False
        )
        iface = machine.memifaces[0]
        lat = machine.config.latency
        read = iface.read(regions[0].addr(0), 0)
        assert read.ready == lat.read_fill_local - lat.uncached_discount
        write = iface.write(regions[0].addr(0), 0)
        assert write.proceed == lat.write_owned_local - lat.uncached_discount
