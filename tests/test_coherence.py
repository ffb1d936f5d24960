"""Unit tests for the directory coherence protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import DirectMappedCache, LineState
from repro.coherence import (
    AccessClass,
    CoherenceProtocol,
    Directory,
    DirState,
    NodeCaches,
    ProtocolObserver,
)
from repro.coherence.specs import get_spec, spec_names
from repro.coherence.table import Action, ProtocolTableError, ProtoEvent
from repro.config import ContentionConfig, dash_scaled_config
from repro.interconnect import Interconnect
from repro.memlayout import SharedMemoryAllocator


def make_protocol(
    num_nodes=4, contention=False, cache_bytes=(2048, 4096),
    protocol="directory-msi",
):
    config = dash_scaled_config(
        num_processors=num_nodes,
        contention=ContentionConfig(enabled=contention),
        protocol=protocol,
    )
    allocator = SharedMemoryAllocator(num_nodes, page_bytes=config.page_bytes)
    regions = [
        allocator.alloc_local(f"node{i}", 8192, i) for i in range(num_nodes)
    ]
    caches = [
        NodeCaches(
            primary=DirectMappedCache(config.primary_cache),
            secondary=DirectMappedCache(config.secondary_cache),
        )
        for _ in range(num_nodes)
    ]
    directories = [Directory(i) for i in range(num_nodes)]
    protocol = CoherenceProtocol(
        config, allocator, caches, directories, Interconnect(num_nodes, config.contention)
    )
    return protocol, regions


class TestReadPath:
    def test_local_fill_then_hits(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        out = protocol.read(0, addr, 0)
        assert out.access_class is AccessClass.LOCAL
        assert out.retire == 26
        assert protocol.read(0, addr, 100).access_class is AccessClass.PRIMARY_HIT

    def test_remote_clean_fill(self):
        protocol, regions = make_protocol()
        addr = regions[1].addr(0)
        out = protocol.read(0, addr, 0)
        assert out.access_class is AccessClass.HOME
        assert out.retire == 72

    def test_dirty_third_party_fill(self):
        protocol, regions = make_protocol()
        addr = regions[2].addr(0)
        protocol.write(1, addr, 0)
        out = protocol.read(0, addr, 10)
        assert out.access_class is AccessClass.REMOTE
        assert out.retire - 10 == 90

    def test_read_downgrades_dirty_owner_to_shared(self):
        protocol, regions = make_protocol()
        addr = regions[2].addr(0)
        line = protocol.line_of(addr)
        protocol.write(1, addr, 0)
        protocol.read(0, addr, 10)
        assert protocol.caches[1].secondary.probe(line) == LineState.SHARED
        entry = protocol.directories[2].entry(line)
        assert entry.state == DirState.SHARED
        assert entry.sharers == {0, 1}

    def test_read_fills_both_levels(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(0, addr, 0)
        assert protocol.caches[0].primary.probe(line) == LineState.SHARED
        assert protocol.caches[0].secondary.probe(line) == LineState.SHARED


class TestWritePath:
    def test_write_local_unowned(self):
        protocol, regions = make_protocol()
        out = protocol.write(0, regions[0].addr(0), 0)
        assert out.access_class is AccessClass.LOCAL
        assert out.retire == 18
        assert out.complete == 18  # nobody to invalidate

    def test_write_hit_dirty(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.write(0, addr, 0)
        out = protocol.write(0, addr, 100)
        assert out.access_class is AccessClass.SECONDARY_HIT
        assert out.retire - 100 == 2

    def test_write_invalidates_sharers_and_acks_trail(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(1, addr, 0)
        protocol.read(2, addr, 0)
        out = protocol.write(0, addr, 10)
        assert protocol.caches[1].secondary.probe(line) == LineState.INVALID
        assert protocol.caches[2].secondary.probe(line) == LineState.INVALID
        assert out.complete > out.retire  # invalidation acks trail
        entry = protocol.directories[0].entry(line)
        assert entry.state == DirState.DIRTY and entry.owner == 0

    def test_ownership_transfer_from_dirty_remote(self):
        protocol, regions = make_protocol()
        addr = regions[2].addr(0)
        line = protocol.line_of(addr)
        protocol.write(1, addr, 0)
        out = protocol.write(0, addr, 10)
        assert out.access_class is AccessClass.REMOTE
        assert out.retire - 10 == 82
        assert protocol.caches[1].secondary.probe(line) == LineState.INVALID
        assert protocol.directories[2].entry(line).owner == 0

    def test_upgrade_from_shared(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(0, addr, 0)
        protocol.write(0, addr, 10)
        assert protocol.caches[0].secondary.probe(line) == LineState.DIRTY

    def test_write_updates_primary_copy_if_present(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(0, addr, 0)  # fills primary
        protocol.write(0, addr, 10)
        assert protocol.caches[0].primary.probe(line) == LineState.SHARED

    def test_presence_counter(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.write(0, addr, 0)   # miss: not present
        protocol.write(0, addr, 10)  # present (dirty)
        assert protocol.stats.writes_total == 2
        assert protocol.stats.writes_line_present == 1


class TestEvictions:
    def test_dirty_eviction_writes_back_and_releases_directory(self):
        protocol, regions = make_protocol()
        # Two lines mapping to the same secondary set: 4KB apart.
        addr_a = regions[0].addr(0)
        addr_b = regions[0].addr(4096)
        line_a = protocol.line_of(addr_a)
        protocol.write(0, addr_a, 0)
        protocol.write(0, addr_b, 10)  # evicts dirty line_a
        assert protocol.caches[0].secondary.probe(line_a) == LineState.INVALID
        assert protocol.directories[0].entry(line_a).state == DirState.UNOWNED
        assert protocol.stats.eviction_writebacks == 1
        # A later read is a plain local fill, not a remote-dirty fill.
        out = protocol.read(1, addr_a, 100)
        assert out.access_class is AccessClass.HOME

    def test_clean_eviction_drops_sharer(self):
        protocol, regions = make_protocol()
        addr_a = regions[0].addr(0)
        addr_b = regions[0].addr(4096)
        line_a = protocol.line_of(addr_a)
        protocol.read(0, addr_a, 0)
        protocol.read(0, addr_b, 10)  # evicts shared line_a
        entry = protocol.directories[0].entry(line_a)
        assert 0 not in entry.sharers
        assert entry.state == DirState.UNOWNED

    def test_inclusion_preserved_on_eviction(self):
        protocol, regions = make_protocol()
        addr_a = regions[0].addr(0)
        addr_b = regions[0].addr(4096)
        line_a = protocol.line_of(addr_a)
        protocol.read(0, addr_a, 0)
        protocol.read(0, addr_b, 10)
        assert protocol.caches[0].primary.probe(line_a) == LineState.INVALID


RUNTIME_SPECS = [name for name in spec_names() if get_spec(name).runtime_supported]

EVICTION_EVENTS = (
    ProtoEvent.EVICT_CLEAN, ProtoEvent.EVICT_DIRTY, ProtoEvent.EVICT_EXCLUSIVE,
)


class TestEvictionPlans:
    """``_evict`` resolves each rule from a memoized plan; every rule
    must still land where the table says, and bad keys must still
    raise the table's own error."""

    @pytest.mark.parametrize("spec", RUNTIME_SPECS)
    def test_every_eviction_rule_lands_on_its_next_state(self, spec):
        protocol, regions = make_protocol(protocol=spec)
        rules = [r for r in protocol.table.rules if r.event in EVICTION_EVENTS]
        assert rules
        node, other = 1, 2
        for offset, rule in enumerate(rules * 2):  # second pass: memoized
            line = protocol.line_of(regions[0].addr(64 * offset))
            entry = protocol.directories[0].entry(line)
            entry.state = rule.dir_state
            if rule.dir_state == DirState.DIRTY:
                entry.owner = node
            else:
                entry.mask = (1 << node) | ((1 << other) if rule.others_cached else 0)
            before = protocol.stats.eviction_writebacks
            protocol._evict(node, line, int(rule.cache_state), 10)
            assert entry.state == rule.next_dir_state, rule.describe()
            assert node not in entry.sharers and entry.owner != node
            entry.check()
            writes_back = Action.WRITEBACK_MEMORY in rule.action_set
            assert protocol.stats.eviction_writebacks - before == writes_back
        assert len(protocol._evict_plans) == len(rules)

    def test_impossible_key_raises_the_table_error_every_time(self):
        protocol, regions = make_protocol()
        line = protocol.line_of(regions[0].addr(0))
        protocol.write(2, regions[0].addr(0), 0)  # DIRTY at node 2
        with pytest.raises(ProtocolTableError) as expected:
            protocol.table.lookup(
                LineState.SHARED, DirState.DIRTY, ProtoEvent.EVICT_CLEAN, False
            )
        for _ in range(2):
            with pytest.raises(ProtocolTableError) as raised:
                protocol._evict(1, line, int(LineState.SHARED), 10)
            assert str(raised.value) == str(expected.value)
        assert protocol._evict_plans == {}


class TestPrefetch:
    def test_prefetch_in_cache_discarded(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.read(0, addr, 0)
        assert protocol.prefetch(0, addr, exclusive=False, time=10) is None

    def test_exclusive_prefetch_upgrades_shared(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(0, addr, 0)
        out = protocol.prefetch(0, addr, exclusive=True, time=10)
        assert out is not None
        assert protocol.caches[0].secondary.probe(line) == LineState.DIRTY
        assert protocol.stats.prefetch_upgrades == 1

    def test_prefetch_fills_both_levels(self):
        protocol, regions = make_protocol()
        addr = regions[1].addr(0)
        line = protocol.line_of(addr)
        out = protocol.prefetch(0, addr, exclusive=False, time=0)
        assert out.retire == 72
        assert protocol.caches[0].primary.probe(line) == LineState.SHARED

    def test_prefetch_does_not_pollute_demand_stats(self):
        protocol, regions = make_protocol()
        protocol.prefetch(0, regions[1].addr(0), exclusive=False, time=0)
        assert not protocol.stats.reads_by_class
        assert protocol.stats.prefetch_fills_by_class


class TestUncached:
    def test_uncached_read_latencies(self):
        protocol, regions = make_protocol()
        lat = protocol.config.latency
        local = protocol.read_uncached(0, regions[0].addr(0), 0)
        remote = protocol.read_uncached(0, regions[1].addr(0), 0)
        assert local.retire == lat.read_fill_local - lat.uncached_discount
        assert remote.retire == lat.read_fill_home - lat.uncached_discount
        assert local.access_class is AccessClass.UNCACHED_LOCAL
        assert remote.access_class is AccessClass.UNCACHED_REMOTE

    def test_uncached_leaves_no_cache_state(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.read_uncached(0, addr, 0)
        protocol.write_uncached(1, addr, 0)
        line = protocol.line_of(addr)
        assert protocol.caches[0].secondary.probe(line) == LineState.INVALID
        assert protocol.directories[0].entry(line).state == DirState.UNOWNED


class TestObservers:
    def test_attach_order_is_nesting_order(self):
        protocol, regions = make_protocol()
        calls = []

        class Tag(ProtocolObserver):
            def __init__(self, name, shift):
                self.name = name
                self.shift = shift

            def around(self, kind, node, addr, time, issue, **kw):
                calls.append((self.name, kind, time, kw))
                return issue(time + self.shift)

        inner, outer = Tag("inner", 0), Tag("outer", 5)
        protocol.attach(inner)
        protocol.attach(outer)
        addr = regions[0].addr(0)
        outcome = protocol.write(0, addr, 10, background=True)
        protocol.prefetch(0, regions[1].addr(0), exclusive=True, time=20)
        assert calls == [
            ("outer", "write", 10, {"background": True}),
            ("inner", "write", 15, {"background": True}),
            ("outer", "prefetch", 20, {"exclusive": True}),
            ("inner", "prefetch", 25, {"exclusive": True}),
        ]
        # The outer shift reached the transaction itself.
        lat = protocol.config.latency
        assert outcome.retire == 15 + lat.write_owned_local
        protocol.detach(outer)
        protocol.detach(inner)
        assert protocol._observers == []
        calls.clear()
        protocol.read(0, addr, 30)
        assert calls == []


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),      # node
            st.sampled_from(["read", "write", "pf", "pfx"]),
            st.integers(min_value=0, max_value=60),     # line slot
        ),
        min_size=1,
        max_size=250,
    )
)
def test_property_coherence_invariants_hold(operations):
    """After any operation sequence: single writer, precise directory,
    primary subset of secondary."""
    protocol, regions = make_protocol()
    time = 0
    for node, kind, slot in operations:
        addr = regions[slot % 4].addr((slot * 16) % 8192)
        time += 1
        if kind == "read":
            protocol.read(node, addr, time)
        elif kind == "write":
            protocol.write(node, addr, time)
        elif kind == "pf":
            protocol.prefetch(node, addr, exclusive=False, time=time)
        else:
            protocol.prefetch(node, addr, exclusive=True, time=time)
    protocol.check_invariants()
