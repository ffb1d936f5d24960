"""Unit tests for directory state bookkeeping."""

import pytest

from repro.caches import LineState
from repro.coherence import Directory, DirState
from repro.coherence.table import ProtocolTableError
from tests.test_coherence import make_protocol


class TestDirectoryEntries:
    def test_entries_start_unowned(self):
        directory = Directory(0)
        entry = directory.entry(0x100)
        assert entry.state == DirState.UNOWNED
        assert not entry.sharers
        assert entry.owner is None

    def test_entry_is_stable(self):
        directory = Directory(0)
        assert directory.entry(0x100) is directory.entry(0x100)

    def test_known_lines(self):
        directory = Directory(0)
        directory.entry(0x100)
        directory.entry(0x200)
        assert set(directory.known_lines()) == {0x100, 0x200}


def _evict(protocol, node, addr, state):
    """Drive the protocol's eviction of ``node``'s copy of ``addr``;
    returns the home entry."""
    line = protocol.line_of(addr)
    protocol._evict(node, line, int(state), 100)
    return protocol.directories[protocol.home_of(line)].entry(line)


class TestReplacementHints:
    """Clean evictions: the replacement hint drops the sharer and the
    entry lands on the eviction rule's declared next state."""

    def test_drop_last_sharer_returns_to_unowned(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.read(3, addr, 0)
        entry = _evict(protocol, 3, addr, LineState.SHARED)
        assert entry.state == DirState.UNOWNED
        assert not entry.sharers

    def test_drop_one_of_many_keeps_shared(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.read(1, addr, 0)
        protocol.read(2, addr, 10)
        entry = _evict(protocol, 1, addr, LineState.SHARED)
        assert entry.state == DirState.SHARED
        assert entry.sharers == {2}

    def test_drop_unknown_line_is_noop(self):
        directory = Directory(0)
        directory.release(0x999, 1, DirState.UNOWNED)  # must not raise
        assert directory.peek(0x999) is None

    def test_evict_of_unrecorded_line_raises(self):
        # No directory record means UNOWNED: a SHARED victim there is a
        # declared-impossible key of the eviction plan.
        protocol, regions = make_protocol()
        with pytest.raises(ProtocolTableError, match="declared-impossible"):
            _evict(protocol, 1, regions[0].addr(0), LineState.SHARED)


class TestWriteback:
    def test_writeback_clears_ownership(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.write(2, addr, 0)
        entry = _evict(protocol, 2, addr, LineState.DIRTY)
        assert entry.state == DirState.UNOWNED
        assert entry.owner is None
        assert protocol.stats.eviction_writebacks == 1

    def test_writeback_from_wrong_owner_ignored(self):
        directory = Directory(0)
        entry = directory.entry(0x100)
        entry.state = DirState.DIRTY
        entry.owner = 2
        directory.release(0x100, 3, DirState.UNOWNED)
        assert entry.state == DirState.DIRTY
        assert entry.owner == 2

    def test_clean_evict_against_dirty_entry_raises(self):
        # A clean copy cannot coexist with another node's dirty one.
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.write(2, addr, 0)
        with pytest.raises(ProtocolTableError, match="declared-impossible"):
            _evict(protocol, 3, addr, LineState.SHARED)
        entry = protocol.directories[0].entry(protocol.line_of(addr))
        assert entry.state == DirState.DIRTY
        assert entry.owner == 2

    def test_entry_check_validates_consistency(self):
        directory = Directory(0)
        entry = directory.entry(0x100)
        entry.check()  # UNOWNED is consistent
        entry.state = DirState.SHARED
        entry.sharers = {1}
        entry.check()
        entry.state = DirState.DIRTY
        entry.sharers = set()
        entry.owner = 1
        entry.check()


class TestNackCounter:
    def test_note_nack_accumulates(self):
        directory = Directory(0)
        directory.note_nack(0x100)
        directory.note_nack(0x100)
        assert directory.nacks_sent == 2

    def test_reset_zeroes_counter_but_keeps_entries(self):
        directory = Directory(0)
        entry = directory.entry(0x100)
        entry.state = DirState.SHARED
        entry.sharers = {1}
        directory.note_nack(0x100)
        directory.reset()
        assert directory.nacks_sent == 0
        assert directory.peek(0x100) is entry
        assert entry.sharers == {1}
