"""Per-node memory interface.

Sits between a processor and the coherence protocol, implementing the
processor environment of Figure 1: the read path through the two cache
levels, the 16-entry write buffer (used under RC), the 16-entry prefetch
buffer, and the MSHRs of the lockup-free secondary cache.

Write buffering uses an *eager drain* model: the ownership transaction of
a buffered write is evaluated at enqueue time with its future issue time,
so the directory and caches reflect the write immediately while the
retire/completion times carry the buffer's FIFO and pipelining
constraints.  Under release consistency this is semantically safe — RC
explicitly allows writes to propagate early, and only the *release* fence
(handled via :meth:`release_point`) constrains ordering.  Under SC the
buffer is bypassed entirely and the processor stalls to completion.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.caches import MSHRTable, OutstandingMiss
from repro.coherence import AccessClass, CoherenceProtocol
from repro.coherence.table import ProtocolTableError
from repro.config import MachineConfig
from repro.consistency import ConsistencyPolicy
from repro.sim.engine import TIME_INFINITY, EventEngine

_PRIMARY_HIT = AccessClass.PRIMARY_HIT
_SECONDARY_HIT = AccessClass.SECONDARY_HIT

#: Watermark sentinel: nothing pending matures before this.
_NEVER = TIME_INFINITY


class ReadResult(NamedTuple):
    ready: int
    access_class: AccessClass
    combined_with_prefetch: bool


class WriteResult(NamedTuple):
    #: Time the processor may execute its next instruction.
    proceed: int
    #: Cycles the processor spent stalled because the write buffer was
    #: full (RC only; zero under SC, whose stall is ``proceed - now``).
    buffer_full_stall: int
    access_class: AccessClass


class PrefetchResult(NamedTuple):
    #: Cycles the processor stalled on a full prefetch buffer.
    buffer_full_stall: int
    #: True if the prefetch was dropped (line present / already in flight).
    discarded: bool


#: Frame-free constructors, one per result type: build through the C
#: ``tuple.__new__`` (what the generated ``__new__`` ultimately calls),
#: with no Python frame per access — same type, same fields.
_MK_READ = partial(tuple.__new__, ReadResult)
_MK_WRITE = partial(tuple.__new__, WriteResult)
_MK_PREFETCH = partial(tuple.__new__, PrefetchResult)


class NodeMemoryInterface:
    """One node's processor-side memory port."""

    def __init__(
        self,
        node: int,
        config: MachineConfig,
        policy: ConsistencyPolicy,
        protocol: CoherenceProtocol,
        engine: EventEngine,
    ) -> None:
        self.node = node
        self.config = config
        self.policy = policy
        self.protocol = protocol
        self.engine = engine
        self.mshr = MSHRTable()
        #: Memory-event trace recorder; installed by the machine when
        #: ``MachineConfig.trace_memory_events`` is set, else ``None``.
        self.trace = None

        # Write buffer (eager drain): retire times of entries still
        # occupying the buffer, newest last; values are monotone.
        self._wb_retires: Deque[int] = deque()
        self._wb_last_retire = 0
        # Retire times of the last `max_outstanding` issued writes, for
        # the in-flight pipelining cap of the lockup-free cache.
        self._wb_inflight: Deque[int] = deque()
        # Latest completion time (incl. invalidation acks) of any
        # buffered write: the release fence.  A running max suffices:
        # ``max(now, latest)`` is the latest still-pending completion,
        # or ``now`` when none is pending.
        self._wb_last_complete = 0
        # Buffered lines for read forwarding: line -> retire time.
        self._wb_lines: Dict[int, int] = {}

        # Prefetch buffer: issue times of entries still occupying it.
        self._pf_queue: Deque[int] = deque()
        self._pf_last_issue: Optional[int] = None

        # Pending primary-cache fill arrivals (a min-heap) that will
        # lock the processor out for `prefetch_fill_stall` cycles each;
        # `_next_fill` is the heap's head, `_NEVER` when empty, so the
        # processor tests one scalar instead of calling in.
        self._fill_arrivals: List[int] = []
        self._next_fill = _NEVER

        # Hot-path scalars and aliases.  The MSHR's dict is mutated in
        # place and never rebound, so aliasing it here is safe; the read
        # path probes it on every access.
        self._misses = self.mshr._misses
        self._line_bytes = config.line_bytes
        self._bypass = bool(config.write_buffer_bypass and policy.reads_bypass_writes)
        self._cached = bool(config.caching_shared_data)
        #: Min-heap of ``(time, line, buffered)``: one entry per MSHR
        #: miss (``buffered`` False, keyed by ``complete_time``) and per
        #: buffered write (True, keyed by its retire time).  A popped
        #: entry is checked against the live table, so entries left
        #: behind by an upgraded miss or a re-written line are dropped.
        self._expiry: List[Tuple[int, int, bool]] = []
        #: Earliest time any tracked entry matures: the earliest of the
        #: heads of ``_expiry``, the write buffer and the prefetch queue
        #: (each holds its earliest entry at its head).  While ``now`` is
        #: before this watermark nothing has expired, so the hot path
        #: skips ``_expire`` with one compare; every enqueue site lowers
        #: it.
        self._next_expiry = _NEVER
        self._wb_depth = config.write_buffer_depth
        self._max_wb = config.max_outstanding_writes

        # Fused hit probe (see read/write): when the protocol's packed
        # fast path is live, the hit checks run inline here — identical
        # counters and latencies, minus two call frames per access.  The
        # per-call gates disable it the moment anything wraps
        # ``protocol.read``/``protocol.write`` (the sanitizer, the
        # litmus recorder, and the fault injector all install instance
        # attributes) or installs a memory-event trace, so every
        # observer sees the classic path.  The aliased containers
        # (``_fast_info``, the stats dicts) are mutated in place and
        # never rebound.
        self._pdict = protocol.__dict__
        self._fuse = bool(getattr(protocol, "_fast", False))
        if self._fuse:
            self._finfo = protocol._fast_info
            self._pri_sets = protocol._pri_sets
            self._sec_sets = protocol._sec_sets
            self._stats = protocol.stats
            self._reads = protocol.stats.reads_by_class
            self._writes = protocol.stats.writes_by_class
            self._lat_rph = protocol._lat_read_primary_hit
            self._lat_rfs = protocol._lat_read_fill_secondary
            self._lat_wos = protocol._lat_write_owned_secondary
            # Spec-derived hit-rule views (see CoherenceProtocol): the
            # fused probes must serve exactly the states the active
            # protocol calls hits (MESI adds E) with the rule's declared
            # next state.
            self._rhit_fills = protocol._read_hit_fills
            self._rhit_rules = protocol._read_hit_rule_by_int
            self._whit_rules = protocol._write_hit_by_int
            self._whit_fills = protocol._write_hit_fills
            self._whit_next = protocol._write_hit_next_by_int
        else:
            self._finfo = None
            self._pri_sets = self._sec_sets = 0
            self._stats = self._reads = self._writes = None
            self._lat_rph = self._lat_rfs = self._lat_wos = 0
            self._rhit_fills = self._rhit_rules = None
            self._whit_rules = self._whit_fills = self._whit_next = None

        # Counters
        self.write_buffer_full_stall_cycles = 0
        self.prefetch_buffer_full_stall_cycles = 0
        self.prefetches_discarded = 0
        self.prefetches_sent = 0
        self.demand_combined_with_prefetch = 0
        self.store_forwards = 0

    # -- lazy expiry ------------------------------------------------------

    def _expire(self, now: int) -> None:
        """Drop every entry that has matured by ``now``.

        Each container is consumed from its time-ordered head, so each
        entry is removed once, at O(1) (the deques) or O(log n) (the
        expiry heap) cost.
        """
        if now < self._next_expiry:
            return  # nothing has matured since the last call
        wb = self._wb_retires
        while wb and wb[0] <= now:
            wb.popleft()
        pf = self._pf_queue
        while pf and pf[0] <= now:
            pf.popleft()
        heap = self._expiry
        while heap and heap[0][0] <= now:
            _, line, buffered = heappop(heap)
            if buffered:
                if self._wb_lines.get(line, _NEVER) <= now:
                    del self._wb_lines[line]
            else:
                miss = self._misses.get(line)
                if miss is not None and miss.complete_time <= now:
                    self.mshr.retire(line)
        horizon = heap[0][0] if heap else _NEVER
        if wb and wb[0] < horizon:
            horizon = wb[0]
        if pf and pf[0] < horizon:
            horizon = pf[0]
        self._next_expiry = horizon

    def _track_miss(self, miss: OutstandingMiss) -> None:
        """Register an in-flight miss and schedule its expiry."""
        self.mshr.add(miss)
        done = miss.complete_time
        heappush(self._expiry, (done, miss.line, False))
        if done < self._next_expiry:
            self._next_expiry = done

    # -- reads ---------------------------------------------------------------

    def read(self, addr: int, now: int) -> ReadResult:
        # Expiry only has work to do once the watermark is crossed; the
        # compare keeps the dominant case (nothing matured, primary hit)
        # free of the call entirely.
        if now >= self._next_expiry:
            self._expire(now)
        misses = self._misses
        line = addr - addr % self._line_bytes

        miss = misses.get(line)
        if miss is not None:
            # Combine with the in-flight transaction (Section 5.1): the
            # reference completes as soon as the earlier response returns.
            self.mshr.combine(line)
            if miss.is_prefetch:
                self.demand_combined_with_prefetch += 1
            ready = max(now + 1, miss.complete_time)
            if self.trace is not None:
                self.trace.record_read(
                    self.node, addr, now, ready, source="combine",
                    access_class=AccessClass.SECONDARY_HIT.value,
                )
            return _MK_READ((ready, AccessClass.SECONDARY_HIT, miss.is_prefetch))

        if self._bypass and line in self._wb_lines:
            # Same-line forward out of the write buffer: free.
            self.store_forwards += 1
            lat = self.config.latency.read_primary_hit
            if self.trace is not None:
                self.trace.record_read(
                    self.node, addr, now, now + lat, source="forward",
                    access_class=AccessClass.PRIMARY_HIT.value,
                    rf_eid=self.trace.buffered_writer(self.node, line),
                )
            return _MK_READ((now + lat, AccessClass.PRIMARY_HIT, False))

        if not self._cached:
            outcome = self.protocol.read_uncached(self.node, addr, now)
            if self.trace is not None:
                self.trace.record_read(
                    self.node, addr, now, outcome.retire, source="uncached",
                    access_class=outcome.access_class.value,
                )
            return _MK_READ((outcome.retire, outcome.access_class, False))

        proto = self.protocol
        if (
            self._fuse
            and self.trace is None
            and proto.trace is None
            and "read" not in self._pdict
        ):
            # Fused packed probe — bit-identical to protocol.read's
            # fast path (same counter bumps, same latencies, same
            # table-sanity raise); see the gate comment in __init__.
            node = self.node
            info = self._finfo[node]
            word = line // self._line_bytes
            index = word % self._pri_sets
            if info[0][index] == line and info[1][index]:
                info[2].hits += 1
                reads = self._reads
                reads[_PRIMARY_HIT] = reads.get(_PRIMARY_HIT, 0) + 1
                return _MK_READ((now + self._lat_rph, _PRIMARY_HIT, False))
            info[2].misses += 1
            sindex = word % self._sec_sets
            state = info[4][sindex] if info[3][sindex] == line else 0
            if state:
                info[5].hits += 1
                if not self._rhit_fills[state]:
                    rule = self._rhit_rules[state]
                    raise ProtocolTableError(
                        f"read-hit rule does not fill from cache: "
                        f"{rule.describe()}"
                    )
                # Packed primary fill (``_install_primary`` inlined:
                # write-through level, silent eviction, counter kept).
                ptags = info[0]
                pstates = info[1]
                if pstates[index] and ptags[index] != line:
                    info[2].evictions += 1
                ptags[index] = line
                pstates[index] = 1  # LineState.SHARED
                reads = self._reads
                reads[_SECONDARY_HIT] = reads.get(_SECONDARY_HIT, 0) + 1
                return _MK_READ((now + self._lat_rfs, _SECONDARY_HIT, False))
            info[5].misses += 1
            outcome = proto._read_fill(node, line, now)
            self._stats.count_read(outcome.access_class)
            retire = outcome[0]
            self._track_miss(OutstandingMiss(line, False, now, retire, False))
            return _MK_READ((retire, outcome[2], False))
        outcome = proto.read(self.node, addr, now)
        retire = outcome[0]
        access_class = outcome[2]
        if access_class is not _PRIMARY_HIT and access_class is not _SECONDARY_HIT:
            self._track_miss(OutstandingMiss(line, False, now, retire, False))
        if self.trace is not None:
            self.trace.record_read(
                self.node, addr, now, retire, source="memory",
                access_class=access_class.value,
            )
        return _MK_READ((retire, access_class, False))

    # -- writes --------------------------------------------------------------

    def write(self, addr: int, now: int) -> WriteResult:
        if now >= self._next_expiry:
            self._expire(now)
        if not self._cached:
            return self._write_uncached(addr, now)
        if self.policy.write_stalls_processor:
            # SC: the processor stalls until the write completes with
            # respect to all processors — ownership plus invalidation
            # acknowledgements when other copies existed.
            hit = self._fused_write_hit(addr, now)
            if hit is not None:
                return _MK_WRITE((hit, 0, _SECONDARY_HIT))
            outcome = self.protocol.write(self.node, addr, now)
            return _MK_WRITE((outcome.complete, 0, outcome.access_class))
        return self._write_buffered(
            addr, now, self.protocol.write, fuse_hits=True
        )

    def _fused_write_hit(self, addr: int, now: int) -> Optional[int]:
        """Inline secondary-owned write hit: the retire time, or None
        when the line is not in a local write-hit state here — M, or E
        under MESI — (or the fuse gate is closed).

        Bit-identical to protocol.write's owned-hit fast path — same
        counter bumps, same primary refresh, same table-sanity raise;
        see the gate comment in __init__.  Counters are only touched
        once the hit is established, so a ``None`` return leaves the
        classic path's accounting untouched.
        """
        proto = self.protocol
        if (
            not self._fuse
            or self.trace is not None
            or proto.trace is not None
            or "write" in self._pdict
        ):
            return None
        line = addr - addr % self._line_bytes
        info = self._finfo[self.node]
        word = line // self._line_bytes
        sindex = word % self._sec_sets
        state = info[4][sindex] if info[3][sindex] == line else 0
        rule = self._whit_rules.get(state)
        if rule is None:
            return None  # not a local write-hit state: classic path
        if not self._whit_fills[state]:
            raise ProtocolTableError(
                "write-hit rule does not fill from cache: "
                f"{rule.describe()}"
            )
        # MESI's silent upgrade: an E copy becomes M with no message
        # (a no-op store for M itself).
        info[4][sindex] = self._whit_next[state]
        info[5].hits += 1
        stats = self._stats
        stats.writes_total += 1
        stats.writes_line_present += 1
        # Write-through primary: refresh the copy if present.
        pindex = word % self._pri_sets
        if info[0][pindex] == line and info[1][pindex]:
            info[1][pindex] = 1  # LineState.SHARED
        writes = self._writes
        writes[_SECONDARY_HIT] = writes.get(_SECONDARY_HIT, 0) + 1
        return now + self._lat_wos

    def _write_uncached(self, addr: int, now: int) -> WriteResult:
        if self.policy.write_stalls_processor:
            outcome = self.protocol.write_uncached(self.node, addr, now)
            return _MK_WRITE((outcome.complete, 0, outcome.access_class))
        return self._write_buffered(addr, now, self.protocol.write_uncached)

    def _write_buffered(
        self, addr: int, now: int, transact, fuse_hits: bool = False
    ) -> WriteResult:
        """RC path: enqueue in the write buffer, drain eagerly."""
        full_stall = 0
        if len(self._wb_retires) >= self._wb_depth:
            free_at = self._wb_retires.popleft()
            full_stall = free_at - now
            self.write_buffer_full_stall_cycles += full_stall
            now = free_at
            self._expire(now)

        issue = now
        if len(self._wb_inflight) >= self._max_wb:
            issue = max(issue, self._wb_inflight.popleft())
        while len(self._wb_inflight) >= self._max_wb:
            self._wb_inflight.popleft()

        # Buffered writes drain on the background resource chain: DASH
        # gives demand reads priority over the write buffer.  Owned
        # hits never touch the network, so the fused probe applies
        # unchanged at the buffered issue time.
        hit = self._fused_write_hit(addr, issue) if fuse_hits else None
        if hit is not None:
            outcome_retire = hit
            outcome_complete = hit
            outcome_class = _SECONDARY_HIT
        else:
            outcome = transact(self.node, addr, issue, background=True)
            outcome_retire = outcome.retire
            outcome_complete = outcome.complete
            outcome_class = outcome.access_class
        retire = max(outcome_retire, self._wb_last_retire)
        self._wb_last_retire = retire
        self._wb_retires.append(retire)
        self._wb_inflight.append(retire)
        complete = max(outcome_complete, retire)
        if complete > self._wb_last_complete:
            self._wb_last_complete = complete
        line = addr - addr % self._line_bytes
        # A re-written line keeps its entry alive until the later
        # retire; the earlier heap entry finds it unexpired and is
        # dropped.
        self._wb_lines[line] = retire
        heappush(self._expiry, (retire, line, True))
        if retire < self._next_expiry:
            self._next_expiry = retire
        if self.trace is not None:
            # The write just recorded by the protocol hook is now the
            # buffered entry same-line reads would forward from.
            self.trace.note_buffered_line(self.node, line)
        return _MK_WRITE((now + 1, full_stall, outcome_class))

    # -- releases -------------------------------------------------------------

    def release_point(self, now: int) -> int:
        """Earliest time a release may be performed: all earlier writes
        complete, including invalidation acknowledgements (RC)."""
        if not self.policy.release_requires_completion:
            return now
        # Completion is never before retire, so the latest completion
        # also covers the FIFO's last retire.
        return max(now, self._wb_last_complete)

    # -- prefetches -------------------------------------------------------------

    def prefetch(self, addr: int, exclusive: bool, now: int) -> PrefetchResult:
        if now >= self._next_expiry:
            self._expire(now)
        full_stall = 0
        if len(self._pf_queue) >= self.config.prefetch_buffer_depth:
            free_at = self._pf_queue.popleft()
            full_stall = free_at - now
            self.prefetch_buffer_full_stall_cycles += full_stall
            now = free_at
            self._expire(now)

        line = self.protocol.line_of(addr)
        existing = self.mshr.lookup(line)
        if existing is not None and (existing.exclusive or not exclusive):
            # Already in flight with sufficient permission: drop.
            self.prefetches_discarded += 1
            return _MK_PREFETCH((full_stall, True))

        # The prefetch occupies a buffer slot until it issues; issues are
        # serialized through the node bus.  One that issues at once
        # never occupies a slot any later call can see, so it is not
        # queued (time is monotone per interface).
        gap = self.config.contention.bus_occupancy_header
        if self._pf_last_issue is None:
            issue = now
        else:
            issue = max(now, self._pf_last_issue + gap)
        self._pf_last_issue = issue
        if issue > now:
            self._pf_queue.append(issue)
            if issue < self._next_expiry:
                self._next_expiry = issue

        outcome = self.protocol.prefetch(self.node, addr, exclusive, issue)
        if outcome is None:
            self.prefetches_discarded += 1
            return _MK_PREFETCH((full_stall, True))

        self.prefetches_sent += 1
        if existing is not None:
            # Upgrade over an in-flight shared fetch: chain completion.
            # The old entry's heap slot stays behind; ``_expire`` checks
            # the live entry's own completion, so it never retires the
            # new miss early.
            self.mshr.retire(line)
        self._track_miss(
            OutstandingMiss(
                line=line,
                exclusive=exclusive,
                issue_time=issue,
                complete_time=outcome.retire,
                is_prefetch=True,
            )
        )
        # The returning fill locks the processor out of the primary cache.
        self.note_fill_arrival(outcome.retire)
        return _MK_PREFETCH((full_stall, False))

    # -- fill lockout -------------------------------------------------------------

    def note_fill_arrival(self, arrival: int) -> None:
        """Record a fill that will return while another context runs."""
        heappush(self._fill_arrivals, arrival)
        if arrival < self._next_fill:
            self._next_fill = arrival

    def consume_fill_stalls(self, now: int) -> int:
        """Number of pending fills that have arrived by ``now``, each
        consumed once; each locks the processor out of the primary
        cache for the fill time.  Callers on the hot path test
        ``_next_fill <= now`` first."""
        fills = self._fill_arrivals
        arrived = 0
        while fills and fills[0] <= now:
            heappop(fills)
            arrived += 1
        self._next_fill = fills[0] if fills else _NEVER
        return arrived

    # -- queries ------------------------------------------------------------------

    @property
    def write_buffer_occupancy(self) -> int:
        return len(self._wb_retires)
