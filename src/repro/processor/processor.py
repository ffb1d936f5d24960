"""The multiple-context processor model.

Each processor executes its resident contexts' operation streams,
charging every pclock to an accounting bucket.  Reads are blocking
(Section 4.1).  With multiple contexts, a long-latency operation (a
stall of at least ``switch_min_stall_cycles``) triggers a context switch
costing ``context_switch_cycles``; shorter stalls are taken in place and
accounted as "no switch" idle.  When every context is blocked the
processor sits "all idle" until the earliest known wake-up, or parks
until a synchronization grant arrives.

The execution loop is *inline-first*: between shared accesses the
processor runs ahead on busy cycles without touching the event calendar,
and it resumes its thread generator only when no other event in the
system could fire earlier (``engine.next_time >= self.time``), which
preserves a correct interleaving of accesses exactly as the
Tango-coupled simulator of the paper does.

The loop is the single hottest function in the simulator, so its common
cases are written flat: the clock and current run length live in locals
(written back to ``self`` at every call boundary), cycle charges go into
a packed per-slot list (:data:`~repro.processor.accounting.BUCKET_SLOT`),
the thread generator is resumed with a bare ``next()``, and the
read/write/busy opcodes and their short-stall handling are inline.
:attr:`Processor.breakdown` materializes the packed counters back into a
:class:`~repro.processor.accounting.TimeBreakdown`, so every external
observer sees the same accounting as before.

The inline read and SC write probes serve cache hits straight from the
protocol's packed arrays, with the protocol's own counter bumps,
latencies and spec-derived next states.  They are live only when no
observer is attached to the protocol and no trace is installed; the
prologue of ``_loop`` decides this once, since both attach before
``Machine.run``.  Otherwise every access goes through the memory
interface to the protocol's entry points, where observers see it.

``_loop`` is a generator, and a continuation event is the bound
``__next__`` of its one live instance: each event resumes the suspended
frame, whose locals already hold the stable state bound once in the
prologue, so a resume re-derives only the clock and the run length.
This is safe because at most one continuation is ever pending per
processor and none ever runs inside another: ``_loop`` queues one only
just before it yields, and a parked processor (the only state in which
a grant schedules a continuation) has none pending by construction.  A
finished processor stays suspended at its last ``yield`` and is never
resumed.

When another event is due before the processor's clock, the loop
re-queues its continuation with one ``heappush(queue, (time, next(seq),
loop_cb))`` straight into the engine's heap and shared tie-break
counter instead of calling ``engine.schedule``; the engine's module
docstring gives the argument that the two are equivalent there.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.caches import LineState
from repro.coherence.protocol import AccessClass
from repro.config import MachineConfig
from repro.consistency import ConsistencyPolicy
from repro.processor.accounting import (
    BUCKET_LIST,
    BUCKET_SLOT,
    Bucket,
    TimeBreakdown,
)
from repro.processor.context import Context, ContextState
from repro.sim.engine import EventEngine
from repro.sync import BarrierManager, FlagManager, LockManager
from repro.tango import ops as O

if TYPE_CHECKING:  # avoid a circular import with repro.system
    from repro.system.memiface import NodeMemoryInterface

# Hot-loop constants: opcode and bucket-slot aliases resolved once at
# import time so the dispatch below is int compares and list indexing.
_OP_BUSY = O.BUSY
_OP_READ = O.READ
_OP_WRITE = O.WRITE
_READY = ContextState.READY
_RUNNING = ContextState.RUNNING
_BLOCKED = ContextState.BLOCKED
_DONE = ContextState.DONE
_SLOT_BUSY = BUCKET_SLOT[Bucket.BUSY]
_SLOT_READ_STALL = BUCKET_SLOT[Bucket.READ_STALL]
_SLOT_WRITE_STALL = BUCKET_SLOT[Bucket.WRITE_STALL]
_SLOT_SYNC_STALL = BUCKET_SLOT[Bucket.SYNC_STALL]
_SLOT_PREFETCH = BUCKET_SLOT[Bucket.PREFETCH_OVERHEAD]
_SLOT_SWITCH = BUCKET_SLOT[Bucket.SWITCH]
_SLOT_ALL_IDLE = BUCKET_SLOT[Bucket.ALL_IDLE]
_SLOT_NO_SWITCH = BUCKET_SLOT[Bucket.NO_SWITCH]
_READ_STALL = Bucket.READ_STALL
_WRITE_STALL = Bucket.WRITE_STALL
_PRIMARY_HIT = AccessClass.PRIMARY_HIT
_SECONDARY_HIT = AccessClass.SECONDARY_HIT


class Processor:
    """One processing node's CPU with ``contexts_per_processor`` contexts."""

    __slots__ = (
        "engine",
        "config",
        "node_id",
        "memiface",
        "policy",
        "locks",
        "flags",
        "barriers",
        "trace",
        "contexts",
        "time",
        "_bucket_cycles",
        "finished",
        "finish_time",
        "_active",
        "_last_dispatched",
        "_live_count",
        "_parked",
        "_loop_cb",
        "_switch_cycles",
        "_switch_threshold",
        "_multi",
        "_fill_stall",
        "shared_reads",
        "shared_writes",
        "prefetches",
        "lock_ops",
        "flag_waits",
        "barrier_crossings",
        "prefetch_partial_hits",
        "context_switches",
        "run_lengths",
        "_current_run",
    )

    def __init__(
        self,
        engine: EventEngine,
        config: MachineConfig,
        node_id: int,
        memiface: "NodeMemoryInterface",
        policy: ConsistencyPolicy,
        locks: LockManager,
        flags: FlagManager,
        barriers: BarrierManager,
    ) -> None:
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.memiface = memiface
        self.policy = policy
        self.locks = locks
        self.flags = flags
        self.barriers = barriers

        #: Memory-event trace recorder; installed by the machine when
        #: ``MachineConfig.trace_memory_events`` is set, else ``None``.
        self.trace = None

        self.contexts: List[Context] = []
        self.time = 0
        #: Packed cycle accounting, indexed by bucket slot; the
        #: :attr:`breakdown` property materializes the classic view.
        self._bucket_cycles = [0] * len(BUCKET_LIST)
        self.finished = False
        self.finish_time: Optional[int] = None

        self._active = 0
        self._last_dispatched: Optional[int] = None
        self._live_count = 0
        self._parked = False
        #: The continuation callback: resumes the suspended ``_loop``
        #: frame (see module docstring).  The generator's body first
        #: runs at the first continuation event, not here.
        self._loop_cb = self._loop().__next__

        self._switch_cycles = config.context_switch_cycles
        self._switch_threshold = config.switch_min_stall_cycles
        self._multi = config.contexts_per_processor > 1
        self._fill_stall = config.prefetch_fill_stall

        # Operation counters (Table 2 and coverage statistics).
        self.shared_reads = 0
        self.shared_writes = 0
        self.prefetches = 0
        self.lock_ops = 0
        self.flag_waits = 0
        self.barrier_crossings = 0
        self.prefetch_partial_hits = 0
        self.context_switches = 0
        # Run-length statistics: busy cycles executed between successive
        # long-latency operations (the paper quotes median run lengths
        # of 11/6/7 cycles for MP3D/LU/PTHOR under cached SC).
        self.run_lengths: List[int] = []
        self._current_run = 0

    # -- setup -----------------------------------------------------------

    def attach(self, context: Context) -> None:
        self.contexts.append(context)
        self._live_count += 1

    def start(self) -> None:
        if not self.contexts:
            raise RuntimeError(f"processor {self.node_id} has no contexts")
        self._schedule_continue(0)

    # -- accounting ------------------------------------------------------

    @property
    def breakdown(self) -> TimeBreakdown:
        """Cycle accounting, materialized from the packed slot counters."""
        cycles = self._bucket_cycles
        return TimeBreakdown(
            cycles={bucket: cycles[slot] for slot, bucket in enumerate(BUCKET_LIST)}
        )

    # -- scheduling plumbing -----------------------------------------------

    def _schedule_continue(self, at: int) -> None:
        self.engine.schedule(at, self._loop_cb)

    def _advance(self, cycles: int, slot: int) -> None:
        if cycles:
            if cycles < 0:
                raise ValueError(f"negative time {cycles} for {BUCKET_LIST[slot]}")
            self._bucket_cycles[slot] += cycles
            self.time += cycles
            if slot == _SLOT_BUSY:
                self._current_run += cycles

    # -- the execution loop ----------------------------------------------------

    def _loop(self) -> Iterator[None]:
        """The continuation: a generator resumed once per event.

        The prologue runs once, at the first continuation (after every
        observer and trace is attached): it binds the stable state —
        aliased containers mutated in place and never rebound, scalars
        from the frozen config, and whether the inline probes are live —
        into frame locals.  Each resume then re-derives only the clock,
        the run length and the running context.
        """
        engine = self.engine
        # The calendar's heap and its shared tie-break counter: a
        # continuation re-queues itself with one C-level push.
        queue = engine._queue
        seq = engine._seq
        memiface = self.memiface
        contexts = self.contexts
        cycles = self._bucket_cycles
        multi = self._multi
        threshold = self._switch_threshold
        run_lengths = self.run_lengths
        fill_stall = self._fill_stall
        loop_cb = self._loop_cb
        trace = self.trace
        # Packed-probe state, decided once (see the module docstring);
        # ``ptags``/``stags`` of None switch the probes off.
        protocol = memiface.protocol
        ptags = stags = None
        misses = wb_lines = pstates = pstats = reads = None
        sstates = sstats = writes = stats = write_next = None
        line_bytes = pri_sets = lat_rph = sec_sets = lat_wos = 0
        if (
            protocol._fast
            and not protocol._observers
            and trace is None
            and memiface.trace is None
            and protocol.trace is None
        ):
            finfo = protocol._fast_info[self.node_id]
            ptags, pstates, pstats = finfo[0], finfo[1], finfo[2]
            misses = memiface._misses
            wb_lines = memiface._wb_lines
            stats = protocol.stats
            reads = stats.reads_by_class
            line_bytes = protocol._line_bytes
            pri_sets = protocol._pri_sets
            lat_rph = protocol._lat_read_primary_hit
            if memiface.policy.write_stalls_processor:
                # SC only: RC writes always take the write buffer.
                # ``write_next`` maps a raw state to its write hit's next
                # state, None where the rule does not fill from cache
                # (``protocol.write`` raises for those) or is no hit.
                stags, sstates, sstats = finfo[3], finfo[4], finfo[5]
                writes = stats.writes_by_class
                sec_sets = protocol._sec_sets
                lat_wos = protocol._lat_write_owned_secondary
                write_next = [None] * len(LineState)
                for state, fills in protocol._write_hit_fills.items():
                    if fills:
                        write_next[state] = protocol._write_hit_next_by_int[state]
        while True:
            # One continuation per pass.  The clock (`time`) and current
            # run length (`run`) live in locals; every call that can
            # observe or mutate them goes through an explicit
            # write-back/reload pair, and every exit from the inner loop
            # writes them back before the frame yields.
            time = self.time
            run = self._current_run
            ctx = contexts[self._active]
            while True:
                if ctx.state is not _RUNNING:
                    self.time = time
                    self._current_run = run
                    ctx = self._ensure_running()
                    if ctx is None:
                        break  # parked (a grant resumes it) or finished
                    time = self.time
                    run = self._current_run
                if engine.next_time < time:
                    self.time = time
                    self._current_run = run
                    heappush(queue, (time, next(seq), loop_cb))
                    break
                # Fill lockout: one scalar compare against the earliest
                # pending arrival; the call happens only once one is due.
                if memiface._next_fill <= time:
                    fills = memiface.consume_fill_stalls(time)
                    slot = _SLOT_NO_SWITCH if multi else _SLOT_PREFETCH
                    charge = fills * fill_stall
                    cycles[slot] += charge
                    time += charge
                try:
                    op = next(ctx.thread)
                except StopIteration:
                    ctx.state = _DONE
                    self._live_count -= 1
                    if self._live_count == 0:
                        self.finished = True
                        self.time = time
                        self._current_run = run
                        self.finish_time = time
                        break
                    continue
                ctx.ops_executed += 1
                code = op[0]
                if code == _OP_READ:
                    self.shared_reads += 1
                    addr = op[1]
                    ready = None
                    if ptags is not None:
                        # A tag match is a primary hit, served with the
                        # identical counter bumps and latency as
                        # ``protocol.read`` — provided *this line* has no
                        # in-flight miss to combine with and no buffered
                        # store to forward from (other lines' entries are
                        # irrelevant to a hit).  Pending retire/queue
                        # timestamps don't affect a hit, and their expiry
                        # is observation-independent, so it can wait for
                        # the next memory-interface access.
                        line = addr - addr % line_bytes
                        index = (line // line_bytes) % pri_sets
                        if (
                            ptags[index] == line
                            and pstates[index]
                            and line not in misses
                            and line not in wb_lines
                        ):
                            pstats.hits += 1
                            reads[_PRIMARY_HIT] = reads.get(_PRIMARY_HIT, 0) + 1
                            ready = time + lat_rph
                    if ready is None:
                        if trace is not None:
                            trace.begin_op(ctx.process_id, ctx.ops_executed - 1)
                        result = memiface.read(addr, time)
                        if result[2]:
                            self.prefetch_partial_hits += 1
                        ready = result[0]
                    cycles[_SLOT_BUSY] += 1
                    time += 1
                    run += 1
                    if ready > time:
                        stall = ready - time
                        if stall >= threshold:
                            # A long-latency operation ends the current run.
                            run_lengths.append(run)
                            run = 0
                        if not multi:
                            cycles[_SLOT_READ_STALL] += stall
                            time = ready
                        elif stall < threshold:
                            cycles[_SLOT_NO_SWITCH] += stall
                            time = ready
                        else:
                            self.time = time
                            self._current_run = run
                            ctx.block_until(ready, _READ_STALL, time)
                            # The returning fill will lock the processor out
                            # of the primary cache while another context runs.
                            memiface.note_fill_arrival(ready)
                elif code == _OP_BUSY:
                    work = op[1]
                    if work:
                        cycles[_SLOT_BUSY] += work
                        time += work
                        run += work
                elif code == _OP_WRITE:
                    self.shared_writes += 1
                    addr = op[1]
                    ready = None
                    if stags is not None:
                        # Inline SC write hit: a locally owned secondary
                        # line never leaves the node, so the write retires
                        # with the identical state change, counter bumps
                        # and latency as ``protocol.write`` — expiry is
                        # observation-independent (see the read probe) and
                        # ``memiface.write`` consults no pending state on
                        # this path.
                        line = addr - addr % line_bytes
                        sindex = (line // line_bytes) % sec_sets
                        if (
                            stags[sindex] == line
                            and (state := write_next[sstates[sindex]]) is not None
                        ):
                            sstates[sindex] = state
                            sstats.hits += 1
                            stats.writes_total += 1
                            stats.writes_line_present += 1
                            pindex = (line // line_bytes) % pri_sets
                            if ptags[pindex] == line and pstates[pindex]:
                                pstates[pindex] = 1  # refresh write-through copy
                            writes[_SECONDARY_HIT] = writes.get(_SECONDARY_HIT, 0) + 1
                            ready = time + lat_wos
                    if ready is None:
                        if trace is not None:
                            trace.begin_op(ctx.process_id, ctx.ops_executed - 1)
                        ready = memiface.write(addr, time)[0]
                    cycles[_SLOT_BUSY] += 1
                    time += 1
                    run += 1
                    if ready > time:
                        stall = ready - time
                        if stall >= threshold:
                            run_lengths.append(run)
                            run = 0
                        if not multi:
                            cycles[_SLOT_WRITE_STALL] += stall
                            time = ready
                        elif stall < threshold:
                            cycles[_SLOT_NO_SWITCH] += stall
                            time = ready
                        else:
                            self.time = time
                            self._current_run = run
                            ctx.block_until(ready, _WRITE_STALL, time)
                else:
                    self.time = time
                    self._current_run = run
                    if code == O.PREFETCH:
                        self._op_prefetch(op[1], op[2])
                    elif code == O.LOCK:
                        self._op_lock(ctx, op[1])
                    elif code == O.UNLOCK:
                        self._op_unlock(ctx, op[1])
                    elif code == O.FLAG_WAIT:
                        self._op_flag_wait(ctx, op[1])
                    elif code == O.FLAG_SET:
                        self._op_flag_set(ctx, op[1])
                    elif code == O.BARRIER:
                        self._op_barrier(ctx, op[1], op[2])
                    else:
                        raise ValueError(f"unknown opcode {code}")
                    time = self.time
                    run = self._current_run
            yield

    def _ensure_running(self) -> Optional[Context]:
        """Return a RUNNING context at self.time, idling/switching as
        needed; None if the processor parked, rescheduled, or finished."""
        while True:
            active = self.contexts[self._active]
            if active.state is _RUNNING:
                return active

            chosen = self._pick_ready()
            if chosen is not None:
                if (
                    self._last_dispatched is not None
                    and chosen.index != self._last_dispatched
                ):
                    self._advance(self._switch_cycles, _SLOT_SWITCH)
                    self.context_switches += 1
                self._active = chosen.index
                self._last_dispatched = chosen.index
                chosen.state = _RUNNING
                return chosen

            # Nothing runnable now.  Find the earliest known wake time.
            wake = None
            for ctx in self.contexts:
                if ctx.state is _BLOCKED:
                    if wake is None or ctx.ready_time < wake:
                        wake = ctx.ready_time
            if wake is None:
                if self._live_count == 0:
                    self.finished = True
                    self.finish_time = self.time
                    return None
                # All live contexts await synchronization grants.
                self._parked = True
                return None
            # Idle straight to the earliest known wake-up.  A grant
            # arriving inside the window resumes at `wake` (its callback
            # clamps to self.time) — a bounded skew of at most one miss
            # latency, which keeps the scheduler free of same-time
            # event ping-pong between idle processors.
            self._advance(wake - self.time, self._idle_slot())

    def _idle_slot(self) -> int:
        if self._multi:
            return _SLOT_ALL_IDLE
        # Single context: attribute the wait to the blocking cause.
        return BUCKET_SLOT[self.contexts[self._active].block_cause]

    def _pick_ready(self) -> Optional[Context]:
        """Round-robin scan for a runnable context, starting after the
        most recently dispatched one."""
        contexts = self.contexts
        n = len(contexts)
        start = (self._active + 1) % n if self._last_dispatched is not None else 0
        now = self.time
        for offset in range(n):
            ctx = contexts[(start + offset) % n]
            state = ctx.state
            if state is _READY or (state is _BLOCKED and ctx.ready_time <= now):
                return ctx
        return None

    # -- stall handling ----------------------------------------------------------

    def _stall_or_switch(self, ctx: Context, ready: int, slot: int) -> None:
        stall = ready - self.time
        if stall <= 0:
            return
        if stall >= self._switch_threshold:
            # A long-latency operation ends the current run.
            self.run_lengths.append(self._current_run)
            self._current_run = 0
        if not self._multi:
            self._advance(stall, slot)
            return
        if stall < self._switch_threshold:
            self._advance(stall, _SLOT_NO_SWITCH)
            return
        ctx.block_until(ready, BUCKET_LIST[slot], self.time)
        if slot == _SLOT_READ_STALL:
            # The returning fill will lock the processor out of the
            # primary cache while another context runs.
            self.memiface.note_fill_arrival(ready)

    # -- operations --------------------------------------------------------------

    def _op_prefetch(self, addr: int, exclusive: bool) -> None:
        self.prefetches += 1
        result = self.memiface.prefetch(addr, exclusive, self.time)
        self._advance(
            self.config.prefetch_issue_cycles + result.buffer_full_stall,
            _SLOT_PREFETCH,
        )

    def _acquire_fence(self, ctx: Context) -> None:
        """WC: synchronization is a two-way fence — the acquire may not
        issue until every earlier write has completed."""
        if self.policy.acquire_requires_completion:
            fence = self.memiface.release_point(self.time)
            if fence > self.time:
                self._advance(fence - self.time, _SLOT_SYNC_STALL)

    def _op_lock(self, ctx: Context, addr: int) -> None:
        self.lock_ops += 1
        self._acquire_fence(ctx)
        on_grant = self._granter(ctx)
        event = None
        if self.trace is not None:
            event = self.trace.record_acquire(
                ctx.process_id, ctx.ops_executed - 1, self.node_id, addr,
                self.time, sync="lock",
            )
            on_grant = self.trace.wrap_grant(event, on_grant)
        grant = self.locks.acquire(addr, self.node_id, self.time, on_grant)
        self._advance(1, _SLOT_BUSY)
        if grant is not None:
            if event is not None:
                event.perform = grant
                event.complete = grant
            self._stall_or_switch(ctx, grant, _SLOT_SYNC_STALL)
        else:
            ctx.block_on_sync(self.time)

    def _op_unlock(self, ctx: Context, addr: int) -> None:
        fence = max(self.memiface.release_point(self.time), self.time)
        visible = self.locks.release(addr, self.node_id, fence)
        if self.trace is not None:
            self.trace.record_release(
                ctx.process_id, ctx.ops_executed - 1, self.node_id, addr,
                self.time, fence=fence, perform=visible, sync="lock",
            )
        self._advance(1, _SLOT_BUSY)
        if self.policy.write_stalls_processor:
            self._stall_or_switch(ctx, visible, _SLOT_SYNC_STALL)

    def _op_flag_wait(self, ctx: Context, addr: int) -> None:
        self.flag_waits += 1
        self._acquire_fence(ctx)
        on_grant = self._granter(ctx)
        event = None
        if self.trace is not None:
            event = self.trace.record_acquire(
                ctx.process_id, ctx.ops_executed - 1, self.node_id, addr,
                self.time, sync="flag",
            )
            on_grant = self.trace.wrap_grant(event, on_grant)
        grant = self.flags.wait(addr, self.node_id, self.time, on_grant)
        self._advance(1, _SLOT_BUSY)
        if grant is not None:
            if event is not None:
                event.perform = grant
                event.complete = grant
            self._stall_or_switch(ctx, grant, _SLOT_SYNC_STALL)
        else:
            ctx.block_on_sync(self.time)

    def _op_flag_set(self, ctx: Context, addr: int) -> None:
        fence = max(self.memiface.release_point(self.time), self.time)
        visible = self.flags.set(addr, self.node_id, fence)
        if self.trace is not None:
            self.trace.record_release(
                ctx.process_id, ctx.ops_executed - 1, self.node_id, addr,
                self.time, fence=fence, perform=visible, sync="flag",
            )
        self._advance(1, _SLOT_BUSY)
        if self.policy.write_stalls_processor:
            self._stall_or_switch(ctx, visible, _SLOT_SYNC_STALL)

    def _op_barrier(self, ctx: Context, addr: int, participants: int) -> None:
        self.barrier_crossings += 1
        self._acquire_fence(ctx)
        fence = max(self.memiface.release_point(self.time), self.time)
        on_grant = self._granter(ctx)
        if self.trace is not None:
            self.trace.record_release(
                ctx.process_id, ctx.ops_executed - 1, self.node_id, addr,
                self.time, fence=fence, perform=fence, sync="barrier",
                participants=participants,
            )
            event = self.trace.record_acquire(
                ctx.process_id, ctx.ops_executed - 1, self.node_id, addr,
                self.time, sync="barrier", participants=participants,
            )
            on_grant = self.trace.wrap_grant(event, on_grant)
        self.barriers.arrive(
            addr, participants, self.node_id, fence, on_grant
        )
        self._advance(1, _SLOT_BUSY)
        ctx.block_on_sync(self.time)

    # -- synchronization grants --------------------------------------------------

    def _granter(self, ctx: Context) -> Callable[[int], None]:
        # The closure is identical for every sync operation of a given
        # context, so it is built once and cached on the context.
        cached = ctx.on_grant
        if cached is None:

            def on_grant(grant_time: int) -> None:
                ctx.grant(max(grant_time, self.time))
                if self._parked:
                    self._parked = False
                    self._schedule_continue(max(grant_time, self.time))

            ctx.on_grant = cached = on_grant
        return cached
