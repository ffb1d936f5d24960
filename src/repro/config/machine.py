"""Machine configuration.

All architectural parameters of the simulated DASH-like machine live here,
including the Table 1 latencies of the paper, reproduced below (1 pclock =
30 ns on the 33 MHz R3000):

====================================================  =========
Read operations                                        pclocks
====================================================  =========
Hit in primary cache                                        1
Fill from secondary cache                                  14
Fill from local node                                       26
Fill from home node (home != local)                        72
Fill from remote node (remote != home != local)            90
Write operations (retire from write buffer)
Owned by secondary cache                                    2
Owned by local node                                        18
Owned in home node (home != local)                         64
Owned in remote node (remote != home != local)             82
====================================================  =========

The paper's processor environment: 16 nodes, one 33 MHz MIPS R3000 per
node, 64 KB write-through primary data cache, 256 KB write-back secondary
cache, both lockup-free, direct-mapped, 16-byte lines; a 16-entry write
buffer with read bypassing; 133 MB/s node bus and ~150 MB/s network links
per node.  For the scaled methodology of Section 2.3, the shared-data
caches shrink to 2 KB primary / 4 KB secondary.
"""

from __future__ import annotations

import dataclasses
import enum
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.faults.plan import FaultPlan


class Consistency(enum.Enum):
    """Memory consistency model (Section 4).

    The paper evaluates SC and RC and notes that processor consistency,
    weak consistency, and DRF0 "fall between sequential and release
    consistency models in terms of flexibility"; PC and WC are provided
    here so that claim can be measured (see
    ``benchmarks/bench_consistency_models.py``).
    """

    SC = "sc"   # sequential consistency: stall on every access
    PC = "pc"   # processor consistency: FIFO write buffer, no fences
    WC = "wc"   # weak consistency: fences at *all* synchronization ops
    RC = "rc"   # release consistency: fences at releases only


class PlacementPolicy(enum.Enum):
    """Default placement for pages not explicitly homed (Section 2.3)."""

    ROUND_ROBIN = "round_robin"
    LOCAL = "local"
    SINGLE_NODE = "single_node"


@dataclass(frozen=True)
class LatencyTable:
    """Uncontended service latencies of Table 1, in pclocks.

    Writes are the time to *retire* the request from the write buffer,
    i.e. acquire exclusive ownership; invalidation acknowledgements may
    arrive later (``invalidation_ack_*``) and only gate release fences.
    """

    read_primary_hit: int = 1
    read_fill_secondary: int = 14
    read_fill_local: int = 26
    read_fill_home: int = 72
    read_fill_remote: int = 90

    write_owned_secondary: int = 2
    write_owned_local: int = 18
    write_owned_home: int = 64
    write_owned_remote: int = 82

    #: Extra pclocks until invalidation acknowledgements from sharers on
    #: the local node / a remote node are collected, beyond retire time
    #: (the ack overlaps the ownership reply, costing roughly one
    #: network traversal plus a directory pass beyond it).
    invalidation_ack_local: int = 8
    invalidation_ack_remote: int = 24

    #: Latency seen by uncached (cache-bypassing) shared accesses is five
    #: to ten cycles below the cached fill latencies (Section 3), because
    #: the fill overhead disappears.
    uncached_discount: int = 8

    def read_ladder(self):
        """The read latencies ordered by distance, as ``(field, value)``
        pairs — the analytic ladder ``validate`` enforces and the static
        envelope analyzer walks."""
        return (
            ("read_primary_hit", self.read_primary_hit),
            ("read_fill_secondary", self.read_fill_secondary),
            ("read_fill_local", self.read_fill_local),
            ("read_fill_home", self.read_fill_home),
            ("read_fill_remote", self.read_fill_remote),
        )

    def write_ladder(self):
        """The write (retire) latencies ordered by distance."""
        return (
            ("write_owned_secondary", self.write_owned_secondary),
            ("write_owned_local", self.write_owned_local),
            ("write_owned_home", self.write_owned_home),
            ("write_owned_remote", self.write_owned_remote),
        )

    def validate(self) -> None:
        ordered_reads = (
            self.read_primary_hit,
            self.read_fill_secondary,
            self.read_fill_local,
            self.read_fill_home,
            self.read_fill_remote,
        )
        if list(ordered_reads) != sorted(ordered_reads):
            raise ValueError("read latencies must be nondecreasing with distance")
        ordered_writes = (
            self.write_owned_secondary,
            self.write_owned_local,
            self.write_owned_home,
            self.write_owned_remote,
        )
        if list(ordered_writes) != sorted(ordered_writes):
            raise ValueError("write latencies must be nondecreasing with distance")
        if self.uncached_discount < 0:
            raise ValueError("uncached_discount must be nonnegative")
        if min(ordered_reads + ordered_writes) <= 0:
            raise ValueError("latencies must be positive")


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache level.

    DASH's caches are direct-mapped (``ways=1``, the default and the
    configuration used for every paper experiment); higher associativity
    is available for the interference ablations.
    """

    size_bytes: int
    line_bytes: int = 16
    ways: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.ways <= 0:
            raise ValueError("associativity must be positive")
        if self.num_lines % self.ways:
            raise ValueError("line count must be a multiple of the ways")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class ContentionConfig:
    """Occupancies charged on shared resources per transaction.

    Derived from the paper's bandwidths: the node bus moves 133 MB/s
    (= 4 bytes/pclock at 30 ns), so a 16-byte line + header occupies the
    bus for ~5 pclocks; network links move ~150 MB/s (~4.5 bytes/pclock),
    so a line-carrying message occupies a link for ~6 pclocks and a
    header-only message ~2.
    """

    bus_occupancy_data: int = 5
    bus_occupancy_header: int = 2
    link_occupancy_data: int = 6
    link_occupancy_header: int = 2
    directory_occupancy: int = 6
    memory_occupancy: int = 8

    #: Set false to disable contention modelling entirely (Table 1 probes).
    enabled: bool = True


@dataclass(frozen=True)
class MachineConfig:
    """Complete configuration of the simulated multiprocessor."""

    num_processors: int = 16
    contexts_per_processor: int = 1
    context_switch_cycles: int = 4

    consistency: Consistency = Consistency.SC
    caching_shared_data: bool = True

    #: Coherence protocol, by registry name
    #: (:func:`repro.coherence.specs.get_spec`): ``"directory-msi"``
    #: (the paper's protocol, the default), ``"mesi"`` (clean-exclusive
    #: state with silent E -> M upgrades), or ``"moesi"`` (statically
    #: verified only; the runtime rejects it until dirty sharing is
    #: implemented).  Non-default protocols change which transitions
    #: fire, so the field participates in config fingerprinting.
    protocol: str = "directory-msi"

    #: Enable the coherence invariant sanitizer (``repro.analysis``):
    #: every protocol transaction is followed by SWMR / directory
    #: precision / buffer-bound checks, and violations raise
    #: :class:`~repro.sim.engine.SimulationError` with a transition
    #: trace.  Off by default — it costs roughly an order of magnitude
    #: in simulation speed.
    sanitize: bool = False

    #: Record an append-only per-run memory-event trace (reads, writes,
    #: acquires, releases with issue/perform/complete times) for the
    #: offline axiomatic conformance checker
    #: (``repro.analysis.tracecheck``).  Off by default: with the flag
    #: off no recorder is installed anywhere, so default runs are
    #: bit-identical to builds without the tracing subsystem.
    trace_memory_events: bool = False

    #: Master seed for the run: mixed into the fault plan's random
    #: stream so ``--seed`` reproduces an injection schedule exactly.
    #: The simulator itself is deterministic with or without it.
    seed: int = 0

    #: Override of the event engine's livelock guard
    #: (:data:`~repro.sim.engine.DEFAULT_EVENT_LIMIT` when ``None``).
    max_events: Optional[int] = None

    #: Event-calendar implementation: ``"heap"`` (the reference binary
    #: heap; the default, and the faster backend on measured runs) or
    #: ``"wheel"`` (the indexed event wheel, bit-identical but slower
    #: on medium-scale runs; see ``repro.sim.wheel``).  Timing-neutral
    #: by construction — the two backends fire the same events in the
    #: same order — so the field is excluded from canonical result
    #: encoding and cache fingerprints.  The default honours
    #: ``REPRO_ENGINE_BACKEND`` so CI can run whole suites per backend
    #: without plumbing a flag.
    engine_backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_ENGINE_BACKEND", "heap")
    )

    #: Message-fault injection plan (``repro.faults``).  ``None`` or an
    #: empty plan installs no fault layer at all, which keeps fault-free
    #: runs bit-identical to builds without the faults subsystem.
    fault_plan: Optional["FaultPlan"] = None

    primary_cache: CacheGeometry = CacheGeometry(size_bytes=2 * 1024)
    secondary_cache: CacheGeometry = CacheGeometry(size_bytes=4 * 1024)

    write_buffer_depth: int = 16
    prefetch_buffer_depth: int = 16
    #: Reads may bypass buffered writes to other addresses (the paper's
    #: write buffer has "read bypassing").  The consistency model must
    #: also permit it (``ConsistencyPolicy.reads_bypass_writes``); set
    #: false to ablate bypassing under PC/WC/RC — litmus verdicts must
    #: not change, only timing.
    write_buffer_bypass: bool = True
    #: Maximum write misses the lockup-free secondary cache keeps in
    #: flight simultaneously (pipelining of writes under RC).
    max_outstanding_writes: int = 8

    #: Placement-unit size.  The scaled default is 512 bytes rather than
    #: DASH's 4 KB: the paper scales data sets down ~10x (Section 2.3),
    #: and keeping 4 KB pages would collapse whole shared arrays onto a
    #: single home node — a hot spot the full-size data sets do not
    #: have.  ``dash_full_config`` restores 4 KB pages.
    page_bytes: int = 512
    placement: PlacementPolicy = PlacementPolicy.ROUND_ROBIN

    latency: LatencyTable = LatencyTable()
    contention: ContentionConfig = ContentionConfig()

    #: Cycles the processor is locked out of the primary cache while a
    #: prefetched line is filled (four-word line => 4 cycles, Section 5.1).
    prefetch_fill_stall: int = 4
    #: Instruction overhead charged per issued prefetch (address
    #: computation, predicate, and the prefetch instruction itself).
    prefetch_issue_cycles: int = 2

    #: Write hits in the secondary cache stall the processor two cycles
    #: under SC (Section 6.1, "no switch" idle discussion).
    sc_write_hit_stall: int = 2

    #: Minimum stall, in cycles, that a multiple-context processor treats
    #: as a long-latency operation worth a context switch.  Shorter
    #: stalls (secondary-cache write hits, primary fill lockouts) show up
    #: as "no switch" idle time in Figure 5.
    switch_min_stall_cycles: int = 10

    def __post_init__(self) -> None:
        if self.num_processors <= 0:
            raise ValueError("need at least one processor")
        if self.contexts_per_processor <= 0:
            raise ValueError("need at least one context per processor")
        if self.context_switch_cycles < 0:
            raise ValueError("context switch overhead must be nonnegative")
        if self.write_buffer_depth <= 0 or self.prefetch_buffer_depth <= 0:
            raise ValueError("buffer depths must be positive")
        if self.max_outstanding_writes <= 0:
            raise ValueError("max_outstanding_writes must be positive")
        if self.primary_cache.line_bytes != self.secondary_cache.line_bytes:
            raise ValueError("primary/secondary line sizes must match")
        if self.page_bytes % self.primary_cache.line_bytes:
            raise ValueError("page size must be a multiple of the line size")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.engine_backend not in ("heap", "wheel"):
            raise ValueError(
                f"engine_backend must be 'heap' or 'wheel', "
                f"got {self.engine_backend!r}"
            )
        from repro.coherence.specs import spec_names

        if self.protocol not in spec_names():
            raise ValueError(
                f"unknown protocol {self.protocol!r}; registered specs: "
                f"{', '.join(spec_names())}"
            )
        if self.fault_plan is not None:
            from repro.faults.plan import FaultPlan

            if not isinstance(self.fault_plan, FaultPlan):
                raise TypeError(
                    f"fault_plan must be a FaultPlan, got "
                    f"{type(self.fault_plan).__name__}"
                )
        self.latency.validate()

    @property
    def line_bytes(self) -> int:
        return self.primary_cache.line_bytes

    @property
    def total_contexts(self) -> int:
        return self.num_processors * self.contexts_per_processor

    def replace(self, **changes) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def dash_scaled_config(**changes) -> MachineConfig:
    """The paper's main configuration: 16 processors, scaled 2KB/4KB
    shared-data caches (Section 2.3)."""
    return MachineConfig().replace(**changes)


def dash_full_config(**changes) -> MachineConfig:
    """The full-size DASH cache configuration: 64KB primary / 256KB
    secondary (used for the paper's cache-size sensitivity check)."""
    config = MachineConfig(
        primary_cache=CacheGeometry(size_bytes=64 * 1024),
        secondary_cache=CacheGeometry(size_bytes=256 * 1024),
        page_bytes=4096,
    )
    return config.replace(**changes)
