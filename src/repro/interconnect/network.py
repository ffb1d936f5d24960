"""Node bus and interconnection network contention model.

Each node owns three queued resources: its node bus (133 MB/s in DASH,
~4 bytes/pclock), and its network input and output links (~150 MB/s,
~4.5 bytes/pclock).  Coherence transactions charge occupancy on the
resources along their path; the *queuing delay* accumulated (time spent
waiting for each resource to become free) is added to the Table 1 base
latency of the transaction.  Occupancies themselves are considered part
of the base latency, so an unloaded machine reproduces Table 1 exactly.

The network itself is treated as a low-latency scalable fabric whose
transit time is folded into the Table 1 numbers; per-node links are the
bandwidth bottleneck, which is the first-order contention effect (e.g.
the hot-spotting the paper observed when LU prefetched whole columns in
a burst).
"""

from __future__ import annotations

import enum
from typing import List

from repro.config import ContentionConfig
from repro.sim.resource import QueuedResource


class ChargeKind(enum.Enum):
    """The four queued-resource kinds a transaction can charge.

    Shared between the runtime charge methods below and the static
    envelope analyzer (``repro.analysis.latbound``), so the analyzer's
    occupancy model cannot drift from the simulator's.
    """

    BUS = "bus"
    LINK = "link"
    DIRECTORY = "directory"
    MEMORY = "memory"


def occupancy_of(
    contention: ContentionConfig, kind: ChargeKind, data: bool
) -> int:
    """The occupancy one charge of ``kind`` holds its resource for —
    exactly what the ``charge_*`` methods pass to ``QueuedResource``."""
    if kind is ChargeKind.BUS:
        return (
            contention.bus_occupancy_data
            if data
            else contention.bus_occupancy_header
        )
    if kind is ChargeKind.LINK:
        return (
            contention.link_occupancy_data
            if data
            else contention.link_occupancy_header
        )
    if kind is ChargeKind.DIRECTORY:
        return contention.directory_occupancy
    return contention.memory_occupancy


def max_occupancy(contention: ContentionConfig, kind: ChargeKind) -> int:
    """The largest occupancy any single charge of ``kind`` can hold."""
    return max(
        occupancy_of(contention, kind, data=True),
        occupancy_of(contention, kind, data=False),
    )


def stations_per_charge(kind: ChargeKind) -> int:
    """How many distinct queued resources one charge of ``kind`` waits
    on: ``charge_hop`` serializes through a source ``link_out`` *and* a
    destination ``link_in``; every other kind is a single resource."""
    return 2 if kind is ChargeKind.LINK else 1


def max_charges_per_transaction(kind: ChargeKind) -> int:
    """How many times a single transaction can charge one *specific*
    resource of ``kind``: a remote fill crosses the requester's bus
    twice (request out, data in); no path revisits a link, directory,
    or memory unit."""
    return 2 if kind is ChargeKind.BUS else 1


class NodeLinks:
    """The contended resources belonging to one node."""

    __slots__ = ("bus", "link_in", "link_out", "directory_ctl", "memory")

    def __init__(self, node_id: int) -> None:
        self.bus = QueuedResource(f"node{node_id}.bus")
        self.link_in = QueuedResource(f"node{node_id}.link_in")
        self.link_out = QueuedResource(f"node{node_id}.link_out")
        self.directory_ctl = QueuedResource(f"node{node_id}.directory")
        self.memory = QueuedResource(f"node{node_id}.memory")


class Interconnect:
    """Per-node buses and links, plus path-charging helpers.

    Two parallel resource chains exist per node: the *demand* chain used
    by processor-blocking traffic (reads, SC writes, prefetch fetches),
    and a *background* chain used by write-buffer drains and eviction
    write-backs.  DASH gives demand reads priority over buffered writes
    (reads bypass the write buffer, and the bus arbiter favours them),
    so background traffic serializes against itself without inflating
    demand-read queuing.
    """

    def __init__(self, num_nodes: int, contention: ContentionConfig) -> None:
        self.num_nodes = num_nodes
        self.contention = contention
        self.nodes: List[NodeLinks] = [NodeLinks(i) for i in range(num_nodes)]
        self.background: List[NodeLinks] = [
            NodeLinks(i) for i in range(num_nodes)
        ]
        for links in self.background:
            for resource in (
                links.bus,
                links.link_in,
                links.link_out,
                links.directory_ctl,
                links.memory,
            ):
                resource.name = "bg." + resource.name
        # Hot-path scalars (the contention config is frozen; hoisted
        # once).  The charge methods below update the queued resources'
        # bookkeeping inline — one attribute probe per resource instead
        # of a method call per charge — with semantics identical to
        # ``QueuedResource.acquire``.
        self._enabled = contention.enabled
        self._bus_data = contention.bus_occupancy_data
        self._bus_header = contention.bus_occupancy_header
        self._link_data = contention.link_occupancy_data
        self._link_header = contention.link_occupancy_header
        self._directory_occupancy = contention.directory_occupancy
        self._memory_occupancy = contention.memory_occupancy

    def _links(self, node: int, background: bool) -> NodeLinks:
        return self.background[node] if background else self.nodes[node]

    # Every charge method returns the *queuing delay* experienced (0 when
    # the resource chain is idle), not the service completion time.

    def _charge(self, resource: QueuedResource, time: int, occupancy: int) -> int:
        if not self._enabled:
            return 0
        start = time if time > resource._next_free else resource._next_free
        resource._next_free = start + occupancy
        resource._busy_total += occupancy
        resource._transactions += 1
        return start - time

    def charge_bus(
        self, node: int, time: int, data: bool, background: bool = False
    ) -> int:
        if not self._enabled:
            return 0
        occupancy = self._bus_data if data else self._bus_header
        bus = (self.background[node] if background else self.nodes[node]).bus
        start = time if time > bus._next_free else bus._next_free
        bus._next_free = start + occupancy
        bus._busy_total += occupancy
        bus._transactions += 1
        return start - time

    def charge_hop(
        self, src: int, dst: int, time: int, data: bool, background: bool = False
    ) -> int:
        """Charge one network traversal ``src`` -> ``dst``: the source
        node's output link, then (once that is free) the destination
        node's input link."""
        if not self._enabled:
            return 0
        occupancy = self._link_data if data else self._link_header
        links = self.background if background else self.nodes
        out = links[src].link_out
        start = time if time > out._next_free else out._next_free
        out._next_free = start + occupancy
        out._busy_total += occupancy
        out._transactions += 1
        into = links[dst].link_in
        # The downstream link is requested at the upstream service start
        # (``time`` plus the upstream queuing delay).
        start2 = start if start > into._next_free else into._next_free
        into._next_free = start2 + occupancy
        into._busy_total += occupancy
        into._transactions += 1
        return start2 - time

    def charge_directory(
        self, node: int, time: int, background: bool = False
    ) -> int:
        return self._charge(
            self._links(node, background).directory_ctl,
            time,
            self._directory_occupancy,
        )

    def charge_memory(self, node: int, time: int, background: bool = False) -> int:
        return self._charge(
            self._links(node, background).memory,
            time,
            self._memory_occupancy,
        )

    # -- fused transaction paths --------------------------------------------
    #
    # One method per miss-transaction shape, replicating the exact
    # ``charge_*`` sequence the protocol used to issue call-by-call —
    # same request times (each step asks at ``time + delay``-so-far),
    # same occupancy bookkeeping, same returned queuing delay — with a
    # single frame per transaction.  The static envelope analyzer
    # (``repro.analysis.latbound``) models charge *paths*, not call
    # sites, so these fused forms stay within its model by
    # construction; its runtime trace audit would catch any drift.

    def charge_fill_local(self, node: int, time: int, background: bool = False) -> int:
        """READ_MEMORY at the local home: bus(data) + memory."""
        if not self._enabled:
            return 0
        links = (self.background if background else self.nodes)[node]
        occ = self._bus_data
        res = links.bus
        start = time if time > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        occ = self._memory_occupancy
        res = links.memory
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        return start - time

    def charge_write_local(self, node: int, time: int, background: bool = False) -> int:
        """Ownership acquire at the local home: bus(data) + directory +
        memory."""
        if not self._enabled:
            return 0
        links = (self.background if background else self.nodes)[node]
        occ = self._bus_data
        res = links.bus
        start = time if time > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        occ = self._directory_occupancy
        res = links.directory_ctl
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        occ = self._memory_occupancy
        res = links.memory
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        return start - time

    def charge_fill_home(self, node: int, home: int, time: int, background: bool = False) -> int:
        """Remote home memory round trip (read fill or ownership
        acquire, identical path): bus(hdr), hop(node->home, hdr),
        directory, memory, hop(home->node, data), bus(data)."""
        if not self._enabled:
            return 0
        links = self.background if background else self.nodes
        nl = links[node]
        hl = links[home]
        hdr = self._bus_header
        res = nl.bus
        start = time if time > res._next_free else res._next_free
        res._next_free = start + hdr
        res._busy_total += hdr
        res._transactions += 1
        t = start
        lh = self._link_header
        res = nl.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        res = hl.link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        t = start
        occ = self._directory_occupancy
        res = hl.directory_ctl
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        occ = self._memory_occupancy
        res = hl.memory
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        ld = self._link_data
        res = hl.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + ld
        res._busy_total += ld
        res._transactions += 1
        res = nl.link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + ld
        res._busy_total += ld
        res._transactions += 1
        t = start
        occ = self._bus_data
        res = nl.bus
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        return start - time

    def charge_fetch_owner_local(self, node: int, owner: int, time: int) -> int:
        """Read fill, local home with a remote dirty owner: bus(hdr),
        directory(node), hop(node->owner, hdr), bus(owner, data),
        hop(owner->node, data).  Demand chain only."""
        if not self._enabled:
            return 0
        links = self.nodes
        nl = links[node]
        ol = links[owner]
        hdr = self._bus_header
        res = nl.bus
        start = time if time > res._next_free else res._next_free
        res._next_free = start + hdr
        res._busy_total += hdr
        res._transactions += 1
        t = start
        occ = self._directory_occupancy
        res = nl.directory_ctl
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        lh = self._link_header
        res = nl.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        res = ol.link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        t = start
        occ = self._bus_data
        res = ol.bus
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        ld = self._link_data
        res = ol.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + ld
        res._busy_total += ld
        res._transactions += 1
        res = nl.link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + ld
        res._busy_total += ld
        res._transactions += 1
        return start - time

    def charge_fetch_owner_via(
        self, node: int, via: int, home: int, owner: int, time: int,
        background: bool = False,
    ) -> int:
        """Owner fetch through one intermediate stop: bus(hdr),
        hop(node->via, hdr), directory(home), bus(owner, data),
        hop(owner->node, data).  Covers the dirty-copy-at-home read
        fill (via == home == owner) and the two-party ownership
        transfers."""
        if not self._enabled:
            return 0
        links = self.background if background else self.nodes
        nl = links[node]
        hdr = self._bus_header
        res = nl.bus
        start = time if time > res._next_free else res._next_free
        res._next_free = start + hdr
        res._busy_total += hdr
        res._transactions += 1
        t = start
        lh = self._link_header
        res = nl.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        res = links[via].link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        t = start
        occ = self._directory_occupancy
        res = links[home].directory_ctl
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        ol = links[owner]
        occ = self._bus_data
        res = ol.bus
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        ld = self._link_data
        res = ol.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + ld
        res._busy_total += ld
        res._transactions += 1
        res = nl.link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + ld
        res._busy_total += ld
        res._transactions += 1
        return start - time

    def charge_fetch_owner_remote(
        self, node: int, home: int, owner: int, time: int,
        background: bool = False,
    ) -> int:
        """Three-party owner fetch: bus(hdr), hop(node->home, hdr),
        directory, hop(home->owner, hdr), bus(owner, data),
        hop(owner->node, data)."""
        if not self._enabled:
            return 0
        links = self.background if background else self.nodes
        nl = links[node]
        hl = links[home]
        ol = links[owner]
        hdr = self._bus_header
        res = nl.bus
        start = time if time > res._next_free else res._next_free
        res._next_free = start + hdr
        res._busy_total += hdr
        res._transactions += 1
        t = start
        lh = self._link_header
        res = nl.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        res = hl.link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        t = start
        occ = self._directory_occupancy
        res = hl.directory_ctl
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        res = hl.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        res = ol.link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        t = start
        occ = self._bus_data
        res = ol.bus
        start = t if t > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        t = start
        ld = self._link_data
        res = ol.link_out
        start = t if t > res._next_free else res._next_free
        res._next_free = start + ld
        res._busy_total += ld
        res._transactions += 1
        res = nl.link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + ld
        res._busy_total += ld
        res._transactions += 1
        return start - time

    def charge_writeback(self, node: int, home: int, time: int) -> None:
        """Eviction write-back, fire-and-forget on the background chain:
        bus(``node``, data), hop(node->home, data) when the home is
        remote, and memory(``home``) — each requested at ``time`` (the
        write-back buffer hides the latency, so no step waits for the
        previous one)."""
        if not self._enabled:
            return
        links = self.background
        nl = links[node]
        occ = self._bus_data
        res = nl.bus
        start = time if time > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1
        hl = links[home]
        if home != node:
            ld = self._link_data
            res = nl.link_out
            start = time if time > res._next_free else res._next_free
            res._next_free = start + ld
            res._busy_total += ld
            res._transactions += 1
            res = hl.link_in
            start = start if start > res._next_free else res._next_free
            res._next_free = start + ld
            res._busy_total += ld
            res._transactions += 1
        occ = self._memory_occupancy
        res = hl.memory
        start = time if time > res._next_free else res._next_free
        res._next_free = start + occ
        res._busy_total += occ
        res._transactions += 1

    def charge_invalidation(
        self, home: int, sharer: int, node: int, time: int,
        background: bool = False,
    ) -> None:
        """One invalidated sharer: hop(home->sharer, hdr) carrying the
        invalidation and hop(sharer->node, hdr) carrying the
        acknowledgement, both requested at ``time`` (the requester
        retires at ownership; acknowledgements trail)."""
        if not self._enabled:
            return
        links = self.background if background else self.nodes
        lh = self._link_header
        res = links[home].link_out
        start = time if time > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        res = links[sharer].link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        res = links[sharer].link_out
        start = time if time > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1
        res = links[node].link_in
        start = start if start > res._next_free else res._next_free
        res._next_free = start + lh
        res._busy_total += lh
        res._transactions += 1

    # -- fault-layer charges ------------------------------------------------

    def charge_nack(self, node: int, home: int, time: int) -> int:
        """Charge one NACKed request round trip ``node`` -> ``home`` ->
        ``node`` (header-only both ways, plus a directory pass to bounce
        the request).  Returns the queuing delay accumulated; the base
        round-trip latency is the fault plan's ``nack_round_trip_cycles``.
        """
        delay = self.charge_bus(node, time, data=False)
        if home != node:
            delay += self.charge_hop(node, home, time + delay, data=False)
        delay += self.charge_directory(home, time + delay)
        if home != node:
            delay += self.charge_hop(home, node, time + delay, data=False)
        return delay

    def charge_duplicate(self, src: int, dst: int, time: int, data: bool) -> None:
        """Charge a redundantly delivered message on the background
        chain: pure bandwidth pressure, no latency for the original."""
        self.charge_bus(src, time, data=data, background=True)
        if src != dst:
            self.charge_hop(src, dst, time, data=data, background=True)

    def utilization_report(self, elapsed: int):
        """Per-resource utilization, for diagnostics and ablations."""
        report = {}
        for links in self.nodes:
            for resource in (
                links.bus,
                links.link_in,
                links.link_out,
                links.directory_ctl,
                links.memory,
            ):
                report[resource.name] = resource.utilization(elapsed)
        return report
