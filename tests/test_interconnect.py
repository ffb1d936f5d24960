"""Unit tests for the interconnect contention model."""

import pytest

from repro.config import ContentionConfig
from repro.interconnect import Interconnect


def make_net(enabled=True, **changes):
    return Interconnect(4, ContentionConfig(enabled=enabled, **changes))


class TestCharging:
    def test_idle_resources_add_no_delay(self):
        net = make_net()
        assert net.charge_bus(0, 100, data=True) == 0
        assert net.charge_hop(0, 1, 100, data=True) == 0
        assert net.charge_directory(1, 100) == 0
        assert net.charge_memory(1, 100) == 0

    def test_back_to_back_transactions_queue(self):
        net = make_net()
        net.charge_bus(0, 0, data=True)   # occupies 5
        delay = net.charge_bus(0, 0, data=True)
        assert delay == 5

    def test_header_cheaper_than_data(self):
        net = make_net()
        net.charge_bus(0, 0, data=False)  # occupies 2
        assert net.charge_bus(0, 0, data=False) == 2

    def test_hop_charges_both_link_ends(self):
        net = make_net()
        net.charge_hop(0, 1, 0, data=True)
        # Source link-out now busy; a second hop from 0 queues there.
        assert net.charge_hop(0, 2, 0, data=True) > 0
        # 1's link-in busy; traffic into 1 from elsewhere queues too.
        assert net.charge_hop(2, 1, 0, data=True) > 0

    def test_disabled_contention_never_delays(self):
        net = make_net(enabled=False)
        for _ in range(10):
            assert net.charge_bus(0, 0, data=True) == 0


class TestBackgroundChain:
    def test_background_does_not_delay_demand(self):
        net = make_net()
        for _ in range(10):
            net.charge_bus(0, 0, data=True, background=True)
        assert net.charge_bus(0, 0, data=True) == 0

    def test_background_serializes_against_itself(self):
        net = make_net()
        net.charge_bus(0, 0, data=True, background=True)
        assert net.charge_bus(0, 0, data=True, background=True) == 5

    def test_background_resources_are_named(self):
        net = make_net()
        assert net.background[0].bus.name.startswith("bg.")


class TestReporting:
    def test_utilization_report_covers_all_nodes(self):
        net = make_net()
        net.charge_bus(2, 0, data=True)
        report = net.utilization_report(100)
        assert "node2.bus" in report
        assert report["node2.bus"] > 0
        assert report["node0.bus"] == 0
        assert len(report) == 4 * 5


class TestHopEdgeCasesVsEnvelopes:
    """Interconnect edge cases cross-checked against the static latency
    envelopes (repro.analysis.latbound) — zero-hop local access, the
    max-distance three-party route, and contended vs contention-free
    bounds must all land inside what the analyzer derives."""

    def _envelopes(self, enabled=True, processors=4):
        from repro.analysis.latbound import derive_envelopes
        from repro.config import ContentionConfig, dash_scaled_config

        config = dash_scaled_config(
            num_processors=processors,
            contention=ContentionConfig(enabled=enabled),
        )
        return config, derive_envelopes(config)

    def test_zero_hop_local_access_charges_no_link(self):
        # A local fill never touches the network: its envelope has no
        # link term, and an idle bus+memory chain reproduces the base.
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes()
        env = table.get(Consistency.SC, TxnClass.READ_MISS_LOCAL)
        assert not any("link" in name for name, _v in env.term_breakdown)
        net = make_net()
        delay = net.charge_bus(0, 0, data=True)
        delay += net.charge_memory(0, delay)
        assert env.contains(config.latency.read_fill_local + delay)

    def test_max_distance_route_idle_hits_envelope_floor(self):
        # Three-party dirty-remote read: request bus, two forward hops,
        # owner bus, reply hop — the longest demand route there is.  On
        # an idle machine the queuing delay is zero and the observed
        # latency is exactly the envelope minimum.
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes()
        env = table.get(Consistency.SC, TxnClass.READ_MISS_DIRTY_REMOTE)
        net = make_net()
        req, home, owner = 0, 1, 2
        delay = net.charge_bus(req, 0, data=False)
        delay += net.charge_hop(req, home, delay, data=False)
        delay += net.charge_directory(home, delay)
        delay += net.charge_hop(home, owner, delay, data=False)
        delay += net.charge_bus(owner, delay, data=True)
        delay += net.charge_hop(owner, req, delay, data=True)
        assert delay == 0
        assert config.latency.read_fill_remote + delay == env.min_cycles

    def test_contended_route_stays_under_envelope_ceiling(self):
        # Pile demand traffic onto every station of the three-party
        # route, then walk it: the accumulated queuing delay must stay
        # under the static per-step ceiling sum (max - min).
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes()
        env = table.get(Consistency.SC, TxnClass.READ_MISS_DIRTY_REMOTE)
        net = make_net()
        req, home, owner = 0, 1, 2
        for _ in range(3):  # fewer competitors than the in-flight bound
            net.charge_bus(req, 0, data=True)
            net.charge_hop(req, home, 0, data=True)
            net.charge_directory(home, 0)
            net.charge_hop(home, owner, 0, data=True)
            net.charge_bus(owner, 0, data=True)
            net.charge_hop(owner, req, 0, data=True)
        delay = net.charge_bus(req, 0, data=False)
        delay += net.charge_hop(req, home, delay, data=False)
        delay += net.charge_directory(home, delay)
        delay += net.charge_hop(home, owner, delay, data=False)
        delay += net.charge_bus(owner, delay, data=True)
        delay += net.charge_hop(owner, req, delay, data=True)
        assert delay > 0
        assert delay <= env.max_cycles - env.min_cycles

    def test_contention_free_bound_is_exact_point(self):
        # With contention disabled every charge returns zero delay and
        # the analyzer collapses each envelope to [base, base].
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes(enabled=False)
        env = table.get(Consistency.SC, TxnClass.READ_MISS_DIRTY_REMOTE)
        assert env.min_cycles == env.max_cycles
        net = make_net(enabled=False)
        delay = net.charge_bus(0, 0, data=False)
        delay += net.charge_hop(0, 1, delay, data=False)
        delay += net.charge_directory(1, delay)
        delay += net.charge_hop(1, 2, delay, data=False)
        delay += net.charge_bus(2, delay, data=True)
        delay += net.charge_hop(2, 0, delay, data=True)
        assert delay == 0
        assert env.contains(config.latency.read_fill_remote)

    def test_contended_ceiling_wider_than_quiet(self):
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        _cfg, loud = self._envelopes(enabled=True)
        _cfg2, quiet = self._envelopes(enabled=False)
        for cls in (TxnClass.READ_MISS_HOME, TxnClass.WRITE_MISS_HOME):
            wide = loud.get(Consistency.RC, cls)
            point = quiet.get(Consistency.RC, cls)
            assert wide.min_cycles == point.min_cycles
            assert wide.max_cycles > point.max_cycles


def _bookkeeping(net):
    """Every queued resource's ``(_next_free, _busy_total,
    _transactions)``, demand and background chains alike."""
    return [
        (res._next_free, res._busy_total, res._transactions)
        for chain in (net.nodes, net.background)
        for links in chain
        for res in (
            links.bus, links.link_in, links.link_out,
            links.directory_ctl, links.memory,
        )
    ]


def _preload(net):
    """Uneven prior traffic so the fused charges meet real queues."""
    for node in range(4):
        for background in (False, True):
            for _ in range(node + 1):
                net.charge_bus(node, 3 * node, data=True, background=background)
                net.charge_hop(node, (node + 1) % 4, 2 * node, data=True,
                               background=background)
                net.charge_memory(node, node, background=background)


class TestFusedCharges:
    """The fused per-transaction charges equal their call-by-call
    sequences: same returned delays, same resource bookkeeping."""

    @staticmethod
    def _writeback_delays(net, node, home, time):
        return [
            net.charge_bus(node, time, data=True, background=True),
            net.charge_hop(node, home, time, data=True, background=True),
            net.charge_memory(home, time, background=True),
        ]

    @staticmethod
    def _invalidation_delays(net, home, sharer, node, time, background):
        return [
            net.charge_hop(home, sharer, time, data=False, background=background),
            net.charge_hop(sharer, node, time, data=False, background=background),
        ]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("node,home", [(0, 0), (0, 2), (3, 1)])
    @pytest.mark.parametrize("time", [0, 5, 40])
    def test_charge_writeback_matches_call_by_call(self, enabled, node, home, time):
        fused, classic = make_net(enabled), make_net(enabled)
        _preload(fused)
        _preload(classic)
        assert fused.charge_writeback(node, home, time) is None
        classic.charge_bus(node, time, data=True, background=True)
        if home != node:
            classic.charge_hop(node, home, time, data=True, background=True)
        classic.charge_memory(home, time, background=True)
        assert _bookkeeping(fused) == _bookkeeping(classic)
        # Later charges see identical queues, hence identical delays.
        assert self._writeback_delays(fused, node, home, time) == (
            self._writeback_delays(classic, node, home, time)
        )

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("background", [False, True])
    @pytest.mark.parametrize(
        "home,sharer,node", [(0, 1, 2), (0, 0, 0), (1, 1, 0), (2, 3, 2)]
    )
    @pytest.mark.parametrize("time", [0, 7])
    def test_charge_invalidation_matches_two_hops(
        self, enabled, background, home, sharer, node, time
    ):
        fused, classic = make_net(enabled), make_net(enabled)
        _preload(fused)
        _preload(classic)
        assert fused.charge_invalidation(
            home, sharer, node, time, background=background
        ) is None
        classic.charge_hop(home, sharer, time, data=False, background=background)
        classic.charge_hop(sharer, node, time, data=False, background=background)
        assert _bookkeeping(fused) == _bookkeeping(classic)
        assert self._invalidation_delays(fused, home, sharer, node, time, background) == (
            self._invalidation_delays(classic, home, sharer, node, time, background)
        )
