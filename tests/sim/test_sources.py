"""Tests for the traffic sources."""

import pytest

import repro.topology as T
from repro.routing import ECMPRouter
from repro.sim import BurstSource, Network, PoissonSource, RPCSource, SourceError
from repro.sim.sources import poisson_pair_sources
from repro.units import GBPS, MBPS


@pytest.fixture()
def net():
    topo = T.full_mesh(4, 2)
    return Network(topo, ECMPRouter(topo))


class TestPoissonSource:
    def test_rate_is_respected(self, net):
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, seed=1)
        source.start()
        net.run(until=0.05)
        # 100 k pps over 50 ms → ~5000 packets; Poisson noise ±5 σ.
        assert 4600 <= source.packets_sent <= 5400

    def test_bandwidth_constructor(self, net):
        source = PoissonSource.at_bandwidth(
            net, "h0.0", "h1.0", 1 * GBPS, size_bytes=400, seed=1
        )
        assert source.rate_pps == pytest.approx(1e9 / 3200)

    def test_multiple_destinations_all_hit(self, net):
        source = PoissonSource(
            net, "h0.0", ["h1.0", "h2.0", "h3.0"], rate_pps=50_000, seed=2
        )
        source.start()
        net.run(until=0.01)
        assert net.stats.count > 100

    def test_stop_at(self, net):
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, stop_at=0.01, seed=3)
        source.start()
        net.run(until=0.05)
        assert source.packets_sent <= 1100

    def test_stop_method(self, net):
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, seed=4)
        source.start()
        net.engine.schedule(0.01, source.stop)
        net.run(until=0.05)
        assert source.packets_sent <= 1100

    def test_double_start_rejected(self, net):
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=1000)
        source.start()
        with pytest.raises(SourceError):
            source.start()

    def test_zero_rate_rejected(self, net):
        with pytest.raises(SourceError):
            PoissonSource(net, "h0.0", "h1.0", rate_pps=0)

    def test_empty_destinations_rejected(self, net):
        with pytest.raises(SourceError):
            PoissonSource(net, "h0.0", [], rate_pps=1000)

    def test_deterministic_for_seed(self):
        counts = []
        for _ in range(2):
            topo = T.full_mesh(4, 2)
            network = Network(topo, ECMPRouter(topo))
            source = PoissonSource(network, "h0.0", "h1.0", rate_pps=50_000, seed=9)
            source.start()
            network.run(until=0.01)
            counts.append(source.packets_sent)
        assert counts[0] == counts[1]


class TestBurstSource:
    def test_burst_interval_matches_target_bandwidth(self, net):
        source = BurstSource(
            net, "h0.0", "h1.0", target_bandwidth_bps=100 * MBPS,
            burst_packets=20, size_bytes=1500,
        )
        # 20 × 1500 B × 8 = 240 kbit per burst; at 100 Mb/s → 2.4 ms.
        assert source.burst_interval == pytest.approx(2.4e-3)

    def test_long_run_average_rate(self, net):
        source = BurstSource(
            net, "h0.0", "h1.0", target_bandwidth_bps=200 * MBPS, seed=5
        )
        source.start()
        net.run(until=0.1)
        sent_bits = source.packets_sent * 1500 * 8
        assert sent_bits / 0.1 == pytest.approx(200e6, rel=0.15)

    def test_packets_come_in_bursts(self, net):
        source = BurstSource(
            net, "h0.0", "h1.0", target_bandwidth_bps=50 * MBPS, burst_packets=20,
        )
        source.start(delay=0.0)
        net.run(until=source.burst_interval * 0.5)
        assert source.packets_sent == 20

    def test_invalid_parameters(self, net):
        with pytest.raises(SourceError):
            BurstSource(net, "h0.0", "h1.0", target_bandwidth_bps=0)
        with pytest.raises(SourceError):
            BurstSource(net, "h0.0", "h1.0", target_bandwidth_bps=1e6, burst_packets=0)


class TestRPCSource:
    def test_completes_requested_calls(self, net):
        rpc = RPCSource(net, "h0.0", "h1.0", num_calls=50)
        rpc.start()
        net.run()
        assert rpc.completed == 50
        assert len(rpc.rtts) == 50

    def test_rtts_are_recorded_in_stats_group(self, net):
        rpc = RPCSource(net, "h0.0", "h1.0", num_calls=10, group="probe")
        rpc.start()
        net.run()
        assert net.stats.summary("probe").count == 10

    def test_rtt_greater_than_one_way(self, net):
        rpc = RPCSource(net, "h0.0", "h1.0", num_calls=5)
        rpc.start()
        net.run()
        one_way = net.send("h0.0", "h1.0", 200)
        net.run()
        assert min(rpc.rtts) > one_way.latency

    def test_server_think_time_adds_to_rtt(self):
        topo = T.full_mesh(4, 2)
        network = Network(topo, ECMPRouter(topo))
        fast = RPCSource(network, "h0.0", "h1.0", num_calls=5, group="fast")
        slow = RPCSource(
            network, "h2.0", "h3.0", num_calls=5, server_think_time=1e-5, group="slow"
        )
        fast.start()
        slow.start()
        network.run()
        assert network.stats.summary("slow").mean - network.stats.summary(
            "fast"
        ).mean == pytest.approx(1e-5, rel=0.05)

    def test_zero_calls_rejected(self, net):
        with pytest.raises(SourceError):
            RPCSource(net, "h0.0", "h1.0", num_calls=0)

    def test_on_complete_fires_once_after_last_rtt_recorded(self, net):
        seen = []
        rpc = RPCSource(
            net, "h0.0", "h1.0", num_calls=20, group="probe",
            on_complete=lambda: seen.append(
                (rpc.completed, len(rpc.rtts), net.stats.summary("probe").count)
            ),
        )
        rpc.start()
        net.run()
        assert seen == [(20, 20, 20)]

    def test_on_complete_never_fires_for_an_unfinished_loop(self, net):
        seen = []
        rpc = RPCSource(net, "h0.0", "h1.0", num_calls=1000,
                        on_complete=lambda: seen.append(True))
        rpc.start()
        net.run(until=50e-6)  # far too short for 1000 round trips
        assert 0 < rpc.completed < 1000
        assert seen == []

    def test_stopping_at_completion_keeps_rtts_identical(self):
        def probe(stop: bool) -> tuple[list[float], int]:
            topo = T.full_mesh(4, 2)
            network = Network(topo, ECMPRouter(topo))
            rpc = RPCSource(
                network, "h0.0", "h1.0", num_calls=30,
                on_complete=network.engine.stop if stop else None,
            )
            rpc.start()
            # Cross traffic on the RPC's path outlives the loop.
            BurstSource(network, "h0.1", "h1.0", target_bandwidth_bps=300 * MBPS,
                        seed=4).start()
            network.run(until=0.01)
            assert rpc.completed == 30
            return rpc.rtts, network.engine.events_processed

        stopped_rtts, stopped_events = probe(stop=True)
        full_rtts, full_events = probe(stop=False)
        assert stopped_rtts == full_rtts
        assert stopped_events < full_events


class TestPairSources:
    def test_one_source_per_pair(self, net):
        sources = poisson_pair_sources(
            net, [("h0.0", "h1.0"), ("h2.0", "h3.0")], per_pair_bandwidth_bps=1 * GBPS
        )
        assert len(sources) == 2
        for source in sources:
            source.start()
        net.run(until=0.001)
        assert all(s.packets_sent > 0 for s in sources)


class TestChunkedDraws:
    """Batched RNG draws are a speed knob only: any chunk size must
    produce the exact same packet sequence (numpy generators fill
    batches from the same bit stream as repeated scalar draws, and gap
    and destination picks use independent streams)."""

    def fingerprint(self, chunk, env=None, monkeypatch=None):
        if monkeypatch is not None:
            if env is None:
                monkeypatch.delenv("REPRO_FASTPATH_DISABLE", raising=False)
            else:
                monkeypatch.setenv("REPRO_FASTPATH_DISABLE", env)
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        source = PoissonSource(
            net, "h0.0", ["h1.0", "h2.0", "h3.0"], rate_pps=100_000,
            seed=11, chunk=chunk,
        )
        source.start()
        net.run(until=0.02)
        return (
            source.packets_sent,
            net.packets_delivered,
            net.engine.events_processed,
            tuple(net.stats.samples),
        )

    def test_chunk_sizes_bit_identical(self):
        one = self.fingerprint(1)
        assert self.fingerprint(256) == one
        assert self.fingerprint(7) == one
        assert self.fingerprint(1024) == one

    def test_default_chunk_matches_reference_env(self, monkeypatch):
        batched = self.fingerprint(None, env=None, monkeypatch=monkeypatch)
        reference = self.fingerprint(None, env="1", monkeypatch=monkeypatch)
        assert batched == reference

    def test_env_forces_per_packet_draws(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH_DISABLE", "1")
        topo = T.full_mesh(2, 1)
        source = PoissonSource(
            Network(topo, ECMPRouter(topo)), "h0.0", "h1.0", rate_pps=1000
        )
        assert source.chunk == 1

    def test_invalid_chunk_rejected(self):
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        with pytest.raises(SourceError):
            PoissonSource(net, "h0.0", "h1.0", rate_pps=1000, chunk=0)

    def test_pair_sources_forward_chunk(self):
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        sources = poisson_pair_sources(
            net, [("h0.0", "h1.0"), ("h2.0", "h3.0")], 100 * MBPS, chunk=17
        )
        assert [s.chunk for s in sources] == [17, 17]
