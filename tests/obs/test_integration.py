"""Armed-vs-disarmed identity and end-to-end span/metric collection.

The contract the whole layer hangs on: arming :mod:`repro.obs` records
counters and spans but changes **no** simulation result — the same
fingerprint contract the fastpath/batch/telemetry/parallel layers obey.
"""

import os

import pytest

import repro.topology as T
from repro import obs
from repro.routing import ECMPRouter
from repro.runner import ExperimentSpec, run_cells
from repro.sim import Network
from repro.sim.parallel import (
    ParallelScenario,
    SourceSpec,
    run_parallel,
    run_serial,
)
from repro.sim.sources import PoissonSource


@pytest.fixture(autouse=True)
def _disarmed(monkeypatch):
    """Tests control arming explicitly; always leave the process clean.

    REPRO_OBS is also scrubbed — a ``Network(obs=None)`` built under an
    armed environment (the CI ``REPRO_OBS=1`` leg) would silently
    re-arm the process mid-test otherwise.
    """
    monkeypatch.delenv(obs.OBS_ENV, raising=False)
    was_armed = obs.armed()
    obs.disarm()
    yield
    obs.disarm()
    if was_armed:
        obs.arm()


def _small_run(obs_flag):
    topo = T.quartz_ring(4, 1)
    net = Network(topo, ECMPRouter(topo), obs=obs_flag)
    source = PoissonSource(
        net, "h0.0", "h2.0", rate_pps=200_000.0, seed=3, group="g"
    )
    source.start()
    net.engine.run(until=0.002)
    return (
        net.packets_delivered,
        net.packets_dropped,
        net.engine.events_processed,
        tuple(net.stats.samples),
    )


class TestFingerprintIdentity:
    def test_armed_run_is_bit_identical(self):
        baseline = _small_run(obs_flag=False)
        obs.arm()
        armed = _small_run(obs_flag=None)  # attaches to the armed process
        assert armed == baseline

    def test_armed_engine_records_runs_and_spans(self):
        obs.arm()
        fingerprint = _small_run(obs_flag=None)
        assert fingerprint[0] > 0
        reg = obs.registry()
        assert reg.counters["engine.runs"] == 1
        assert reg.counters["engine.events.heap"] == fingerprint[2]
        names = {span.name for span in obs.tracer().spans}
        assert "engine.run" in names

    def test_network_obs_false_detaches_while_armed(self):
        obs.arm()
        _small_run(obs_flag=False)
        assert obs.registry().counters.get("fastpath.plan_compiles") is None


def _parallel_scenario():
    return ParallelScenario(
        fabric="quartz-ring",
        fabric_args=(6, 1),
        sources=tuple(
            SourceSpec(
                src=f"h{rack}.0", dst=f"h{(rack + 2) % 6}.0",
                rate_pps=100_000.0, flow_id=rack, seed=rack,
            )
            for rack in range(6)
        ),
        duration=5e-4,
    )


class TestParallelObservation:
    def test_inline_armed_matches_serial_and_collects_window_spans(self):
        scenario = _parallel_scenario()
        serial = run_serial(scenario)
        obs.arm()
        sharded = run_parallel(
            scenario, num_shards=2, mode="inline", parallel=True
        )
        assert sharded.fingerprint() == serial.fingerprint()
        reg = obs.registry()
        assert reg.counters["parallel.runs"] == 1
        assert reg.counters["parallel.windows"] == sharded.windows
        names = {span.name for span in obs.tracer().spans}
        assert {"parallel.window", "parallel.barrier", "engine.run"} <= names
        # Shard spans carry the shard index as their thread lane.
        tids = {
            span.tid for span in obs.tracer().spans
            if span.name == "engine.run"
        }
        assert {0, 1} <= tids

    def test_disarmed_parallel_records_nothing(self):
        run_parallel(
            _parallel_scenario(), num_shards=2, mode="inline", parallel=True
        )
        assert obs.registry() is None
        assert obs.tracer() is None


def _cell(seed):
    return _small_run(obs_flag=None)


def _pid_cell(seed):
    return _small_run(obs_flag=None), os.getpid()


class TestSweepObservation:
    def test_run_cells_pool_merges_worker_spans_and_metrics(self):
        cells = [
            ExperimentSpec(_pid_cell, (seed,), label=f"cell-{seed}")
            for seed in range(4)
        ]
        baseline = run_cells(cells, workers=1)
        obs.arm()
        observed = run_cells(cells, workers=2)
        # pool + arming change no result
        assert [result for result, _ in observed] == [
            result for result, _ in baseline
        ]
        reg = obs.registry()
        assert reg.counters["sweep.cells"] == 4
        assert reg.counters["engine.runs"] == 4  # workers shipped theirs home
        cell_spans = [
            s for s in obs.tracer().spans if s.name == "sweep.cell"
        ]
        assert len(cell_spans) == 4
        # Per-worker lanes: each cell's span carries the pid of the worker
        # that ran it, never the parent's.  The pool may hand both chunks
        # to one worker, so the number of distinct pids is not fixed.
        ran_in = {f"cell-{seed}": pid for seed, (_, pid) in enumerate(observed)}
        assert {span.args["label"]: span.pid for span in cell_spans} == ran_in
        assert os.getpid() not in ran_in.values()
        assert {span.args["label"] for span in cell_spans} == {
            f"cell-{seed}" for seed in range(4)
        }

    def test_serial_run_cells_records_without_pool(self):
        obs.arm()
        run_cells([ExperimentSpec(_cell, (0,))], workers=1)
        reg = obs.registry()
        assert reg.counters["sweep.cells"] == 1
        timer = reg.snapshot()["timers"]["sweep.cell_seconds"]
        assert timer["count"] == 1


class TestSmokeRuntimeKeys:
    def test_timed_run_runtime_shape(self, monkeypatch):
        from repro import smoke

        monkeypatch.setattr(
            smoke, "compute_smoke_metrics", lambda: {"fake.metric": 1}
        )
        metrics, runtime = smoke.timed_run()
        assert metrics == {"fake.metric": 1}
        assert set(runtime) == {
            "runtime.wall_clock_s",
            "runtime.cache_hit_rate",
            "runtime.cache_lookups",
        }
        assert runtime["runtime.wall_clock_s"] > 0.0

    def test_timed_run_merges_into_armed_registry(self, monkeypatch):
        from repro import smoke

        monkeypatch.setattr(
            smoke, "compute_smoke_metrics", lambda: {"fake.metric": 1}
        )
        obs.arm()
        smoke.timed_run()
        assert "smoke.run" in obs.registry().snapshot()["timers"]
