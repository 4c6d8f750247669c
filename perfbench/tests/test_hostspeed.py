"""Host-speed sampling and the corrected pass times built on it."""

import signal
import time

import pytest

from perfbench import hostspeed
from perfbench.session import corrected_times
from perfbench.spans import Recorder
from perfbench.workloads import WORKLOADS, digest, reset_caches, run_pass


def test_sampler_probes_around_and_during_a_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 4 * hostspeed.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Both sides' probes plus at least two taken while the block ran.
    assert len(sampler.samples) >= 2 * hostspeed.PROBE_REPS + 2
    assert sampler.spent >= sum(sampler.samples)
    assert sampler.slowdown() > 0


def test_probed_cells_keep_their_digests():
    name = "incast-diagnosis"
    cells = WORKLOADS[name].inputs(3)[:2]
    reset_caches()
    plain = run_pass(WORKLOADS[name], cells, Recorder(False))
    reset_caches()
    probed = run_pass(WORKLOADS[name], cells, Recorder(False), probe=True)
    assert [digest(o["result"]) for o in probed] == [digest(o["result"]) for o in plain]
    for out in probed:
        assert out["wall"] > 0 and out["slowdown"] > 0 and out["probe_min"] > 0
    assert all("slowdown" not in o for o in plain)


def _cell(wall, slowdown):
    return {"wall": wall, "cpu": wall / 2, "slowdown": slowdown}


def test_in_process_time_is_the_sum_of_per_cell_medians_at_reference_speed():
    runs = [
        [_cell(2.0, 2.0), _cell(1.0, 1.0)],
        [_cell(1.0, 1.0), _cell(3.0, 3.0)],
        [_cell(9.0, 1.0), _cell(1.5, 1.5)],
    ]
    wall, cpu = corrected_times(False, runs, walls=[0.0] * 3, cpus=[0.0] * 3)
    # Cell 0 reads 1, 1, 9: median 1.  Cell 1 reads 1, 1, 1.
    assert wall == pytest.approx(2.0)
    assert cpu == pytest.approx(1.0)


def test_pooled_time_divides_each_pass_by_its_wall_weighted_slowdown():
    runs = [[_cell(2.0, 2.0), _cell(2.0, 1.0)]] * 3
    # Weighted slowdown: 4 s of cells that would take 1 + 2 s at reference speed.
    wall, cpu = corrected_times(True, runs, walls=[3.0, 6.0, 3.0], cpus=[4.0, 4.0, 8.0])
    assert wall == pytest.approx(3.0 * 3 / 4)
    assert cpu == pytest.approx(4.0 * 3 / 4)
