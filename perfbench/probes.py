"""Layer probes: spans around the program's public layer entry points.

The cells call the program's own experiment functions.  To time each
layer from outside, a traced pass replaces every entry point listed in
:data:`PROBES` with a wrapper that opens a span named after the
per-layer metric its self time lands in, and puts the originals back
when the pass ends.  Timed passes run the program untouched.

A target is ``"module:attribute"`` or ``"module:Class.method"``.  A
function is wrapped in the namespace its caller looks it up in: the
experiment modules bind some topology constructors with ``from ...
import``, so those are listed under the experiment's module as well.
A method is wrapped on the class that defines it.  A target that does
not resolve raises, so a rename in the program cannot silently empty a
layer.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from perfbench.spans import Recorder

#: Span (= per-layer metric) -> the entry points timed under it.
PROBES: dict[str, tuple[str, ...]] = {
    "topology.build_s": (
        "repro.topology:three_tier_tree",
        "repro.topology:jellyfish",
        "repro.topology:quartz_in_core",
        "repro.topology:quartz_in_edge",
        "repro.topology:quartz_in_edge_and_core",
        "repro.topology:quartz_in_jellyfish",
        "repro.topology:quartz_ring",
        "repro.topology:full_mesh",
        "repro.workloads.crosstraffic:prototype_tree",
        "repro.workloads.crosstraffic:prototype_quartz",
        "repro.experiments.pathological:nonblocking_testbed",
        "repro.experiments.pathological:quartz_core_testbed",
        "repro.experiments.bisection:oversubscribed_fabric",
        "repro.experiments.queue_diagnosis:quartz_ring",
    ),
    "routing.router_init_s": (
        "repro.routing.ecmp:ECMPRouter.__init__",
        "repro.routing.vlb:VLBRouter.__init__",
        "repro.routing.vlb:AdaptiveVLBRouter.__init__",
        "repro.routing.vlb:DemandAwareVLBRouter.__init__",
    ),
    "routing.tables_s": (
        "repro.routing.ecmp:ecmp_segment_table",
        "repro.routing.vlb:vlb_table",
    ),
    "sim.build_s": ("repro.sim.network:Network.__init__",),
    "sim.run_s": ("repro.sim.network:Network.run",),
    "traffic.setup_s": (
        "repro.sim.sources:PoissonSource.__init__",
        "repro.sim.sources:PoissonSource.start",
        "repro.sim.sources:BurstSource.__init__",
        "repro.sim.sources:BurstSource.start",
        "repro.sim.sources:RPCSource.__init__",
        "repro.sim.sources:RPCSource.start",
        "repro.experiments.section7:random_task",
        "repro.experiments.section7:build_task",
        "repro.workloads.tasks:StreamingTask.start",
        "repro.workloads.tasks:ScatterGatherTask.start",
        "repro.experiments.bisection:random_permutation",
        "repro.experiments.bisection:incast",
        "repro.experiments.bisection:rack_level_shuffle",
    ),
    "stats.summary_s": ("repro.sim.stats:LatencyRecorder.summary",),
    "core.assign_s": (
        "repro.core.channels:greedy_assignment",
        "repro.core.channels:ilp_assignment",
        "repro.core.fault:greedy_assignment",
        "repro.core.multiring:greedy_assignment",
    ),
    "core.plan_rings_s": (
        "repro.core.multiring:plan_rings",
        "repro.experiments.queue_diagnosis:plan_rings",
    ),
    "core.fault_mc_s": ("repro.core.fault:RingFaultModel.simulate",),
    "flowsim.solve_s": ("repro.experiments.bisection:evaluate",),
    "telemetry.diagnose_s": ("repro.experiments.queue_diagnosis:diagnose",),
    "faults.setup_s": (
        "repro.sim.faults:FaultInjector.__init__",
        "repro.sim.faults:FaultInjector.schedule",
        "repro.experiments.queue_diagnosis:random_fault_schedule",
    ),
    "analysis.s": ("repro.cost:table8", "repro.analysis:scaling_table"),
}


_installed = False


def _owner(target: str) -> tuple[Any, str]:
    module, _, path = target.partition(":")
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"probe target {target} does not exist")
    return owner, attr


def run_counts(net: Any) -> dict[str, int]:
    """Counters one ``Network`` exposes; ``sim.run_s`` records their growth."""
    hub = net.telemetry
    events = net.fault_stats.events
    return {
        "sim.events": net.engine.events_processed,
        "sim.pkts_delivered": net.packets_delivered,
        "sim.pkts_dropped": net.packets_dropped,
        "stats.samples": net.stats.count,
        "telemetry.windows": (
            sum(len(hub.monitors[key].windows()) for key in hub.ports()) if hub else 0
        ),
        "faults.cuts": sum(1 for e in events if e.kind == "cut"),
        "faults.channels_severed": sum(1 for e in events if e.kind == "link_down"),
        "faults.packets_severed": net.packets_dropped_fault,
    }


def _probe(fn: Callable, name: str, rec: Recorder) -> Callable:
    if name == "sim.run_s":
        @functools.wraps(fn)
        def run(net, *args, **kwargs):
            before = run_counts(net)
            with rec.span(name):
                out = fn(net, *args, **kwargs)
            for key, value in run_counts(net).items():
                rec.count(key, value - before[key])
            return out
        return run

    @functools.wraps(fn)
    def call(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return call


@contextmanager
def installed(rec: Recorder) -> Iterator[None]:
    """Probe every layer into ``rec`` for the ``with`` body (if it traces)."""
    global _installed
    if _installed:
        raise RuntimeError("layer probes are already installed")
    saved: list[tuple[Any, str, Any]] = []
    try:
        if rec.traced:
            _installed = True
            for name, targets in PROBES.items():
                for target in targets:
                    owner, attr = _owner(target)
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, _probe(original, name, rec))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        _installed = False
