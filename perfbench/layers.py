"""Per-layer metrics of a traced pass: names, units, and how each is derived.

Time metrics (``*_s`` and ``analysis.s``) are self times from
:func:`perfbench.spans.attribute`: with the root's share reported as
``bench.other_s`` they sum to ``bench.traced_wall_s``.  Counts come from
the spans themselves (calls into a layer), from counters the probes
read off each ``Network`` around its run (``Engine.events_processed``,
``Network.packets_*``, ``LatencyRecorder.count``, ``FaultRecorder``,
the telemetry hub), from ``artifact_cache().stats``, and from the
``repro.obs`` registry, which the traced pass arms.  A layer a workload
never calls reports 0.
"""

from __future__ import annotations

import statistics

from perfbench.spans import Recorder, Span, attribute

#: Name of the root span; its self time is the time no layer span covered.
ROOT = "bench.other_s"

#: Every per-layer metric, in report order: name -> unit.
METRICS: dict[str, str] = {
    "sim.run_s": "s",
    "sim.build_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.pkts_delivered": "count",
    "sim.pkts_dropped": "count",
    "sim.pkts_per_s": "1/s",
    "sim.pkts_batched": "count",
    "sim.batched_share": "frac",
    "batch.cohort_mean": "count",
    "fastpath.plan_compiles": "count",
    "fastpath.plan_hit_rate": "frac",
    "fastpath.plan_invalidations": "count",
    "stats.samples": "count",
    "stats.summary_s": "s",
    "topology.builds": "count",
    "topology.build_s": "s",
    "routing.router_init_s": "s",
    "routing.tables_s": "s",
    "traffic.setup_s": "s",
    "runner.pool_s": "s",
    "runner.spinup_s": "s",
    "runner.cell_p50_s": "s",
    "runner.cell_max_s": "s",
    "runner.busy_frac": "frac",
    "core.assign_s": "s",
    "core.plan_rings_s": "s",
    "core.fault_mc_s": "s",
    "flowsim.solves": "count",
    "flowsim.solve_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_rate": "frac",
    "telemetry.windows": "count",
    "telemetry.diagnose_s": "s",
    "faults.cuts": "count",
    "faults.channels_severed": "count",
    "faults.packets_severed": "count",
    "faults.setup_s": "s",
    "analysis.s": "s",
    "bench.cell_s": "s",
    ROOT: "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead": "ratio",
}

#: Span names whose self time is reported (every span the cells open).
SELF_TIMES = [name for name, unit in METRICS.items()
              if unit == "s" and name not in ("bench.traced_wall_s", "runner.spinup_s",
                                              "runner.cell_p50_s", "runner.cell_max_s")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def runner_metrics(spans: list[Span]) -> dict[str, float]:
    """Pool start-up, cell durations and busy share of the runner pools.

    ``spinup`` is the time from entering ``run_cells`` until the last
    worker starts its first cell; ``busy_frac`` is worker time spent in
    cells over workers times pool wall.
    """
    pools = [s for s in spans if s.name == "runner.pool_s"]
    if not pools:
        return {"runner.spinup_s": 0.0, "runner.cell_p50_s": 0.0,
                "runner.cell_max_s": 0.0, "runner.busy_frac": 0.0}
    pool_ids = {s.sid for s in pools}
    cells = [s for s in spans if s.name == "bench.cell_s" and s.parent in pool_ids]
    spinup, busy, capacity = 0.0, 0.0, 0.0
    for pool in pools:
        mine = [s for s in cells if s.parent == pool.sid]
        first: dict[int, float] = {}
        for s in mine:
            first[s.pid] = min(first.get(s.pid, s.start), s.start)
        spinup += max(first.values(), default=pool.start) - pool.start
        busy += sum(s.end - s.start for s in mine)
        capacity += len(first) * (pool.end - pool.start)
    durations = [s.end - s.start for s in cells]
    return {
        "runner.spinup_s": spinup,
        "runner.cell_p50_s": statistics.median(durations) if durations else 0.0,
        "runner.cell_max_s": max(durations, default=0.0),
        "runner.busy_frac": _ratio(busy, capacity),
    }


def calls(spans: list[Span], name: str) -> int:
    """Calls into a layer: spans named ``name`` not nested in another one."""
    by_id = {s.sid: s for s in spans}
    return sum(1 for s in spans if s.name == name
               and (s.parent is None or by_id[s.parent].name != name))


def per_layer(rec: Recorder, root: Span, obs_snapshot: dict,
              untraced_wall: float) -> tuple[dict, dict]:
    """The per-layer metrics of one traced pass, plus the raw self-time table."""
    share, busy = attribute(rec.spans, root)
    wall = root.end - root.start
    accounted = sum(share.values())
    if abs(accounted - wall) > 1e-9 * max(wall, 1.0):
        raise RuntimeError(f"self times sum to {accounted!r}, traced wall is {wall!r}")
    unknown = set(share) - set(SELF_TIMES)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")

    c = rec.counters
    counters = obs_snapshot.get("counters", {})
    cohort = obs_snapshot.get("timers", {}).get("batch.cohort_size", {})
    compiles = counters.get("fastpath.plan_compiles", 0)
    hits = counters.get("fastpath.plan_hits", 0)
    events = c.get("sim.events", 0)
    delivered = c.get("sim.pkts_delivered", 0)
    run_busy = busy.get("sim.run_s", 0.0)
    values = {name: share.get(name, 0.0) for name in SELF_TIMES}
    values.update(runner_metrics(rec.spans))
    values.update({
        "sim.events": events,
        "sim.us_per_event": _ratio(run_busy * 1e6, events),
        "sim.pkts_delivered": delivered,
        "sim.pkts_dropped": c.get("sim.pkts_dropped", 0),
        "sim.pkts_per_s": _ratio(delivered, run_busy),
        "sim.pkts_batched": counters.get("batch.packets", 0),
        "sim.batched_share": _ratio(counters.get("batch.packets", 0), delivered),
        "batch.cohort_mean": _ratio(cohort.get("total", 0), cohort.get("count", 0)),
        "fastpath.plan_compiles": compiles,
        "fastpath.plan_hit_rate": _ratio(hits, hits + compiles),
        "fastpath.plan_invalidations": counters.get("fastpath.plan_invalidations", 0),
        "stats.samples": c.get("stats.samples", 0),
        "topology.builds": calls(rec.spans, "topology.build_s"),
        "flowsim.solves": calls(rec.spans, "flowsim.solve_s"),
        "cache.hits": c.get("cache.hits", 0),
        "cache.misses": c.get("cache.misses", 0),
        "cache.hit_rate": _ratio(c.get("cache.hits", 0),
                                 c.get("cache.hits", 0) + c.get("cache.misses", 0)),
        "telemetry.windows": c.get("telemetry.windows", 0),
        "faults.cuts": c.get("faults.cuts", 0),
        "faults.channels_severed": c.get("faults.channels_severed", 0),
        "faults.packets_severed": c.get("faults.packets_severed", 0),
        "bench.traced_wall_s": wall,
        "bench.trace_overhead": _ratio(wall, untraced_wall),
    })
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
    return metrics, {"self_s": share, "busy_s": busy, "wall_s": wall}
