"""The four benchmark workloads: seeded inputs, cells, digests, paper checks.

Every cell calls the program's own experiment function or public
layer function for one paper artifact (``repro.workloads.crosstraffic``,
``repro.experiments``, ``repro.core``, ``repro.cost``,
``repro.analysis``) and returns its result as plain data.
:func:`digest` hashes that bit-exactly, so the same inputs under the
reference configuration (fast path, batching and cache off) must give
the same digest.  Layer timings come from :mod:`perfbench.probes`,
which a traced pass installs around the layer calls those make.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import time
import traceback
from typing import Any, Callable

from perfbench import hostspeed, probes
from perfbench.spans import Recorder
from repro import analysis, cost
from repro.cache import artifact_cache
from repro.core import channels, fault, multiring
from repro.experiments.bisection import PATTERNS, run_bisection_cell
from repro.experiments.pathological import run_pathological
from repro.experiments.queue_diagnosis import run_queue_diagnosis_cell
from repro.experiments.section7 import run_task_experiment
from repro.runner import ExperimentSpec, run_cells
from repro.units import GBPS, MBPS
from repro.workloads.crosstraffic import run_cross_traffic_experiment

#: Worker processes for the pooled workload (the benchmark host's nproc).
POOL_WORKERS = 2

#: Figure 14: the paper's 400 RPCs at no load and at one loaded
#: cross-traffic level inside the paper's 0-200 Mb/s range.  The
#: program's experiment runs every cell to 30 s of simulated time, so
#: a cell's cost grows with the level, not with the call count.
FIG14_CALLS = 400
FIG14_LEVELS_BPS = (0.0, 60 * MBPS)

SEC7_FIG17 = {"scatter": (2,), "scatter_gather": (2,)}
SEC7_FIG17_TOPOLOGIES = (
    "three-tier tree",
    "jellyfish",
    "quartz in core",
    "quartz in edge",
    "quartz in edge and core",
)
SEC7_FIG18_TOPOLOGIES = (
    "three-tier tree",
    "jellyfish",
    "quartz in jellyfish",
    "quartz in edge and core",
)
SEC7_FIG18_TASKS = (2,)
SEC7_FIG18_SEEDS = 2
SEC7_FIG20_LOADS_GBPS = (10, 50)

FIG5_GREEDY_SIZES = range(2, 41)
FIG5_ILP_SIZES = range(2, 10)
FIG6_RING_SIZE = 33
FIG6_TRIALS = 25
#: Figure 10's fabrics: Quartz against the full-, half- and
#: quarter-bisection references (the paper's bars).
FIG10_FABRICS = ("full bisection", "quartz", "1/2 bisection", "1/4 bisection")
MULTIRING_COUNTS = (2, 3, 4)
SCALING_PORTS = (16, 64, 128)

INCAST_SEEDS = 8


def _seed(rng: random.Random) -> int:
    return rng.randrange(1_000_000)


# -- seeded inputs -----------------------------------------------------------


def fig14_inputs(seed: int) -> list[dict]:
    cross_seed = _seed(random.Random(seed))
    return [
        {"kind": "fig14", "label": f"fig14/{wiring}/{level / MBPS:.0f}M",
         "wiring": wiring, "level_bps": level, "seed": cross_seed}
        for wiring in ("tree", "quartz")
        for level in FIG14_LEVELS_BPS
    ]


def sec7_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cells = []
    for kind, counts in SEC7_FIG17.items():
        placement = _seed(rng)
        cells += [
            {"kind": "task", "label": f"fig17/{kind}/{topo}/{n}", "figure": 17,
             "task": kind, "topology": topo, "tasks": n, "seed": placement}
            for topo in SEC7_FIG17_TOPOLOGIES
            for n in counts
        ]
    placements = [_seed(rng) for _ in range(SEC7_FIG18_SEEDS)]
    cells += [
        {"kind": "task", "label": f"fig18/gather/{topo}/{n}/{s}", "figure": 18,
         "task": "gather", "topology": topo, "tasks": n, "seed": s}
        for topo in SEC7_FIG18_TOPOLOGIES
        for n in SEC7_FIG18_TASKS
        for s in placements
    ]
    fig20_seed = _seed(rng)
    cells += [
        {"kind": "fig20", "label": f"fig20/{fabric}/{g}G", "fabric": fabric,
         "load_bps": g * GBPS, "seed": fig20_seed}
        for fabric in ("nonblocking", "quartz-ecmp", "quartz-vlb")
        for g in SEC7_FIG20_LOADS_GBPS
    ]
    return cells


def design_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    fig6_seed, fig10_seed = _seed(rng), _seed(rng)
    cells = [{"kind": "greedy", "label": f"fig5/greedy/{m}", "ring": m}
             for m in FIG5_GREEDY_SIZES]
    cells += [{"kind": "ilp", "label": f"fig5/ilp/{m}", "ring": m} for m in FIG5_ILP_SIZES]
    cells.append({"kind": "fig6", "label": "fig6", "seed": fig6_seed})
    cells += [
        {"kind": "plan_rings", "label": f"multiring/{FIG6_RING_SIZE}/{r}", "rings": r}
        for r in MULTIRING_COUNTS
    ]
    cells += [
        {"kind": "fig10", "label": f"fig10/{fabric}/{pattern}", "fabric": fabric,
         "pattern": pattern, "seed": fig10_seed}
        for pattern in PATTERNS
        for fabric in FIG10_FABRICS
    ]
    cells.append({"kind": "table8", "label": "table8"})
    cells += [{"kind": "scaling", "label": f"scaling/{p}", "ports": p} for p in SCALING_PORTS]
    return cells


def incast_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    seeds = [_seed(rng) for _ in range(INCAST_SEEDS)]
    return [
        {"kind": "incast", "label": f"incast/{s}/{'cut' if cut else 'clean'}",
         "seed": s, "cut": cut}
        for s in seeds
        for cut in (False, True)
    ]


# -- cells -------------------------------------------------------------------


def _plain(result: Any) -> Any:
    if isinstance(result, list):
        return [_plain(r) for r in result]
    return dataclasses.asdict(result) if dataclasses.is_dataclass(result) else result


def fig14_cell(cell: dict) -> Any:
    return run_cross_traffic_experiment(
        cell["wiring"], cell["level_bps"], num_calls=FIG14_CALLS, seed=cell["seed"])


def task_cell(cell: dict) -> Any:
    return run_task_experiment(cell["topology"], cell["task"], cell["tasks"],
                               localized=cell["figure"] == 18, seed=cell["seed"])


def fig20_cell(cell: dict) -> Any:
    return run_pathological(cell["fabric"], cell["load_bps"], seed=cell["seed"])


def greedy_cell(cell: dict) -> Any:
    return {"channels": channels.greedy_assignment(cell["ring"]).num_channels}


def ilp_cell(cell: dict) -> Any:
    return {"channels": channels.ilp_assignment(cell["ring"]).num_channels}


def fig6_cell(cell: dict) -> Any:
    return fault.figure6_sweep(FIG6_RING_SIZE, trials=FIG6_TRIALS, seed=cell["seed"])


def plan_rings_cell(cell: dict) -> Any:
    plan = multiring.plan_rings(FIG6_RING_SIZE, num_rings=cell["rings"])
    return {
        "wavelengths": [plan.wavelengths_on_ring(r) for r in range(plan.num_rings)],
        "imbalance": plan.max_segment_imbalance(),
    }


def fig10_cell(cell: dict) -> Any:
    return run_bisection_cell(cell["fabric"], cell["pattern"], seed=cell["seed"])


def table8_cell(cell: dict) -> Any:
    return cost.table8()


def scaling_cell(cell: dict) -> Any:
    return analysis.scaling_table((cell["ports"],), method="greedy")


def incast_cell(cell: dict) -> Any:
    return run_queue_diagnosis_cell(seed=cell["seed"], cut=cell["cut"])


CELLS: dict[str, Callable[[dict], Any]] = {
    "fig14": fig14_cell,
    "task": task_cell,
    "fig20": fig20_cell,
    "greedy": greedy_cell,
    "ilp": ilp_cell,
    "fig6": fig6_cell,
    "plan_rings": plan_rings_cell,
    "fig10": fig10_cell,
    "table8": table8_cell,
    "scaling": scaling_cell,
    "incast": incast_cell,
}


def run_cell(cell: dict, rec: Recorder, probe: bool = False) -> dict:
    """Run one cell; a raised exception becomes the cell's ``error``.

    ``wall`` and ``cpu`` are the cell's host wall and process CPU
    seconds.  With ``probe``, a host-speed sampler runs around and during
    the cell (:mod:`perfbench.hostspeed`): ``slowdown`` is what it saw,
    ``probe_min`` its fastest probe, and ``wall`` and ``cpu`` leave out
    the probes' own time.
    """
    sampler = hostspeed.Sampler()
    with rec.span("bench.cell_s", cell=cell["label"]):
        stats = artifact_cache().stats
        hits, misses = stats.hits, stats.misses
        cpu0, t0 = time.process_time(), time.perf_counter()
        with sampler if probe else contextlib.nullcontext():
            try:
                out = {"result": _plain(CELLS[cell["kind"]](cell))}
            except Exception:  # a failing cell is counted, the run goes on
                out = {"error": traceback.format_exc(limit=4)}
        out["wall"] = time.perf_counter() - t0 - sampler.spent
        out["cpu"] = time.process_time() - cpu0 - sampler.spent
        rec.count("cache.hits", stats.hits - hits)
        rec.count("cache.misses", stats.misses - misses)
    if probe:
        out["slowdown"], out["probe_min"] = sampler.slowdown(), min(sampler.samples)
    return out


def pool_cell(cell: dict, traced: bool, probe: bool) -> dict:
    """Worker-side :func:`run_cell`: ships spans and counters home."""
    rec = Recorder(traced)
    with probes.installed(rec):
        out = run_cell(cell, rec, probe)
    out["spans"], out["counters"] = rec.spans, rec.counters
    return out


def run_pass(workload: "Workload", cells: list[dict], rec: Recorder,
             workers: int | None = None, probe: bool = False) -> list[dict]:
    """Run every cell of one pass, in-process or over the runner pool."""
    if not workload.pooled:
        with probes.installed(rec):
            return [run_cell(cell, rec, probe) for cell in cells]
    specs = [
        ExperimentSpec(pool_cell, args=(cell, rec.traced, probe), label=cell["label"])
        for cell in cells
    ]
    with rec.span("runner.pool_s"):
        pool_span = rec.current()
        outs = run_cells(specs, workers=workers or POOL_WORKERS)
    for out in outs:
        rec.ingest(out.pop("spans"), out.pop("counters"), parent=pool_span)
    return outs


# -- output checks -----------------------------------------------------------


def digest(result: dict) -> str:
    """Bit-exact digest: JSON floats print as their shortest round-trip repr."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def inputs_key(workload: str, cells: list[dict]) -> str:
    """Names one (workload, seed, size): a hash of the generated inputs."""
    text = json.dumps([workload, cells], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _by_label(cells: list[dict], outs: list[dict]) -> dict[str, tuple[int, Any]]:
    return {
        cell["label"]: (i, out.get("result"))
        for i, (cell, out) in enumerate(zip(cells, outs))
    }


def fig14_checks(cells: list[dict], outs: list[dict]) -> list[tuple[str, list[int]]]:
    """Fig. 14: the tree's RPC latency rises under load, Quartz stays flat."""
    got = _by_label(cells, outs)
    base, loaded = (f"{lvl / MBPS:.0f}M" for lvl in FIG14_LEVELS_BPS)
    row = {(w, lvl): got[f"fig14/{w}/{lvl}"] for w in ("tree", "quartz") for lvl in (base, loaded)}
    if any(res is None for _, res in row.values()):
        return []
    norm = {
        w: row[w, loaded][1]["mean_rpc_latency"] / row[w, base][1]["mean_rpc_latency"]
        for w in ("tree", "quartz")
    }
    if norm["tree"] > 1.0 and norm["quartz"] < 1.05 and norm["tree"] > norm["quartz"]:
        return []
    return [(f"fig14 shape: normalized latency {norm}", [i for i, _ in row.values()])]


def sec7_checks(cells: list[dict], outs: list[dict]) -> list[tuple[str, list[int]]]:
    """Fig. 17: the three-tier tree is the slowest fabric at the panel's
    largest task count."""
    got = _by_label(cells, outs)
    failures = []
    for kind, counts in SEC7_FIG17.items():
        n = max(counts)
        row = {t: got[f"fig17/{kind}/{t}/{n}"] for t in SEC7_FIG17_TOPOLOGIES}
        if any(res is None for _, res in row.values()):
            continue
        means = {t: res["summary"]["mean"] for t, (_, res) in row.items()}
        slowest = max(means, key=means.get)
        if slowest != "three-tier tree":
            failures.append((f"fig17 {kind}: slowest is {slowest}",
                             [i for i, _ in row.values()]))
    return failures


def design_checks(cells: list[dict], outs: list[dict]) -> list[tuple[str, list[int]]]:
    """Fig. 5: greedy needs 136-140 wavelengths on the 33-switch ring."""
    i, res = _by_label(cells, outs)[f"fig5/greedy/{FIG6_RING_SIZE}"]
    if res is not None and not 136 <= res["channels"] <= 140:
        return [(f"fig5: greedy(33) = {res['channels']}", [i])]
    return []


def incast_checks(cells: list[dict], outs: list[dict]) -> list[tuple[str, list[int]]]:
    """Diagnosis precision and recall are 1.0: every cell's top-1 port and
    flow are the injected truth."""
    failures = []
    for i, out in enumerate(outs):
        res = out.get("result")
        if res is None:
            continue
        if res["detected_port"] != res["true_port"] or res["detected_flow"] != res["true_flow"]:
            failures.append((f"{cells[i]['label']}: diagnosed {res['detected_port']} "
                             f"{res['detected_flow']}", [i]))
    return failures


@dataclasses.dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], list[dict]]
    checks: Callable[[list[dict], list[dict]], list[tuple[str, list[int]]]]
    pooled: bool = False


WORKLOADS: dict[str, Workload] = {
    "fig14-crosstraffic": Workload(fig14_inputs, fig14_checks),
    "sec7-sweep": Workload(sec7_inputs, sec7_checks, pooled=True),
    "design-space": Workload(design_inputs, design_checks),
    "incast-diagnosis": Workload(incast_inputs, incast_checks),
}


def reset_caches() -> None:
    """Forget every in-process memo so each pass starts as a fresh process."""
    from repro.cache import reset

    reset()
    channels.wavelengths_required.cache_clear()
