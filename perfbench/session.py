"""One benchmark process: ``python -m perfbench.session --mode ...``.

``run.py`` starts this in a fresh interpreter with a hermetic
environment and reads the JSON object it prints last.  Modes:

``probe``
    import the program, generate the seeded inputs, stop.  Only the
    set-up timestamp, and the host slowdown sampled over set-up, are
    reported.
``timed``
    after set-up, run passes over every cell, tracing off, until
    ``--seconds`` have gone by and at least ``MIN_PASSES`` are done;
    report one pass's wall and CPU time corrected for host speed (see
    :func:`corrected_times`), the peak RSS and the digests.
``trace``
    one untraced pass, one traced pass, one more untraced pass; report
    the per-layer metrics of the traced pass and write its spans out.
``reference``
    one untraced pass (``run.py`` sets the reference knobs); report the
    digests only.

Every pass starts from an empty in-process cache, as a fresh process
would.  The set-up timestamp is ``time.perf_counter()`` at the first
timed call; ``CLOCK_MONOTONIC`` is shared by all processes, so the
parent subtracts its own launch timestamp, and the set-up probes' own
time, and divides by the set-up slowdown to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from perfbench import hostspeed

#: Samples host speed over set-up: the imports below and input generation.
SETUP = hostspeed.Sampler()
if __name__ == "__main__":
    SETUP.start()

from perfbench import layers  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, digest, inputs_key, reset_caches, run_pass,
)

from repro import obs  # noqa: E402
from repro.obs.report import build_manifest  # noqa: E402

#: Fewest timed passes a run averages over.
MIN_PASSES = 3

OUT_DIR = Path(__file__).resolve().parent / "out"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def corrected_times(pooled: bool, runs: list[list[dict]], walls: list[float],
                    cpus: list[float]) -> tuple[float, float]:
    """Wall and CPU seconds of one pass at the host's uncontended speed.

    ``runs[p]`` holds pass ``p``'s cell outputs, each with its
    ``wall``, ``cpu`` and ``slowdown``; ``walls`` and ``cpus`` are the
    passes' own totals.  In-process, each cell's time is divided by its
    slowdown (:mod:`perfbench.hostspeed`), the median is taken over
    passes and the medians are summed over cells.  Pool cells overlap,
    so there each pass's total is divided by its cells' slowdown,
    weighted by their wall time, and the median is taken over passes.
    """
    if pooled:
        slow = [sum(o["wall"] for o in outs) / sum(o["wall"] / o["slowdown"] for o in outs)
                for outs in runs]
        return (statistics.median(w / f for w, f in zip(walls, slow)),
                statistics.median(c / f for c, f in zip(cpus, slow)))

    def per_cell(key: str) -> float:
        return sum(statistics.median(o[key] / o["slowdown"] for o in outs)
                   for outs in zip(*runs))
    return per_cell("wall"), per_cell("cpu")


def _timed_pass(workload, cells, rec: Recorder,
                probe: bool = False) -> tuple[list[dict], float, float]:
    reset_caches()
    gc.collect()  # the last pass's networks go now, not mid-pass
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    outs = run_pass(workload, cells, rec, probe=probe)
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    return outs, wall, cpu


def _digests(outs: list[dict]) -> list[str | None]:
    return [digest(o["result"]) if "result" in o else None for o in outs]


def _write_record(args, extra: dict) -> str:
    """Run provenance: commit, nproc, Python, seed, time, resolved knobs."""
    record = build_manifest(
        seeds=[args.seed],
        extra={
            "benchmark": "perfbench",
            "workload": args.workload,
            "mode": args.mode,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "timestamp": time.time(),
            **extra,
        },
    )
    path = OUT_DIR / "runs" / f"{args.workload}-seed{args.seed}-{args.mode}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    return str(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.session")
    parser.add_argument("--mode", choices=("probe", "timed", "trace", "reference"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cells = workload.inputs(args.seed)
    SETUP.stop()
    first_call = time.perf_counter()
    out: dict = {"setup_at": first_call, "setup_probes_s": SETUP.spent,
                 "setup_slowdown": SETUP.slowdown(),
                 "key": inputs_key(args.workload, cells),
                 "labels": [c["label"] for c in cells]}
    if args.mode == "probe":
        print(json.dumps(out))
        return 0

    untraced = Recorder(False)
    if args.mode == "reference":
        outs, _, _ = _timed_pass(workload, cells, untraced)
        out["digests"] = _digests(outs)
        out["errors"] = {i: o["error"] for i, o in enumerate(outs) if "error" in o}
        print(json.dumps(out))
        return 0

    if args.mode == "timed":
        walls, cpus, runs, passes = [], [], [], []
        while len(walls) < MIN_PASSES or time.perf_counter() - first_call < args.seconds:
            outs, wall, cpu = _timed_pass(workload, cells, untraced, probe=True)
            walls.append(wall)
            cpus.append(cpu)
            runs.append(outs)
            passes.append(_digests(outs))
        out["wall"], out["cpu"] = corrected_times(workload.pooled, runs, walls, cpus)
        out["peak_rss_mb"] = _peak_rss_mb()
        record = {"wall": out["wall"], "cpu": out["cpu"], "raw_walls": walls,
                  "raw_cpus": cpus, "peak_rss_mb": out["peak_rss_mb"],
                  "probe_min": min(o["probe_min"] for outs in runs for o in outs),
                  "slowdowns": [[o["slowdown"] for o in outs] for outs in runs],
                  "cell_walls": [[o["wall"] for o in outs] for outs in runs]}
    else:
        outs_before, before, _ = _timed_pass(workload, cells, untraced)
        obs.arm()
        rec = Recorder(True)
        reset_caches()
        gc.collect()
        with rec.span(layers.ROOT):
            root = rec.spans[-1]
            outs = run_pass(workload, cells, rec)
        snapshot = obs.registry().snapshot()
        obs.disarm()
        outs_after, after, _ = _timed_pass(workload, cells, untraced)
        # Armed observation must leave every digest as the untraced passes have it.
        passes = [_digests(outs), _digests(outs_before), _digests(outs_after)]
        metrics, table = layers.per_layer(rec, root, snapshot, (before + after) / 2)
        out["metrics"] = metrics
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(
            {"layers": table, "spans": [vars(s) for s in rec.spans], "obs": snapshot},
            sort_keys=True,
        ) + "\n")
        record = {"metrics": metrics, "trace": str(trace_path)}

    digests = passes[0]
    out["digests"] = digests
    out["errors"] = {i: o["error"] for i, o in enumerate(outs) if "error" in o}
    out["unstable"] = [
        i for i in range(len(cells)) if any(p[i] != digests[i] for p in passes)
    ]
    out["check_failures"] = workload.checks(cells, outs)
    out["record"] = _write_record(args, record)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
