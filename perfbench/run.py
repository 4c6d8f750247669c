"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is measured from source
(``src/``); nothing is built.  Each measurement is a fresh
``python -m perfbench.session`` process with every ``REPRO_*`` variable
cleared, so the program runs at its defaults (memory-only artifact
cache, fast path and batching on, telemetry and obs off).

``--trace 0`` prints the end-to-end metrics:

* ``wall_s`` / ``cpu_s``: one pass's host wall time, and its user+sys
  CPU time (process and pool workers), corrected for the host's speed
  at the time (``perfbench/hostspeed.py``): median over the timed
  passes, per cell for the in-process workloads;
* ``setup_s``: median, over ``SETUP_PROBES`` set-up-only processes and
  the timed process, of the time from launching the interpreter to the
  first timed call (imports plus seeded input generation), corrected
  for host speed as the passes are;
* ``peak_rss_mb``: the largest resident set of the timed process or
  any of its workers;
* ``pass_frac``: cells that passed over cells attempted.

``--trace 1`` prints the per-layer metrics of one traced pass (see
``perfbench/layers.py``).

Either way every cell's digest is compared with the reference
configuration's at the same inputs (``REFERENCE_ENV``).  The references
of the default and held-out seeds (and a few more) are committed under
``perfbench/reference/``; ``--write-reference`` computes one there.
For any other seed the reference is computed from the current tree and
cached under ``perfbench/out/reference/``.  A mismatch, an exception or
a failed paper-shape check fails the cell.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
#: Reference digests kept with the benchmark, one file per workload and input set.
REFERENCE_DIR = ROOT / "perfbench" / "reference"

#: Set-up-only processes per run, besides the timed process itself.
SETUP_PROBES = 4

#: The in-tree reference configuration: every fast layer off.
REFERENCE_ENV = {
    "REPRO_FASTPATH_DISABLE": "1",
    "REPRO_BATCH_DISABLE": "1",
    "REPRO_CACHE_DISABLE": "1",
}

#: A run abandons its sessions once this long has gone by since it began.
RUN_DEADLINE_S = 170

WORKLOAD_NAMES = ("fig14-crosstraffic", "sec7-sweep", "design-space", "incast-diagnosis")


class BenchError(RuntimeError):
    pass


def hermetic_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(extra or {})
    return env


def session(mode: str, args: argparse.Namespace, env: dict[str, str]) -> tuple[dict, float]:
    """Run one session process; returns its JSON result and launch time.

    The session leads its own process group, so on a timeout its pool
    workers are killed with it.
    """
    cmd = [sys.executable, "-m", "perfbench.session", "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=args.deadline - launched)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} session ran past the {RUN_DEADLINE_S}s run deadline")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise BenchError(f"{mode} session exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} session printed no result")
    return json.loads(lines[-1]), launched


def setup_seconds(result: dict, launched: float) -> float:
    """A session's launch-to-first-call time, corrected for host speed."""
    raw = result["setup_at"] - launched - result["setup_probes_s"]
    return raw / result["setup_slowdown"]


def source_fingerprint() -> str:
    """Hash of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:20]


def compute_reference(args: argparse.Namespace, key: str) -> dict:
    """Run the reference configuration once, untimed, on these inputs."""
    ref, _ = session("reference", args, hermetic_env(REFERENCE_ENV))
    if ref["key"] != key:
        raise BenchError("reference session generated different inputs")
    return {"workload": args.workload, "seed": args.seed, "key": key,
            "labels": ref["labels"], "digests": ref["digests"]}


def write_json(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    tmp.replace(path)


def reference_digests(args: argparse.Namespace, key: str) -> list[str | None]:
    """The reference digests for these inputs.

    Seeds with a reference committed under ``REFERENCE_DIR`` use it, so
    a change to what both configurations compute still fails the check.
    Any other seed's reference is computed from the current tree and
    cached under ``OUT_DIR``; it only compares the two configurations.
    """
    committed = REFERENCE_DIR / f"{args.workload}-{key}.json"
    if committed.exists():
        return json.loads(committed.read_text())["digests"]
    path = OUT_DIR / "reference" / f"{args.workload}-{key}-{source_fingerprint()}.json"
    if not path.exists():
        print(f"note: no committed reference for {args.workload} seed {args.seed}; "
              "checking against one computed from the current tree", file=sys.stderr)
        write_json(path, compute_reference(args, key))
    return json.loads(path.read_text())["digests"]


def failed_cells(result: dict, reference: list[str | None]) -> dict[int, str]:
    """Cell index -> why it failed."""
    failed = {int(i): "raised: " + err.strip().splitlines()[-1]
              for i, err in result["errors"].items()}
    for i, (got, want) in enumerate(zip(result["digests"], reference)):
        if want is None:
            failed.setdefault(i, "raised under the reference configuration")
        elif got != want:
            failed.setdefault(i, "digest differs from the reference configuration")
    for i in result["unstable"]:
        failed.setdefault(i, "digest changed between passes")
    for message, cells in result["check_failures"]:
        for i in cells:
            failed.setdefault(i, message)
    return failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="compute this seed's reference digests into "
                             "perfbench/reference/ and stop")
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            probe, _ = session("probe", args, hermetic_env())
            path = REFERENCE_DIR / f"{args.workload}-{probe['key']}.json"
            write_json(path, compute_reference(args, probe["key"]))
            print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
            return 0
        env = hermetic_env()
        if args.trace:
            result, _ = session("trace", args, env)
            metrics = result["metrics"]
        else:
            setups = []
            for _ in range(SETUP_PROBES):
                probe, launched = session("probe", args, env)
                setups.append(setup_seconds(probe, launched))
            result, launched = session("timed", args, env)
            setups.append(setup_seconds(result, launched))
        failed = failed_cells(result, reference_digests(args, result["key"]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(result["labels"])
    if not args.trace:
        metrics = {
            "wall_s": metric(result["wall"], "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "cpu_s": metric(result["cpu"], "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "pass_frac": metric((attempted - len(failed)) / attempted, "frac"),
        }
    for i, why in sorted(failed.items()):
        print(f"FAILED {result['labels'][i]}: {why}", file=sys.stderr)
    print(f"run record: {result['record']}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
