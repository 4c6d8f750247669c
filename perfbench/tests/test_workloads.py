"""Seeded inputs, digest determinism and the output check."""

import json
from pathlib import Path

import pytest

from perfbench import layers, probes, run
from perfbench.spans import Recorder
from perfbench.workloads import WORKLOADS, digest, inputs_key, reset_caches, run_pass

ROOT = Path(__file__).resolve().parents[2]

#: Cheap cells of each workload (label prefixes), enough to exercise
#: every cell kind without running a whole pass.
CHEAP = {
    "fig14-crosstraffic": ("fig14/tree/0M", "fig14/quartz/0M"),
    "sec7-sweep": ("fig18/", "fig20/nonblocking/10G", "fig20/quartz-vlb/10G"),
    "design-space": ("fig5/greedy/1", "fig5/ilp/5", "fig6", "multiring/",
                     "fig10/1/2 bisection", "table8", "scaling/16"),
    "incast-diagnosis": (),
}


def _cheap_cells(name, seed):
    cells = WORKLOADS[name].inputs(seed)
    if name == "incast-diagnosis":
        return cells[:2]
    return [c for c in cells if c["label"].startswith(CHEAP[name])]


def _digests(name, cells, workers=None):
    reset_caches()
    outs = run_pass(WORKLOADS[name], cells, Recorder(False), workers=workers)
    assert all("result" in o for o in outs), [o.get("error") for o in outs]
    return [digest(o["result"]) for o in outs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    inputs = WORKLOADS[name].inputs
    assert inputs(7) == inputs(7)
    assert inputs_key(name, inputs(7)) == inputs_key(name, inputs(7))
    assert inputs_key(name, inputs(7)) != inputs_key(name, inputs(8))
    labels = [c["label"] for c in inputs(7)]
    assert len(labels) == len(set(labels))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_digests(name):
    cells = _cheap_cells(name, 3)
    assert cells
    assert _digests(name, cells) == _digests(name, cells)


def test_pool_digests_do_not_depend_on_worker_count():
    cells = _cheap_cells("sec7-sweep", 5)
    assert _digests("sec7-sweep", cells, workers=1) == _digests("sec7-sweep", cells, workers=2)


def test_probes_time_layers_without_changing_results():
    name = "sec7-sweep"
    cells = _cheap_cells(name, 5)
    originals = {t: vars(probes._owner(t)[0])[probes._owner(t)[1]]
                 for targets in probes.PROBES.values() for t in targets}
    reset_caches()
    rec = Recorder(True)
    with rec.span(layers.ROOT):
        outs = run_pass(WORKLOADS[name], cells, rec, workers=1)
    assert [digest(o["result"]) for o in outs] == _digests(name, cells)
    names = {s.name for s in rec.spans}
    assert {"topology.build_s", "routing.router_init_s", "sim.build_s", "sim.run_s",
            "traffic.setup_s", "stats.summary_s"} <= names
    assert rec.counters["sim.events"] > 0
    assert layers.calls(rec.spans, "topology.build_s") == len(cells)
    # Every probed entry point is the program's own function again.
    for target, original in originals.items():
        owner, attr = probes._owner(target)
        assert vars(owner)[attr] is original, target


def test_committed_references_match_their_inputs():
    files = sorted(run.REFERENCE_DIR.glob("*.json"))
    assert files
    for path in files:
        ref = json.loads(path.read_text())
        cells = WORKLOADS[ref["workload"]].inputs(ref["seed"])
        assert path.name == f"{ref['workload']}-{inputs_key(ref['workload'], cells)}.json"
        assert ref["labels"] == [c["label"] for c in cells]
        assert len(ref["digests"]) == len(cells) and None not in ref["digests"]
    for seed in (1, 7919):  # the default and the held-out seed
        for name in WORKLOADS:
            key = inputs_key(name, WORKLOADS[name].inputs(seed))
            assert (run.REFERENCE_DIR / f"{name}-{key}.json").exists(), (name, seed)


def test_digest_is_bit_exact():
    assert digest({"x": 0.1 + 0.2}) != digest({"x": 0.3})
    assert digest({"a": 1, "b": [2.5]}) == digest({"b": [2.5], "a": 1})


def _result(digests):
    return {"digests": digests, "errors": {}, "unstable": [], "check_failures": []}


def test_output_check_rejects_an_altered_digest():
    reference = ["aa", "bb", "cc"]
    assert run.failed_cells(_result(list(reference)), reference) == {}
    altered = _result(["aa", "bX", "cc"])
    assert list(run.failed_cells(altered, reference)) == [1]
    assert list(run.failed_cells(_result(list(reference)), ["aa", None, "cc"])) == [1]


def test_output_check_counts_errors_instability_and_paper_checks():
    result = _result(["aa", None, "cc", "dd"])
    result["errors"] = {"1": "Traceback ...\nRuntimeError: boom\n"}
    result["unstable"] = [2]
    result["check_failures"] = [["fig17 scatter: slowest is jellyfish", [0, 3]]]
    failed = run.failed_cells(result, ["aa", "bb", "cc", "dd"])
    assert sorted(failed) == [0, 1, 2, 3]
    assert failed[1] == "raised: RuntimeError: boom"


def test_paper_checks_flag_a_wrong_shape():
    name = "sec7-sweep"
    cells = WORKLOADS[name].inputs(1)
    outs = []
    for cell in cells:
        mean = 1.0 if cell["label"].startswith("fig17/scatter/jellyfish") else 0.5
        outs.append({"result": {"summary": {"mean": mean}}})
    failures = WORKLOADS[name].checks(cells, outs)
    assert [msg for msg, _ in failures] == ["fig17 scatter: slowest is jellyfish"]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "cpu_s", "peak_rss_mb", "pass_frac"]
