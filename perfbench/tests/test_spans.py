"""Self-time arithmetic and runner accounting on hand-built span trees."""

import pytest

from perfbench.layers import runner_metrics
from perfbench.spans import Recorder, Span, attribute


def _tree():
    # root [0, 10): A [1, 4) holds B [2, 3); C [5, 9) and D [6, 8) run
    # side by side in two worker processes under root.
    return [
        Span(0, None, "root", 0.0, 10.0, pid=1),
        Span(1, 0, "A", 1.0, 4.0, pid=1),
        Span(2, 1, "B", 2.0, 3.0, pid=1),
        Span(3, 0, "C", 5.0, 9.0, pid=2),
        Span(4, 0, "D", 6.0, 8.0, pid=3),
    ]


def test_self_times_split_overlap_and_sum_to_wall():
    spans = _tree()
    share, busy = attribute(spans, spans[0])
    assert share == pytest.approx({"root": 3.0, "A": 2.0, "B": 1.0, "C": 3.0, "D": 1.0})
    assert sum(share.values()) == pytest.approx(10.0)
    # Busy time counts each overlapping worker span in full.
    assert busy == pytest.approx({"root": 3.0, "A": 2.0, "B": 1.0, "C": 4.0, "D": 2.0})


def test_child_sharing_parent_bounds_leaves_parent_no_self_time():
    spans = [Span(0, None, "root", 0.0, 2.0), Span(1, 0, "X", 0.0, 2.0),
             Span(2, 1, "Y", 0.0, 1.0)]
    share, _ = attribute(spans, spans[0])
    assert share == pytest.approx({"X": 1.0, "Y": 1.0})


def test_spans_outside_the_root_are_clipped():
    spans = [Span(0, None, "root", 1.0, 3.0), Span(1, 0, "X", 0.0, 2.0),
             Span(2, None, "late", 5.0, 6.0)]
    share, _ = attribute(spans, spans[0])
    assert share == pytest.approx({"X": 1.0, "root": 1.0})


def test_zero_length_span_leaves_its_parent_accountable():
    spans = [Span(0, None, "root", 0.0, 2.0), Span(1, 0, "A", 1.0, 1.0)]
    share, _ = attribute(spans, spans[0])
    assert share == pytest.approx({"root": 2.0})


def test_recorder_nests_and_ingests_worker_spans():
    rec = Recorder(True)
    with rec.span("root"):
        with rec.span("pool"):
            pool = rec.current()
    worker = Recorder(True)
    with worker.span("cell", cell="c0"):
        with worker.span("inner"):
            worker.count("n", 2)
    rec.ingest(worker.spans, worker.counters, parent=pool)
    names = {s.name: s for s in rec.spans}
    assert names["cell"].parent == pool
    assert names["inner"].parent == names["cell"].sid
    assert names["inner"].cell == "c0"
    assert rec.counters == {"n": 2}


def test_disarmed_recorder_records_nothing():
    rec = Recorder(False)
    with rec.span("x"):
        rec.count("n")
    rec.ingest([Span(0, None, "y", 0.0, 1.0)], {"n": 1}, parent=None)
    assert rec.spans == [] and rec.counters == {}


def test_runner_metrics():
    spans = [
        Span(0, None, "bench.other_s", 0.0, 12.0, pid=1),
        Span(1, 0, "runner.pool_s", 1.0, 11.0, pid=1),
        Span(2, 1, "bench.cell_s", 2.0, 6.0, pid=2),
        Span(3, 1, "bench.cell_s", 6.0, 10.0, pid=2),
        Span(4, 1, "bench.cell_s", 3.0, 5.0, pid=3),
    ]
    got = runner_metrics(spans)
    assert got["runner.spinup_s"] == pytest.approx(2.0)  # pid 3 starts at 3.0
    assert got["runner.cell_p50_s"] == pytest.approx(4.0)
    assert got["runner.cell_max_s"] == pytest.approx(4.0)
    assert got["runner.busy_frac"] == pytest.approx(10.0 / 20.0)
    assert runner_metrics(spans[:1])["runner.busy_frac"] == 0.0
