"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, fired.append, "b")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(3.0, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        engine = Engine()
        fired = []
        for tag in "xyz":
            engine.schedule(1.0, fired.append, tag)
        engine.run()
        assert fired == ["x", "y", "z"]

    def test_now_advances(self):
        engine = Engine()
        seen = []
        engine.schedule(0.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.5]

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append("outer")
            engine.schedule(1.0, lambda: fired.append("inner"))

        engine.schedule(1.0, outer)
        engine.run()
        assert fired == ["outer", "inner"]
        assert engine.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)


class TestRunControl:
    def test_until_horizon_stops_and_advances_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(10.0, fired.append, "late")
        engine.run(until=5.0)
        assert fired == ["early"]
        assert engine.now == 5.0
        engine.run()
        assert fired == ["early", "late"]

    def test_max_events_bound(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(float(i + 1), fired.append, i)
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_cancelled_events_do_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, fired.append, "no")
        engine.schedule(2.0, fired.append, "yes")
        event.cancel()
        engine.run()
        assert fired == ["yes"]

    def test_events_processed_counter(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2

    def test_pending_count(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        assert engine.pending() == 1
        engine.run()
        assert engine.pending() == 0

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        live = engine.schedule(1.0, lambda: None)
        doomed = engine.schedule(2.0, lambda: None)
        doomed.cancel()
        assert engine.pending() == 1
        assert not live.cancelled

    def test_cancel_is_idempotent_and_noop_after_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, fired.append, "x")
        engine.run()
        assert fired == ["x"]
        event.cancel()  # after fire: no-op
        event.cancel()  # idempotent
        assert engine.pending() == 0

    def test_cancel_reports_whether_it_revoked(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        assert event.cancel() is True
        assert event.cancel() is False  # second cancel revokes nothing
        assert engine.pending() == 0

    def test_cancel_after_fire_is_truthful(self):
        # Regression: cancel() used to set ``cancelled`` even when the
        # callback had already fired, so the handle claimed it revoked
        # work it did not.
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, fired.append, "x")
        engine.run()
        assert event.cancel() is False
        assert not event.cancelled
        assert fired == ["x"]
        assert engine.pending() == 0

    def test_cancel_inside_own_callback_is_noop(self):
        engine = Engine()
        fired = []
        holder = []

        def callback():
            fired.append("once")
            assert holder[0].cancel() is False

        holder.append(engine.schedule(1.0, callback))
        engine.run()
        assert fired == ["once"]
        assert not holder[0].cancelled
        assert engine.pending() == 0

    def test_pending_exact_across_compaction_boundary(self):
        # Cancel handles one at a time straight through the compaction
        # threshold: pending() must stay exact on both sides, and
        # handles whose entries compaction already removed must refuse
        # to double-count.  White-box on the heap, so pin it explicitly
        # (REPRO_SCHEDULER may select the bucket queue).
        engine = Engine(scheduler="heap")
        live = [engine.schedule(100.0 + i, lambda: None) for i in range(4)]
        doomed = [engine.schedule(float(i + 1), lambda: None) for i in range(20)]
        for index, event in enumerate(doomed):
            assert event.cancel() is True
            assert engine.pending() == 4 + len(doomed) - index - 1
        assert len(engine._heap) < 8  # compaction dropped most of the dead
        for event in doomed:
            assert event.cancel() is False  # entry long gone from heap
        assert engine.pending() == 4
        engine.run()
        assert engine.events_processed == 4
        assert engine.pending() == 0
        assert not any(event.cancelled for event in live)

    def test_heap_compacts_when_mostly_cancelled(self):
        engine = Engine(scheduler="heap")
        keep = engine.schedule(100.0, lambda: None)
        doomed = [engine.schedule(float(i + 1), lambda: None) for i in range(64)]
        for event in doomed:
            event.cancel()
        # More than half the heap is dead: compaction must have dropped
        # the cancelled entries while keeping the live one schedulable.
        assert len(engine._heap) < 32
        assert engine.pending() == 1
        engine.run()
        assert engine.now == 100.0
        assert not keep.cancelled
        assert engine.events_processed == 1


class TestDeterministicOrdering:
    """Regression tests for the scheduling-order contract.

    Same-timestamp events must fire in the order they were scheduled,
    regardless of which API scheduled them (``schedule``, ``schedule_at``,
    ``call_at``) and regardless of interleaved cancellations — packet
    traces rely on this for bit-identical reruns.
    """

    def test_call_at_interleaved_with_schedule_keeps_order(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.call_at(1.0, fired.append, "b")
        engine.schedule_at(1.0, fired.append, "c")
        engine.call_at(1.0, fired.append, "d")
        engine.run()
        assert fired == ["a", "b", "c", "d"]

    def test_order_survives_interleaved_cancellation(self):
        engine = Engine()
        fired = []
        events = [engine.schedule(1.0, fired.append, tag) for tag in "abcdef"]
        events[1].cancel()
        events[4].cancel()
        engine.call_at(1.0, fired.append, "g")
        engine.run()
        assert fired == ["a", "c", "d", "f", "g"]

    def test_order_survives_compaction(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, fired.append, "first")
        engine.call_at(5.0, fired.append, "second")
        doomed = [engine.schedule(1.0, lambda: None) for _ in range(32)]
        engine.schedule(5.0, fired.append, "third")
        for event in doomed:
            event.cancel()  # triggers compaction mid-stream
        engine.call_at(5.0, fired.append, "fourth")
        engine.run()
        assert fired == ["first", "second", "third", "fourth"]


class TestCallAtMany:
    def test_bulk_matches_individual_pushes(self):
        bulk = Engine()
        single = Engine()
        fired_bulk, fired_single = [], []
        items = [(0.3, fired_bulk.append, ("a",)), (0.1, fired_bulk.append, ("b",)),
                 (0.2, fired_bulk.append, ("c",))]
        bulk.call_at_many(items)
        for when, _cb, args in items:
            single.call_at(when, fired_single.append, *args)
        bulk.run()
        single.run()
        assert fired_bulk == fired_single == ["b", "c", "a"]
        assert bulk.events_processed == single.events_processed

    def test_equal_times_keep_submission_order(self):
        engine = Engine()
        fired = []
        engine.call_at(1.0, fired.append, "before")
        engine.call_at_many(
            [(1.0, fired.append, ("x",)), (1.0, fired.append, ("y",))]
        )
        engine.call_at(1.0, fired.append, "after")
        engine.run()
        assert fired == ["before", "x", "y", "after"]

    def test_bucket_scheduler_bulk(self):
        engine = Engine(scheduler="bucket")
        fired = []
        engine.call_at_many(
            [(2e-6, fired.append, ("b",)), (1e-6, fired.append, ("a",)),
             (3e-6, fired.append, ("c",))]
        )
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_past_time_rejected_and_sequence_stays_consistent(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at_many([(6.0, lambda: None, ()), (1.0, lambda: None, ())])
        # Sequence numbers consumed by the failed bulk push must not
        # reorder later same-time events.
        fired = []
        engine.call_at(6.0, fired.append, "first")
        engine.call_at(6.0, fired.append, "second")
        engine.run()
        assert fired == ["first", "second"]


class TestPeekTime:
    def test_empty_queue_is_infinite(self):
        assert Engine().peek_time() == float("inf")

    def test_reports_head_time(self):
        engine = Engine()
        engine.schedule(2.0, lambda: None)
        engine.schedule(1.0, lambda: None)
        assert engine.peek_time() == 1.0

    def test_bucket_scheduler_lower_bound(self):
        engine = Engine(scheduler="bucket")
        engine.schedule(3e-6, lambda: None)
        assert engine.peek_time() <= 3e-6

    def test_updates_inside_run(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.peek_time()))
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert seen == [2.0]


class TestCreditEvents:
    def test_counts_logical_events(self):
        engine = Engine()
        engine.credit_events(5)
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 7

    def test_batching_ok_only_inside_unbounded_or_until_runs(self):
        engine = Engine()
        assert not engine.batching_ok
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.batching_ok))
        engine.run(until=2.0)
        assert seen == [True]
        assert not engine.batching_ok
        engine.schedule(3.0, lambda: seen.append(engine.batching_ok))
        engine.run(max_events=1)
        assert seen == [True, False]

    def test_run_horizon_visible_during_until_run(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.run_horizon))
        engine.run(until=4.0)
        assert seen == [4.0]
        assert engine.run_horizon is None


#: Every run-loop shape ``stop()`` must unwind: the two specialized heap
#: loops, the general loop (forced by ``max_events``), and the bucket
#: scheduler (always the general loop).
RUN_SHAPES = [
    pytest.param("heap", {"until": 50.0}, id="until"),
    pytest.param("heap", {}, id="unbounded"),
    pytest.param("heap", {"max_events": 1000}, id="max_events"),
    pytest.param("bucket", {"until": 50.0}, id="bucket"),
]


def _stop_scenario(scheduler: str):
    """Events at t=1, 2, 2, 2, 3, 4; the first t=2 event calls stop()."""
    engine = Engine(scheduler=scheduler)
    fired = []

    def stopper():
        fired.append("stop")
        engine.stop()
        # Scheduled after the stop, at the same instant: must not fire.
        engine.call_at(engine.now, fired.append, "after-stop")

    engine.call_at(1.0, fired.append, "t1")
    engine.call_at(2.0, stopper)
    engine.call_at(2.0, fired.append, "t2-a")
    engine.call_at(2.0, fired.append, "t2-b")
    engine.call_at(3.0, fired.append, "t3")
    engine.call_at(4.0, fired.append, "t4")
    return engine, fired


class TestStop:
    @pytest.mark.parametrize("scheduler, kwargs", RUN_SHAPES)
    def test_queued_same_instant_events_fire_later_ones_do_not(self, scheduler, kwargs):
        engine, fired = _stop_scenario(scheduler)
        engine.run(**kwargs)
        assert fired == ["t1", "stop", "t2-a", "t2-b"]

    @pytest.mark.parametrize("scheduler, kwargs", RUN_SHAPES)
    def test_clock_stays_at_stop_instant(self, scheduler, kwargs):
        engine, _ = _stop_scenario(scheduler)
        engine.run(**kwargs)
        assert engine.now == 2.0  # not advanced to ``until``

    @pytest.mark.parametrize("scheduler, kwargs", RUN_SHAPES)
    def test_events_processed_excludes_the_sentinel(self, scheduler, kwargs):
        engine, fired = _stop_scenario(scheduler)
        engine.run(**kwargs)
        assert engine.events_processed == len(fired) == 4
        assert engine.pending() == 3  # after-stop, t3, t4

    @pytest.mark.parametrize("scheduler, kwargs", RUN_SHAPES)
    def test_second_run_resumes_in_order(self, scheduler, kwargs):
        engine, fired = _stop_scenario(scheduler)
        engine.run(**kwargs)
        engine.run(**kwargs)
        assert fired == ["t1", "stop", "t2-a", "t2-b", "after-stop", "t3", "t4"]
        assert engine.events_processed == 7
        assert engine.pending() == 0

    @pytest.mark.parametrize("scheduler, kwargs", RUN_SHAPES)
    def test_second_stop_in_same_instant_is_harmless(self, scheduler, kwargs):
        engine = Engine(scheduler=scheduler)
        fired = []

        def stopper(tag):
            fired.append(tag)
            engine.stop()
            # One sentinel at most, and it is not a pending event.
            fired.append(engine.pending())

        engine.call_at(1.0, stopper, "a")
        engine.call_at(1.0, stopper, "b")
        engine.call_at(2.0, fired.append, "later")
        engine.run(**kwargs)
        assert fired == ["a", 2, "b", 1]
        assert engine.pending() == 1
        # No stale sentinel is left behind to cut the next run short.
        engine.run(**kwargs)
        assert fired == ["a", 2, "b", 1, "later"]
        assert engine.events_processed == 3

    def test_stop_outside_a_run_raises(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.stop()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.stop()

    def test_stop_overtaken_by_max_events_is_discarded(self):
        engine = Engine()
        fired = []

        def stopper():
            fired.append("stop")
            engine.stop()

        engine.call_at(1.0, stopper)
        engine.call_at(1.0, fired.append, "same-instant")
        engine.call_at(2.0, fired.append, "later")
        engine.run(max_events=1)
        assert fired == ["stop"]
        assert engine.pending() == 2
        engine.run()
        assert fired == ["stop", "same-instant", "later"]
        assert engine.now == 2.0

    def test_run_horizon_and_batching_reset_after_stop(self):
        engine = Engine()
        engine.call_at(1.0, engine.stop)
        engine.run(until=5.0)
        assert engine.run_horizon is None
        assert not engine.batching_ok

    def test_obs_span_recorded_for_stopped_run(self):
        from repro import obs

        was_armed = obs.armed()
        obs.disarm()  # fresh registry and tracer for this run only
        obs.arm()
        try:
            engine, fired = _stop_scenario("heap")
            engine.run(until=50.0)
            spans = [s for s in obs.tracer().spans if s.name == "engine.run"]
            assert len(spans) == 1
            assert spans[0].args["events"] == len(fired) == 4
            assert obs.registry().counters["engine.events.heap"] == 4
        finally:
            obs.disarm()
            if was_armed:
                obs.arm()
