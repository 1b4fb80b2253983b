"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simnet.scheduler import Simulator


class TestScheduling:
    def test_schedule_runs_callback(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run(2.0)
        assert fired == ["x"]

    def test_callback_sees_fire_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run(2.0)
        assert seen == [1.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_fifo_for_simultaneous_events(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run(2.0)
        assert order == list(range(10))

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = sim.schedule(1.0, fired.append, 1)
        timer.cancel()
        sim.run(2.0)
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert not timer.active

    def test_timer_active_lifecycle(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        assert timer.active
        sim.run(2.0)
        assert not timer.active

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run(5.0)
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestRunSemantics:
    def test_run_until_stops_clock_at_deadline(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_run_until_executes_events_at_deadline(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.run_until(5.0)
        assert fired == [1]

    def test_run_is_relative(self, sim):
        sim.run(3.0)
        sim.run(3.0)
        assert sim.now == 6.0

    def test_run_none_drains_queue(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(100.0, fired.append, 2)
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 100.0

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_peek_skips_cancelled(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        timer.cancel()
        assert sim.peek() == 2.0

    def test_peek_empty(self, sim):
        assert sim.peek() is None

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(10.0)
        assert sim.events_processed == 5


class TestHotLoop:
    """Regression guards for the ``run_until`` loop."""

    def test_run_until_ties_break_by_insertion_order(self, sim):
        order = []
        for i in range(8):
            sim.schedule(2.0, order.append, i)
        sim.run_until(2.0)
        assert order == list(range(8))

    def test_run_until_skips_timer_cancelled_midway(self, sim):
        fired = []
        victim = sim.schedule(2.0, fired.append, "victim")
        sim.schedule(1.0, victim.cancel)
        sim.schedule(3.0, fired.append, "survivor")
        sim.run_until(5.0)
        assert fired == ["survivor"]
        assert sim.events_processed == 2  # canceller + survivor, not victim

    def test_run_until_skips_timer_cancelled_same_instant(self, sim):
        # Cancellation by an event at the same timestamp: the fused loop
        # must check the flag after the pop, not at peek time.
        fired = []
        victim = sim.schedule(1.0, fired.append, "victim")
        canceller = sim.schedule(1.0, victim.cancel)
        assert canceller.when == victim.when and fired == []
        sim.run_until(1.0)
        # victim was inserted first, so it fires before the canceller runs.
        assert fired == ["victim"]
        # Reverse order: canceller inserted first wins.
        fired2 = []
        victim2 = None

        def cancel_victim2():
            victim2.cancel()

        sim.schedule(1.0, cancel_victim2)
        victim2 = sim.schedule(1.0, fired2.append, "victim2")
        sim.run_until(2.0)
        assert fired2 == []

    def test_run_until_deadline_exact(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "at-deadline")
        sim.schedule(5.000001, fired.append, "after-deadline")
        sim.run_until(5.0)
        assert fired == ["at-deadline"]
        assert sim.now == 5.0
        sim.run_until(6.0)
        assert fired == ["at-deadline", "after-deadline"]

    def test_run_until_advances_clock_with_empty_queue(self, sim):
        sim.run_until(7.5)
        assert sim.now == 7.5

    def test_run_until_past_deadline_is_noop(self, sim):
        sim.run_until(5.0)
        sim.run_until(3.0)  # never moves the clock backwards
        assert sim.now == 5.0

    def test_observer_installed_mid_run_takes_effect(self, sim):
        seen = []

        class Probe:
            def timer_fired(self, timer, now, queue_depth):
                seen.append((timer.label, now))

        sim.schedule(1.0, lambda: sim.set_observer(Probe()), label="installer")
        sim.schedule(2.0, lambda: None, label="observed")
        sim.run_until(3.0)
        assert seen == [("observed", 2.0)]


class TestEventBudget:
    def test_small_budget_clamps_tally_window(self, sim):
        # Budgets below BUDGET_TALLY_WINDOW used to make _tally_after
        # negative, which kept the tally branch permanently hot.
        sim.max_events = 10
        assert sim.max_events == 10
        assert sim._tally_after == 0

    def test_budget_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            sim.max_events = 0
        with pytest.raises(ValueError):
            sim.max_events = -5

    def test_exceeding_small_budget_names_hot_timer(self, sim):
        sim.max_events = 5

        def respawn():
            sim.schedule(1.0, respawn, label="runaway-ka")

        sim.schedule(1.0, respawn, label="runaway-ka")
        with pytest.raises(RuntimeError, match="runaway-ka") as err:
            sim.run(100.0)
        # The reported tally window is the budget, not the full 100k default.
        assert "last 5 events" in str(err.value)

    def test_budget_not_exceeded_when_equal(self, sim):
        sim.max_events = 3
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(10.0)
        assert sim.events_processed == 3

    def test_budget_tightened_mid_run_takes_effect(self, sim):
        # Regression: run_until hoisted _tally_after into a local, so a
        # callback tightening max_events mid-run was ignored until the
        # *next* run_until call — the budget check ran against the stale
        # pre-tightening threshold.
        def tighten():
            sim.max_events = sim.events_processed + 2

        sim.schedule(1.0, tighten, label="tighten")
        for i in range(10):
            sim.schedule(2.0 + i, lambda: None, label="bulk")
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run_until(50.0)
        # The tightened budget stopped the run well before the queue drained.
        assert sim.events_processed <= 4


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=9)
        b = Simulator(seed=9)
        assert [a.rng.random() for _ in range(10)] == [b.rng.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert a.rng.random() != b.rng.random()

    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50))
    def test_events_always_fire_in_time_order(self, delays):
        sim = Simulator(seed=0)
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        )
    )
    def test_ties_break_by_insertion_order(self, spec):
        sim = Simulator(seed=0)
        fired = []
        for idx, (delay, _) in enumerate(spec):
            sim.schedule(delay, fired.append, (delay, idx))
        sim.run()
        # Within one timestamp, insertion indices must ascend.
        for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
            if t1 == t2:
                assert i1 < i2


class TestTimerWheel:
    """Lazy cancellation and the live-timer count."""

    def test_cancel_interior_node_is_lazy(self, sim):
        """A cancelled timer stays queued but never fires or counts."""
        first = sim.schedule(1.0, lambda: None, label="a")
        sim.schedule(1.0 + 1e-4, lambda: None, label="b")
        first.cancel()
        assert sim.pending_events == 1
        assert sim.peek() == 1.0 + 1e-4
        sim.run_until(2.0)
        assert sim.events_processed == 1
        assert sim.pending_events == 0

    def test_pending_events_tracks_live_timers(self, sim):
        timers = [sim.schedule(i + 1.0, lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        timers[0].cancel()
        assert sim.pending_events == 4
        sim.run_until(3.0)
        assert sim.pending_events == 2

    def test_held_timer_is_not_recycled(self, sim):
        """A fired timer's handle stays inert: a late cancel() neither
        touches a newer timer nor the live count."""
        held = sim.schedule(0.5, lambda: None, label="held")
        sim.run_until(1.0)
        held.cancel()  # harmless: the timer already fired
        assert sim.pending_events == 0
        fresh = sim.schedule(0.5, lambda: None)
        assert fresh is not held and fresh.active
        assert sim.pending_events == 1
        sim.run_until(2.0)
        assert sim.events_processed == 2


class TestPost:
    """Handle-less posts: one-shots nobody can cancel."""

    class _Probe:
        def __init__(self):
            self.fired = []

        def timer_fired(self, timer, now, queue_depth):
            self.fired.append((timer.label, now, timer.created_at, queue_depth))

    def test_post_returns_nothing_and_fires_in_seq_order(self, sim):
        order = []
        sim.schedule(1.0, order.append, "timer-a")
        assert sim.post(1.0, order.append, "post") is None
        sim.schedule(1.0, order.append, "timer-b")
        sim.post(0.5, order.append, "early-post")
        sim.run_until(2.0)
        assert order == ["early-post", "timer-a", "post", "timer-b"]
        assert sim.events_processed == 4

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.post(-0.1, lambda: None)

    def test_post_counts_in_pending_events(self, sim):
        sim.post(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        assert sim.peek() == 1.0
        sim.run_until(1.0)
        assert sim.pending_events == 1
        assert sim.step() and sim.pending_events == 0

    def test_post_counts_against_budget_and_names_label(self, sim):
        sim.max_events = 5

        def respawn():
            sim.post(1.0, respawn, label="runaway-post")

        sim.post(1.0, respawn, label="runaway-post")
        with pytest.raises(RuntimeError, match="runaway-post"):
            sim.run(100.0)
        assert sim.events_processed == 6  # the sixth event tripped the budget

    def test_post_under_observer_is_a_scheduled_timer(self, sim):
        """An observed post fires as the one-shot timer it stands for,
        created at the post call."""
        probe = self._Probe()
        sim.set_observer(probe)
        sim.post(1.5, lambda: None, label="observed-post")
        sim.run_until(2.0)
        assert probe.fired == [("observed-post", 1.5, 0.0, 0)]

    @pytest.mark.parametrize("drive", ["run_until", "step"])
    def test_observer_installed_mid_run_sees_queued_post(self, sim, drive):
        """The "takes effect from the next event on" contract holds for a
        post queued, handle-less, before the observer was installed."""
        probe = self._Probe()
        sim.run_until(0.5)
        sim.post(2.0, lambda: None, label="queued-post")
        sim.schedule(3.0, lambda: None, label="later")
        sim.schedule(1.0, lambda: sim.set_observer(probe), label="installer")
        if drive == "step":
            while sim.step():
                pass
        else:
            sim.run_until(4.0)
        assert probe.fired == [("queued-post", 2.5, 0.5, 1), ("later", 3.5, 0.5, 0)]


class TestRestart:
    """``Simulator.restart`` is ``timer.cancel()`` then ``schedule``."""

    def test_later_or_equal_deadline_rearms_in_place(self, sim):
        class Probe:
            def timer_fired(self, timer, now, queue_depth):
                pass

        fired = []
        watchdog = sim.schedule(2.0, fired.append, "old", label="wd")
        sim.set_observer(Probe())
        sim.run_until(0.5)
        assert sim.restart(watchdog, 3.0, fired.append, "new", label="wd2") is watchdog
        assert sim.restart(watchdog, 3.0, fired.append, "same", label="wd3") is watchdog
        assert (watchdog.when, watchdog.created_at, sim.pending_events) == (3.5, 0.5, 1)
        sim.run_until(5.0)
        assert fired == ["same"] and sim.events_processed == 1

    def test_earlier_deadline_cancels_and_schedules(self, sim):
        fired = []
        watchdog = sim.schedule(5.0, fired.append, "old")
        fresh = sim.restart(watchdog, 1.0, fired.append, "new")
        assert fresh is not watchdog and not watchdog.active and fresh.active
        assert sim.pending_events == 1
        sim.run_until(6.0)
        assert fired == ["new"]

    def test_fired_cancelled_missing_or_periodic_handle_gets_a_new_timer(self, sim):
        fired = []
        done = sim.schedule(0.5, fired.append, "done")
        sim.run_until(1.0)
        dropped = sim.schedule(9.0, fired.append, "dropped")
        dropped.cancel()
        beat = sim.schedule_periodic(1.0, fired.append, "beat")
        handles = [sim.restart(t, 2.0, fired.append, name)
                   for t, name in ((done, "a"), (dropped, "b"), (None, "c"), (beat, "d"))]
        assert all(h.period is None and h.active for h in handles)
        assert not ({id(h) for h in handles} & {id(done), id(dropped), id(beat)})
        assert not beat.active and sim.pending_events == 4
        sim.run_until(5.0)
        assert fired == ["done", "a", "b", "c", "d"]

    def test_negative_delay_cancels_then_raises(self, sim):
        watchdog = sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.restart(watchdog, -0.5, lambda: None)
        assert not watchdog.active and sim.pending_events == 0

    def test_restarted_watchdog_fires_in_seq_order_at_a_tie(self, sim):
        """Re-armed in place to an instant another timer already holds, the
        watchdog fires after it: its seq was drawn at the restart."""
        log = []
        watchdog = sim.schedule(1.0, log.append, "wd")
        sim.schedule(4.0, log.append, "first")
        sim.restart(watchdog, 4.0, log.append, "wd")
        sim.schedule(4.0, log.append, "last")
        sim.run_until(4.0)
        assert log == ["first", "wd", "last"]


class TestPeriodicAndQuiescence:
    """Periodic timers, alone (an idle, quiescent home) and mixed with one-shots."""

    def test_schedule_periodic_fires_every_period(self, sim):
        fired = []
        sim.schedule_periodic(1.0, lambda: fired.append(sim.now), label="ka")
        sim.run_until(4.5)
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_first_overrides_initial_delay(self, sim):
        fired = []
        sim.schedule_periodic(2.0, lambda: fired.append(sim.now), first=0.5)
        sim.run_until(5.0)
        assert fired == [0.5, 2.5, 4.5]

    def test_non_positive_period_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_periodic(0.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_periodic(-1.0, lambda: None)

    def test_cancel_stops_periodic(self, sim):
        fired = []
        timer = sim.schedule_periodic(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.5, timer.cancel)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0]
        assert sim.pending_events == 0

    def test_periodic_rearm_allocates_no_new_timer(self, sim):
        seen = set()
        timer = sim.schedule_periodic(1.0, lambda: seen.add(id(timer)))
        sim.run_until(5.0)
        assert seen == {id(timer)}

    def test_self_cancel_from_callback_stops_cycle(self, sim):
        fired = []

        def beat():
            fired.append(sim.now)
            if len(fired) == 2:
                timer.cancel()

        timer = sim.schedule_periodic(1.0, beat)
        sim.run_until(5.0)
        assert fired == [1.0, 2.0]
        assert sim.pending_events == 0 and sim.peek() is None

    def test_observed_periodic_latency_is_one_period(self, sim):
        """Each re-arm is scheduled at the fire it follows, as
        ``sim.schedule(period, ...)`` from the callback would be, so the
        profiler's firing latency is one period on every fire."""
        registry = sim.enable_observability().registry
        sim.schedule_periodic(2.0, lambda: None, label="beat")
        sim.run_until(10.0)
        latency = registry.get("scheduler", "firing_latency", label="beat")
        assert (latency.count, latency.min, latency.max) == (5, 2.0, 2.0)

    def test_step_fires_and_rearms_periodic(self, sim):
        fired = []
        timer = sim.schedule_periodic(1.5, lambda: fired.append(sim.now))
        assert sim.step() and sim.step()
        assert fired == [1.5, 3.0] and sim.now == 3.0
        assert timer.when == 4.5 and sim.pending_events == 1

    def test_oneshot_blocks_quiescence_until_fired(self, sim):
        """A one-shot due between two periodic fires fires in time order."""
        fired = []
        sim.schedule_periodic(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.5, lambda: fired.append(-sim.now), label="burst")
        sim.run_until(6.0)
        assert fired == [1.0, 2.0, -2.5, 3.0, 4.0, 5.0, 6.0]

    def test_callback_spawning_oneshot_breaks_quiescence(self, sim):
        """A one-shot scheduled by a periodic callback fires on time."""
        log = []

        def beat():
            log.append(("beat", sim.now))
            if sim.now == 3.0:
                sim.schedule(0.25, lambda: log.append(("spawn", sim.now)))

        sim.schedule_periodic(1.0, beat)
        sim.run_until(5.0)
        assert log == [
            ("beat", 1.0), ("beat", 2.0), ("beat", 3.0),
            ("spawn", 3.25), ("beat", 4.0), ("beat", 5.0),
        ]

    def test_observer_installed_mid_quiescent_run_takes_effect(self, sim):
        """An observer installed by a periodic callback, with nothing but
        periodic timers pending, sees every later fire."""
        seen = []

        class Obs:
            def timer_fired(self, timer, now, depth):
                seen.append(now)

        def beat():
            if sim.now == 2.0:
                sim.set_observer(Obs())

        sim.schedule_periodic(1.0, beat)
        sim.run_until(5.0)
        # The fire that installed the observer was already in flight; every
        # subsequent fire must be observed.
        assert seen == [3.0, 4.0, 5.0]

    def test_budget_tightened_mid_quiescent_run_takes_effect(self, sim):
        """A periodic callback tightening the budget stops the run at it."""

        def beat():
            if sim.now == 2.0:
                sim.max_events = 4

        sim.schedule_periodic(1.0, beat)
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run_until(50.0)
        assert sim.events_processed == 5  # fifth event tripped the budget


class TestTallyBounds:
    def test_distinct_labels_bounded_by_fold(self, sim):
        """The near-budget tally caps distinct labels; the long tail folds
        into <other> instead of growing one dict entry per label."""
        sim.max_events = 10_000
        cap = Simulator.TALLY_MAX_LABELS

        count = [0]

        def spin():
            count[0] += 1
            sim.schedule(0.001, spin, label=f"hot{count[0] % (cap * 2)}")

        sim.schedule(0.001, spin, label="seed")
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run_until(1e9)
        # At most the cap plus the fold bucket itself.
        assert len(sim._label_fires) <= cap + 1
        assert "<other>" in sim._label_fires

    def test_tally_decay_keeps_persistent_labels_on_top(self, sim):
        sim.max_events = 10_000
        sim._tally_after = 0  # tally from the first event
        window = Simulator.BUDGET_TALLY_WINDOW

        def spin():
            sim.schedule(0.001, spin, label="steady")

        sim.schedule(0.001, spin, label="steady")
        with pytest.raises(RuntimeError, match="steady"):
            sim.run_until(1e9)
        # Decay halves the counts; the tally total stays under one window
        # even though 10k+ events fired.
        assert sim._tally_total <= 2 * window
