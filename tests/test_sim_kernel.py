"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.5]


def test_timeout_value_is_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for _ in range(4):
            yield env.timeout(2.0)
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [2.0, 4.0, 6.0, 8.0]


def test_two_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc("slow", 5.0))
    env.process(proc("fast", 1.0))
    env.run()
    assert order == [("fast", 1.0), ("slow", 5.0)]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child():
        yield env.timeout(1.0)
        return 99

    def parent():
        value = yield env.process(child())
        results.append(value)

    env.process(parent())
    env.run()
    assert results == [99]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    results = []

    def child():
        yield env.timeout(1.0)
        return "done"

    def parent(child_proc):
        yield env.timeout(10.0)
        value = yield child_proc
        results.append((env.now, value))

    child_proc = env.process(child())
    env.process(parent(child_proc))
    env.run()
    assert results == [(10.0, "done")]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1.0)

    env.process(proc())
    env.run(until=7.5)
    assert env.now == 7.5


def test_run_until_time_with_empty_queue_lands_on_stop_time():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    # The queue drains at t=1 but the clock must still land on t=4.
    env.run(until=4.0)
    assert env.now == 4.0
    assert env.peek() == float("inf")


def test_run_until_time_with_pending_events_lands_on_stop_time():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    # Next event is at t=10, beyond the horizon: clock stops exactly at 3.5.
    env.run(until=3.5)
    assert env.now == 3.5
    assert env.peek() == 10.0


def test_run_until_event_returns_value():
    env = Environment()
    done = env.event()

    def proc():
        yield env.timeout(2.0)
        done.succeed("finished")

    env.process(proc())
    assert env.run(until=done) == "finished"
    assert env.now == 2.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    never = env.event()

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_fail_propagates_exception_into_process():
    env = Environment()
    event = env.event()
    caught = []

    def proc():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())

    def failer():
        yield env.timeout(1.0)
        event.fail(RuntimeError("boom"))

    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("kaput")

    env.process(proc())
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            causes.append((env.now, interrupt.cause))

    victim_proc = env.process(victim())

    def interrupter():
        yield env.timeout(3.0)
        victim_proc.interrupt(cause="preempt")

    env.process(interrupter())
    env.run()
    assert causes == [(3.0, "preempt")]


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(1.0)
        log.append(env.now)

    victim_proc = env.process(victim())

    def interrupter():
        yield env.timeout(2.0)
        victim_proc.interrupt()

    env.process(interrupter())
    env.run()
    assert log == ["interrupted", 3.0]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_original_timeout_does_not_resume_interrupted_process_twice():
    env = Environment()
    resumes = []

    def victim():
        try:
            yield env.timeout(5.0)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
        yield env.timeout(10.0)
        resumes.append("second-wait")

    victim_proc = env.process(victim())

    def interrupter():
        yield env.timeout(1.0)
        victim_proc.interrupt()

    env.process(interrupter())
    env.run()
    # The 5 s timeout fires at t=5 but must not wake the process again.
    assert resumes == ["interrupt", "second-wait"]


def test_any_of_fires_on_first_event():
    env = Environment()
    winners = []

    def proc():
        t_fast = env.timeout(1.0, value="fast")
        t_slow = env.timeout(9.0, value="slow")
        result = yield AnyOf(env, [t_fast, t_slow])
        winners.append((env.now, list(result.values())))

    env.process(proc())
    env.run()
    assert winners == [(1.0, ["fast"])]


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42  # not an event

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_cross_environment_event_rejected():
    env_a = Environment()
    env_b = Environment()

    def proc():
        yield env_b.timeout(1.0)

    env_a.process(proc())
    env_b.run()  # consume env_b's timeout scheduling
    with pytest.raises(SimulationError):
        env_a.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    env.timeout(2.0)
    assert env.peek() == 2.0


def test_peek_empty_queue_is_infinite():
    env = Environment()
    env.run()
    assert env.peek() == float("inf")


def test_step_on_empty_queue_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_thousand_process_fan_in():
    env = Environment()
    done = []

    def worker(i):
        yield env.timeout(i * 0.001)
        return i

    def collector():
        procs = [env.process(worker(i)) for i in range(1000)]
        total = 0
        for proc in procs:
            total += yield proc
        done.append(total)

    env.process(collector())
    env.run()
    assert done == [sum(range(1000))]


# -- absolute-time timeouts ------------------------------------------------------


def test_timeout_at_fires_at_exactly_when():
    now, when = 1.171, 3.376
    # The relative round trip rounds to a neighbouring float, so a
    # delay-based timeout could not land on ``when``.
    assert now + (when - now) != when
    env = Environment(initial_time=now)
    fired = []

    def proc():
        value = yield env.timeout_at(when, value="v")
        fired.append((env.now, value))

    env.process(proc())
    env.run()
    assert fired == [(when, "v")]


def test_timeout_at_in_the_past_rejected():
    env = Environment(initial_time=2.0)
    with pytest.raises(ValueError):
        env.timeout_at(1.999)
    assert env.timeout_at(2.0).delay == 0.0


def test_timeout_at_reuses_a_pooled_carrier():
    env = Environment()
    env.timeout(1.0)
    env.run()
    assert len(env._timeout_pool) == 1
    pooled = env._timeout_pool[0]
    timeout = env.timeout_at(5.0, value=7)
    assert timeout is pooled
    assert not env._timeout_pool
    env.run()
    assert env.now == 5.0
    assert timeout.value == 7


def test_timeout_at_inside_bulk_window_pops_in_unbatched_order():
    def fire_order(bulk):
        env = Environment()
        log = []
        if bulk:
            env.begin_bulk()
        for k, when in enumerate([2.0, 1.0, 2.0, 0.0, 1.0, 0.0]):
            if k % 2:
                event = env.timeout_at(when, value=k)
            else:
                event = env.timeout(when, value=k)
            event.callbacks.append(lambda e: log.append((env.now, e.value)))
        if bulk:
            env.end_bulk()
        env.run()
        return log

    assert fire_order(True) == fire_order(False) == [
        (0.0, 3), (0.0, 5), (1.0, 1), (1.0, 4), (2.0, 0), (2.0, 2),
    ]
