"""Property tests: the batched same-timestamp drain and the carrier
pools in `repro.sim.kernel` are pure performance — every program must
observe the same firing order, values, and clock as the per-event
`step()` path."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import Environment

# Delays drawn from a tiny grid so same-timestamp collisions (the whole
# point of the batched drain) are the common case, not the exception.
DELAYS = st.sampled_from([0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 2.0])

PROGRAMS = st.lists(
    st.lists(DELAYS, min_size=1, max_size=6),
    min_size=1,
    max_size=8,
)


def _trace_with(driver, program):
    """Run `program` (list of per-process delay lists) under `driver`."""
    env = Environment()
    log = []

    def proc(pid, delays):
        for k, delay in enumerate(delays):
            value = yield env.timeout(delay, value=(pid, k))
            log.append((env.now, value))

    for pid, delays in enumerate(program):
        env.process(proc(pid, delays))
    driver(env)
    return log, env.now


def _run(env):
    env.run()


def _step_loop(env):
    while env.peek() != float("inf"):
        env.step()


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(program=PROGRAMS)
def test_batched_run_matches_per_event_step(program):
    assert _trace_with(_run, program) == _trace_with(_step_loop, program)


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(program=PROGRAMS, keep=st.booleans())
def test_pooling_is_invisible_to_event_holders(program, keep):
    """Holding a reference to a fired Timeout must pin its fields: the
    free-list recycles carriers only when nothing else can see them."""
    env = Environment()
    held = []
    log = []

    def proc(pid, delays):
        for k, delay in enumerate(delays):
            event = env.timeout(delay, value=(pid, k))
            if keep:
                held.append(event)
            value = yield event
            log.append((env.now, value))

    for pid, delays in enumerate(program):
        env.process(proc(pid, delays))
    env.run()

    baseline, _ = _trace_with(_run, program)
    assert log == baseline
    if keep:
        # Every retained carrier still reports its own value — a recycled
        # carrier would have been overwritten by a later timeout.  (held
        # is in creation order, the log in firing order, so compare as
        # multisets.)
        assert sorted(event.value for event in held) == sorted(
            value for _, value in baseline
        )


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(
    program=PROGRAMS,
    spawn_at=st.lists(DELAYS, min_size=0, max_size=4),
)
def test_process_waits_match_across_drivers(program, spawn_at):
    """Parent/child waits exercise the _Resume pool; firing order must
    still match the per-event kernel exactly."""

    def build(env, log):
        def child(pid, delays):
            total = 0.0
            for delay in delays:
                yield env.timeout(delay)
                total += delay
            return (pid, total)

        def parent(pid, delay, delays):
            yield env.timeout(delay)
            result = yield env.process(child(pid, delays))
            log.append((env.now, result))

        for pid, delays in enumerate(program):
            delay = spawn_at[pid % len(spawn_at)] if spawn_at else 0.0
            env.process(parent(pid, delay, delays))

    def run_with(driver):
        env = Environment()
        log = []
        build(env, log)
        driver(env)
        return log, env.now

    assert run_with(_run) == run_with(_step_loop)


@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
@given(program=PROGRAMS)
def test_bulk_schedule_matches_incremental(program):
    """begin_bulk/end_bulk (heapify path) must not perturb order."""

    def bulk_driver(env):
        env.run()

    def submit(env, log, bulk):
        def proc(pid, delays):
            for k, delay in enumerate(delays):
                value = yield env.timeout(delay, value=(pid, k))
                log.append((env.now, value))

        if bulk:
            env.begin_bulk()
        for pid, delays in enumerate(program):
            env.process(proc(pid, delays))
        if bulk:
            env.end_bulk()

    def run_with(bulk):
        env = Environment()
        log = []
        submit(env, log, bulk)
        env.run()
        return log, env.now

    assert run_with(True) == run_with(False)


# Programs mixing relative and absolute-time timeouts: each step is a
# delay and a flag; flagged steps wait on ``timeout_at(now + delay)``.
MIXED_PROGRAMS = st.lists(
    st.lists(st.tuples(DELAYS, st.booleans()), min_size=1, max_size=6),
    min_size=1,
    max_size=8,
)


def _mixed_trace_with(driver, program, bulk=False):
    env = Environment()
    log = []

    def proc(pid, steps):
        for k, (delay, absolute) in enumerate(steps):
            if absolute:
                event = env.timeout_at(env.now + delay, value=(pid, k))
            else:
                event = env.timeout(delay, value=(pid, k))
            value = yield event
            log.append((env.now, value))

    if bulk:
        env.begin_bulk()
    for pid, steps in enumerate(program):
        env.process(proc(pid, steps))
        # A first absolute wait scheduled from outside any process.
        delay, absolute = steps[0]
        if absolute:
            env.timeout_at(delay, value=("outside", pid)).callbacks.append(
                lambda event: log.append((env.now, event.value))
            )
    if bulk:
        env.end_bulk()
    driver(env)
    return log, env.now


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(program=MIXED_PROGRAMS)
def test_absolute_timeouts_match_per_event_step(program):
    assert _mixed_trace_with(_run, program) == _mixed_trace_with(
        _step_loop, program
    )


@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
@given(program=MIXED_PROGRAMS)
def test_absolute_timeouts_in_bulk_window_match_incremental(program):
    assert _mixed_trace_with(_run, program, bulk=True) == _mixed_trace_with(
        _step_loop, program
    )
