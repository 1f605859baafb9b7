"""Unit tests for simulation resources (Resource, Store, Container)."""

import pytest

from repro.sim import Environment, Resource, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def proc(name):
        req = res.request()
        yield req
        grants.append((name, env.now))
        yield env.timeout(5.0)
        res.release(req)

    for name in "abc":
        env.process(proc(name))
    env.run()
    assert grants == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def proc(name, start):
        yield env.timeout(start)
        with (yield res.request()) as _req:
            order.append(name)
            yield env.timeout(1.0)

    env.process(proc("first", 0.0))
    env.process(proc("second", 0.1))
    env.process(proc("third", 0.2))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        with (yield res.request()):
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    assert res.count == 0


def test_resource_counts_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)
    observed = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    def watcher():
        yield env.timeout(1.0)
        res.request()  # queue behind the holder
        yield env.timeout(1.0)
        observed.append((res.count, res.queue_length))

    env.process(holder())
    env.process(watcher())
    env.run(until=5.0)
    assert observed == [(1, 1)]


def test_resource_release_of_queued_request_cancels_it():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    cancelled = []

    def canceller():
        yield env.timeout(1.0)
        req = res.request()
        res.release(req)  # cancel before grant
        cancelled.append(res.queue_length)

    env.process(holder())
    env.process(canceller())
    env.run()
    assert cancelled == [0]


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        yield store.put("item")

    def consumer():
        item = yield store.get()
        got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == ["item"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(4.0)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(4.0, "late")]


def test_store_is_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in (1, 2, 3):
            yield store.put(item)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [1, 2, 3]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a-in", env.now))
        yield store.put("b")
        log.append(("b-in", env.now))

    def consumer():
        yield env.timeout(3.0)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("a-in", 0.0), ("b-in", 3.0)]


def test_store_filtered_get():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in (1, 2, 3, 4):
            yield store.put(item)

    def consumer():
        item = yield store.get(lambda x: x % 2 == 0)
        got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [2]
    assert store.items == [1, 3, 4]


def test_store_cancel_pending_get():
    env = Environment()
    store = Store(env)
    get_event = store.get()
    store.cancel(get_event)

    def producer():
        yield store.put("x")

    env.process(producer())
    env.run()
    assert store.items == ["x"]  # nobody consumed it
    assert not get_event.triggered


def test_store_len_tracks_items():
    env = Environment()
    store = Store(env)

    def producer():
        yield store.put("x")
        yield store.put("y")

    env.process(producer())
    env.run()
    assert len(store) == 2


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_cancel_rejects_foreign_event():
    env = Environment()
    store = Store(env)
    with pytest.raises(TypeError):
        store.cancel(env.event())

