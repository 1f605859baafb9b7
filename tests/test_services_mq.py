"""Unit and property tests for the message queue."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.services import MessageQueue, MqError
from repro.services.mq import NoSuchTopic, TopicAlreadyExists


@pytest.fixture
def mq():
    queue = MessageQueue()
    queue.create_topic("events", partitions=3)
    return queue


def test_produce_assigns_offsets(mq):
    r1 = mq.produce("events", "a", key="k")
    r2 = mq.produce("events", "b", key="k")
    assert r1.partition == r2.partition  # same key, same partition
    assert r2.offset == r1.offset + 1


def test_produce_unknown_topic(mq):
    with pytest.raises(NoSuchTopic):
        mq.produce("ghost", "x")


def test_keyless_produce_round_robins(mq):
    partitions = [mq.produce("events", str(i)).partition for i in range(6)]
    assert partitions == [0, 1, 2, 0, 1, 2]


def test_key_routing_is_deterministic(mq):
    first = mq.partition_for_key("events", "user-42")
    for _ in range(5):
        assert mq.partition_for_key("events", "user-42") == first


def test_key_routing_is_sha256_of_the_key(mq):
    for key in ("user-42", "producer-7", "", "0"):
        digest = hashlib.sha256(key.encode()).digest()
        expected = int.from_bytes(digest[:4], "big") % 3
        assert mq.produce("events", "x", key=key).partition == expected


def test_create_topic_validation(mq):
    with pytest.raises(TopicAlreadyExists):
        mq.create_topic("events")
    with pytest.raises(MqError):
        mq.create_topic("bad", partitions=0)


def test_consume_one_advances(mq):
    mq.produce("events", "x", key="k")
    mq.produce("events", "y", key="k")
    assert mq.consume_one("group", "events").value == "x"
    assert mq.consume_one("group", "events").value == "y"
    assert mq.consume_one("group", "events") is None


def test_groups_are_independent(mq):
    mq.produce("events", "x", key="k")
    assert mq.consume_one("group-a", "events").value == "x"
    assert mq.consume_one("group-b", "events").value == "x"


@given(st.lists(st.text(max_size=10), max_size=40))
def test_property_single_partition_preserves_order(values):
    mq = MessageQueue()
    mq.create_topic("t", partitions=1)
    for value in values:
        mq.produce("t", value)
    consumed = []
    while True:
        record = mq.consume_one("g", "t")
        if record is None:
            break
        consumed.append(record.value)
    assert consumed == values


@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=5), st.text(max_size=10)),
        max_size=40,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_property_every_record_consumed_exactly_once(items, partitions):
    mq = MessageQueue()
    mq.create_topic("t", partitions=partitions)
    for key, value in items:
        mq.produce("t", value, key=key)
    consumed = []
    while True:
        record = mq.consume_one("g", "t")
        if record is None:
            break
        consumed.append((record.key, record.value))
    assert sorted(consumed) == sorted(items)
