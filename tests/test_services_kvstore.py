"""Unit and property tests for the key-value store."""

import pytest
from hypothesis import given, strategies as st

from repro.services import KeyValueStore, KvError


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def kv():
    return KeyValueStore(clock=FakeClock())


def test_set_get_roundtrip(kv):
    assert kv.set("k", "v") is True
    assert kv.get("k") == "v"


def test_get_missing_returns_none(kv):
    assert kv.get("ghost") is None


def test_set_overwrites(kv):
    kv.set("k", "v1")
    kv.set("k", "v2")
    assert kv.get("k") == "v2"


def test_set_nx_only_if_absent(kv):
    assert kv.set("k", "v1", nx=True) is True
    assert kv.set("k", "v2", nx=True) is False
    assert kv.get("k") == "v1"


def test_set_xx_only_if_present(kv):
    assert kv.set("k", "v1", xx=True) is False
    kv.set("k", "v1")
    assert kv.set("k", "v2", xx=True) is True
    assert kv.get("k") == "v2"


def test_set_nx_xx_conflict(kv):
    with pytest.raises(KvError):
        kv.set("k", "v", nx=True, xx=True)


def test_expiry_with_injected_clock():
    clock = FakeClock()
    kv = KeyValueStore(clock=clock)
    kv.set("k", "v", ex=10.0)
    clock.t = 9.99
    assert kv.get("k") == "v"
    clock.t = 10.0
    assert kv.get("k") is None
    assert kv.set("k", "w", xx=True) is False  # expired keys are absent


def test_expire_rejects_non_positive(kv):
    with pytest.raises(KvError):
        kv.set("k", "v", ex=0.0)
    with pytest.raises(KvError):
        kv.set("k2", "v", ex=-1.0)


# -- command protocol ----------------------------------------------------------


def test_execute_set_get(kv):
    assert kv.execute(["SET", "k", "v"]) is True
    assert kv.execute(["GET", "k"]) == "v"


def test_execute_set_with_options():
    clock = FakeClock()
    kv = KeyValueStore(clock=clock)
    assert kv.execute(["SET", "k", "v", "EX", "5", "NX"]) is True
    assert kv.execute(["SET", "k", "w", "NX"]) is False
    clock.t = 4.99
    assert kv.execute(["GET", "k"]) == "v"
    clock.t = 5.0
    assert kv.execute(["GET", "k"]) is None
    assert kv.execute(["SET", "k", "w", "XX"]) is False


def test_execute_case_insensitive(kv):
    assert kv.execute(["set", "k", "v"]) is True
    assert kv.execute(["get", "k"]) == "v"


def test_execute_errors(kv):
    with pytest.raises(KvError):
        kv.execute([])
    with pytest.raises(KvError):
        kv.execute(["BLORP"])
    with pytest.raises(KvError):
        kv.execute(["GET"])  # wrong arity
    with pytest.raises(KvError):
        kv.execute(["SET", "k"])
    with pytest.raises(KvError):
        kv.execute(["SET", "k", "v", "ZZ"])
    with pytest.raises(KvError):
        kv.execute(["SET", "k", "v", "EX"])


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.text(max_size=20),
        max_size=20,
    )
)
def test_property_store_retrieves_everything_it_stored(mapping):
    kv = KeyValueStore(clock=FakeClock())
    for key, value in mapping.items():
        kv.set(key, value)
    for key, value in mapping.items():
        assert kv.get(key) == value
