"""Unit and property tests for the object store."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.services import ObjectStore
from repro.services.objectstore import (
    BucketAlreadyExists,
    NoSuchBucket,
    NoSuchKey,
)


@pytest.fixture
def store():
    s = ObjectStore()
    s.create_bucket("test-bucket")
    return s


def test_put_get_roundtrip(store):
    etag = store.put_object("test-bucket", "key", b"hello")
    obj = store.get_object("test-bucket", "key")
    assert obj.data == b"hello"
    assert obj.etag == etag
    assert obj.size == 5


def test_etag_is_md5(store):
    store.put_object("test-bucket", "key", b"hello")
    assert store.get_object("test-bucket", "key").etag == hashlib.md5(
        b"hello"
    ).hexdigest()


def test_get_missing_key_raises(store):
    with pytest.raises(NoSuchKey):
        store.get_object("test-bucket", "ghost")


def test_missing_bucket_raises(store):
    with pytest.raises(NoSuchBucket):
        store.put_object("ghost", "k", b"x")
    with pytest.raises(NoSuchBucket):
        store.get_object("ghost", "k")


def test_duplicate_bucket_rejected(store):
    with pytest.raises(BucketAlreadyExists):
        store.create_bucket("test-bucket")


def test_overwrite_updates_etag_and_accounting(store):
    store.put_object("test-bucket", "k", b"aaaa")
    assert store.get_object("test-bucket", "k").size == 4
    etag = store.put_object("test-bucket", "k", b"bb")
    assert store.get_object("test-bucket", "k").size == 2
    assert store.get_object("test-bucket", "k").etag == etag


@given(st.binary(max_size=4096))
def test_property_roundtrip_preserves_bytes(data):
    store = ObjectStore()
    store.create_bucket("prop-bucket")
    etag = store.put_object("prop-bucket", "obj", data)
    obj = store.get_object("prop-bucket", "obj")
    assert obj.data == data
    assert obj.etag == etag == hashlib.md5(data).hexdigest()
