"""A MinIO-style cloud object store (the COSGet/COSPut backend).

Buckets hold binary objects addressed by key.  Each object carries an
MD5 ETag, as S3-compatible stores do, so a download can be verified
against it, which is exactly what the COSGet workload does on the
worker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List


class ObjectStoreError(Exception):
    """Base error for the object store."""


class NoSuchBucket(ObjectStoreError):
    pass


class NoSuchKey(ObjectStoreError):
    pass


class BucketAlreadyExists(ObjectStoreError):
    pass


@dataclass(frozen=True)
class StoredObject:
    """One object at rest."""

    data: bytes
    etag: str

    @property
    def size(self) -> int:
        return len(self.data)


class ObjectStore:
    """An in-memory bucket/object store."""

    def __init__(self) -> None:
        self._buckets: Dict[str, Dict[str, StoredObject]] = {}

    def create_bucket(self, bucket: str) -> None:
        if bucket in self._buckets:
            raise BucketAlreadyExists(bucket)
        self._buckets[bucket] = {}

    def list_buckets(self) -> List[str]:
        return sorted(self._buckets)

    def _bucket(self, bucket: str) -> Dict[str, StoredObject]:
        if bucket not in self._buckets:
            raise NoSuchBucket(bucket)
        return self._buckets[bucket]

    def put_object(self, bucket: str, key: str, data: bytes) -> str:
        """Store (or overwrite) an object, returning its ETag: the hex
        MD5 of the payload."""
        data = bytes(data)
        obj = StoredObject(data, hashlib.md5(data).hexdigest())
        self._bucket(bucket)[key] = obj
        return obj.etag

    def get_object(self, bucket: str, key: str) -> StoredObject:
        """Fetch an object (raises :class:`NoSuchKey` when absent)."""
        contents = self._bucket(bucket)
        if key not in contents:
            raise NoSuchKey(f"{bucket}/{key}")
        return contents[key]


__all__ = [
    "BucketAlreadyExists",
    "NoSuchBucket",
    "NoSuchKey",
    "ObjectStore",
    "ObjectStoreError",
    "StoredObject",
]
