"""A Kafka-style partitioned message queue (MQProduce/MQConsume backend).

Topics are split into partitions, each an append-only log.  Producing
with a key routes deterministically to a partition (SHA-256 of the
key); keyless records round-robin.  Each consumer group keeps its own
offset per partition, so separate groups each see every record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class MqError(Exception):
    """Base error for the message queue."""


class NoSuchTopic(MqError):
    pass


class TopicAlreadyExists(MqError):
    pass


@dataclass(frozen=True)
class Record:
    """One message in a partition log."""

    topic: str
    partition: int
    offset: int
    key: Optional[str]
    value: str


class MessageQueue:
    """Topics, partitions, producers, and consumer groups."""

    def __init__(self) -> None:
        #: topic -> one append-only log per partition
        self._topics: Dict[str, List[List[Record]]] = {}
        #: (group, topic, partition) -> next offset to consume
        self._offsets: Dict[Tuple[str, str, int], int] = {}
        self._round_robin: Dict[str, int] = {}

    def create_topic(self, topic: str, partitions: int = 1) -> None:
        if partitions < 1:
            raise MqError(f"partitions must be >= 1, got {partitions}")
        if topic in self._topics:
            raise TopicAlreadyExists(topic)
        self._topics[topic] = [[] for _ in range(partitions)]
        self._round_robin[topic] = 0

    def list_topics(self) -> List[str]:
        return sorted(self._topics)

    def _partitions(self, topic: str) -> List[List[Record]]:
        if topic not in self._topics:
            raise NoSuchTopic(topic)
        return self._topics[topic]

    def partition_for_key(self, topic: str, key: Optional[str]) -> int:
        """Deterministic partition routing (stable across processes)."""
        partitions = self._partitions(topic)
        if key is None:
            index = self._round_robin[topic]
            self._round_robin[topic] = (index + 1) % len(partitions)
            return index
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:4], "big") % len(partitions)

    def produce(
        self, topic: str, value: str, key: Optional[str] = None
    ) -> Record:
        """Append a record, returning it with its assigned offset."""
        index = self.partition_for_key(topic, key)
        log = self._partitions(topic)[index]
        record = Record(topic, index, len(log), key, value)
        log.append(record)
        return record

    def consume_one(self, group: str, topic: str) -> Optional[Record]:
        """Take ``group``'s next record, lowest partition first, and
        advance its offset past it (what MQConsume does); None when the
        group has read everything."""
        for index, log in enumerate(self._partitions(topic)):
            offset = self._offsets.get((group, topic, index), 0)
            if offset < len(log):
                self._offsets[(group, topic, index)] = offset + 1
                return log[offset]
        return None


__all__ = [
    "MessageQueue",
    "MqError",
    "NoSuchTopic",
    "Record",
    "TopicAlreadyExists",
]
