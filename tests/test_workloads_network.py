"""Unit tests for the network-bound workload functions."""

import random
import zlib

import pytest

from repro.workloads import ServiceBundle, get_function


@pytest.fixture
def services():
    bundle = ServiceBundle()
    bundle.seed_defaults()
    return bundle


def run_function(name, services, scale=0.2, seed=7):
    function = get_function(name)
    payload = function.generate_input(random.Random(seed), scale=scale)
    return function.run(payload, services)


def test_seed_defaults_is_idempotent(services):
    before = services.sql.execute("SELECT COUNT(*) FROM records").fetchone()[0]
    services.seed_defaults()
    after = services.sql.execute("SELECT COUNT(*) FROM records").fetchone()[0]
    assert before == after == 500


def test_redis_insert_stores_records(services):
    fn = get_function("RedisInsert")
    payload = fn.generate_input(random.Random(7), scale=0.2)
    result = fn.run(payload, services)
    assert result["inserted"] == result["requested"] > 0
    for index, value in enumerate(payload["values"]):
        assert services.kv.get(f"{payload['key_prefix']}:{index}") == value


def test_redis_insert_nx_does_not_clobber(services):
    fn = get_function("RedisInsert")
    payload = fn.generate_input(random.Random(1), scale=0.1)
    first = fn.run(payload, services)
    second = fn.run(payload, services)  # same keys again
    assert first["inserted"] > 0
    assert second["inserted"] == 0


def test_redis_update_updates_all(services):
    fn = get_function("RedisUpdate")
    payload = fn.generate_input(random.Random(7), scale=0.2)
    result = fn.run(payload, services)
    assert result["updated"] == len(payload["updated"]) > 0
    for index, value in enumerate(payload["updated"]):
        assert services.kv.get(f"{payload['key_prefix']}:{index}") == value


def test_sql_select_returns_ordered_rows(services):
    result = run_function("SQLSelect", services)
    assert result["rows"] > 0
    assert result["top_score"] is not None


def test_sql_select_respects_limit(services):
    fn = get_function("SQLSelect")
    payload = {"score_low": 0.0, "score_high": 100.0, "limit": 5}
    result = fn.run(payload, services)
    assert result["rows"] == 5


def test_sql_payload_values_are_bound_not_spliced(services):
    fn = get_function("SQLSelect")
    payload = {"score_low": "0 OR 1 = 1", "score_high": 100.0, "limit": 5}
    assert fn.run(payload, services) == {"rows": 0, "top_score": None}


def test_sql_update_bumps_versions(services):
    fn = get_function("SQLUpdate")
    payload = {"id_low": 10, "id_high": 15, "score_bump": 1.0}
    result = fn.run(payload, services)
    assert result["updated"] == 5
    versions = services.sql.execute(
        "SELECT version FROM records WHERE id >= 10 AND id < 15"
    ).fetchall()
    assert all(row["version"] == 2 for row in versions)


def test_cos_get_verifies_etag(services):
    result = run_function("COSGet", services)
    assert result["verified"] is True
    assert result["bytes"] == 16384


def test_cos_put_roundtrip(services):
    fn = get_function("COSPut")
    payload = fn.generate_input(random.Random(7), scale=0.2)
    result = fn.run(payload, services)
    stored = services.cos.get_object(payload["bucket"], payload["key"])
    assert stored.etag == result["etag"]
    assert stored.size == result["bytes"]


def test_mq_produce_appends(services):
    drain = {"topic": "jobs", "group": "reader", "max_records": 10_000}
    before = get_function("MQConsume").run(drain, services)["consumed"]
    result = run_function("MQProduce", services)
    assert result["produced"] > 0
    after = get_function("MQConsume").run(drain, services)["consumed"]
    assert (before, after) == (32, result["produced"])


def test_mq_consume_drains_backlog(services):
    result = run_function("MQConsume", services)
    assert result["consumed"] > 0


def test_mq_consume_eventually_exhausts(services):
    fn = get_function("MQConsume")
    payload = {"topic": "jobs", "group": "drainer", "max_records": 10_000}
    first = fn.run(payload, services)
    second = fn.run(payload, services)
    assert first["consumed"] == 32  # the seeded backlog
    assert second["consumed"] == 0


def test_all_network_functions_run_cleanly(services):
    for name in (
        "RedisInsert", "RedisUpdate", "SQLSelect", "SQLUpdate",
        "COSGet", "COSPut", "MQProduce", "MQConsume",
    ):
        # str hashes are salted per process; crc32 draws the same input
        # on every run.
        seed = zlib.crc32(name.encode()) % 1000
        result = run_function(name, services, seed=seed)
        assert isinstance(result, dict) and result


#: Step order for the payload pin: a name draws its input from the round's
#: rng; a ``(name, payload)`` pair runs that payload.  ``REPEAT`` re-runs the
#: round's first RedisInsert input (every key exists, so ``NX`` refuses all),
#: and the whole-table SQLUpdate makes later SELECTs read accumulated floats.
REPEAT = "repeat"
PIN_ORDER = (
    "RedisInsert", "SQLSelect", "MQProduce", "SQLUpdate", "COSPut",
    ("RedisInsert", REPEAT), "MQConsume",
    ("SQLUpdate", {"id_low": 0, "id_high": 500, "score_bump": 0.7}),
    "RedisUpdate", "COSGet", "SQLSelect", "MQConsume",
)

#: Payloads recorded for ``PIN_ORDER`` over seeds (3, 11, 29) x scales
#: (0.1, 0.5, 1.0), all on one bundle.
PINNED_PAYLOADS = [
    ('RedisInsert', {'inserted': 4, 'requested': 4}),
    ('SQLSelect', {'rows': 5, 'top_score': 48.123}),
    ('MQProduce', {'produced': 1, 'last_offset': 8}),
    ('SQLUpdate', {'updated': 2}),
    ('COSPut', {'bytes': 1228, 'etag': 'aef09976242991739d2f7d41d0a20071'}),
    ('RedisInsert', {'inserted': 0, 'requested': 4}),
    ('MQConsume', {'consumed': 1}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 4}),
    ('COSGet', {'bytes': 16384, 'etag': 'bb5b5f95cc853cf22ddc3a2f77af362c', 'verified': True}),
    ('SQLSelect', {'rows': 5, 'top_score': 36.595000000000006}),
    ('MQConsume', {'consumed': 1}),
    ('RedisInsert', {'inserted': 16, 'requested': 20}),
    ('SQLSelect', {'rows': 25, 'top_score': 35.653000000000006}),
    ('MQProduce', {'produced': 5, 'last_offset': 16}),
    ('SQLUpdate', {'updated': 12}),
    ('COSPut', {'bytes': 6144, 'etag': '94bfa1de3a97577902fbd531727d1f8d'}),
    ('RedisInsert', {'inserted': 0, 'requested': 20}),
    ('MQConsume', {'consumed': 5}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 20}),
    ('COSGet', {'bytes': 16384, 'etag': 'dc6706ef2c449bfa05c095196cec1611', 'verified': True}),
    ('SQLSelect', {'rows': 25, 'top_score': 34.989000000000004}),
    ('MQConsume', {'consumed': 5}),
    ('RedisInsert', {'inserted': 20, 'requested': 40}),
    ('SQLSelect', {'rows': 50, 'top_score': 28.044999999999998}),
    ('MQProduce', {'produced': 10, 'last_offset': 26}),
    ('SQLUpdate', {'updated': 25}),
    ('COSPut', {'bytes': 12288, 'etag': '0c649ac632eb43a99182f26c86770599'}),
    ('RedisInsert', {'inserted': 0, 'requested': 40}),
    ('MQConsume', {'consumed': 10}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 40}),
    ('COSGet', {'bytes': 16384, 'etag': '8181e322ecd196279bd0a6abbaae55a9', 'verified': True}),
    ('SQLSelect', {'rows': 50, 'top_score': 49.68900000000001}),
    ('MQConsume', {'consumed': 10}),
    ('RedisInsert', {'inserted': 4, 'requested': 4}),
    ('SQLSelect', {'rows': 5, 'top_score': 41.415000000000006}),
    ('MQProduce', {'produced': 1, 'last_offset': 12}),
    ('SQLUpdate', {'updated': 2}),
    ('COSPut', {'bytes': 1228, 'etag': '4cbe21ae26c7127c3c97b0da884b0a99'}),
    ('RedisInsert', {'inserted': 0, 'requested': 4}),
    ('MQConsume', {'consumed': 1}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 4}),
    ('COSGet', {'bytes': 16384, 'etag': '9d180fc5479f002458f8fa53c14280aa', 'verified': True}),
    ('SQLSelect', {'rows': 4, 'top_score': 25.164999999999996}),
    ('MQConsume', {'consumed': 1}),
    ('RedisInsert', {'inserted': 16, 'requested': 20}),
    ('SQLSelect', {'rows': 25, 'top_score': 34.46200000000001}),
    ('MQProduce', {'produced': 5, 'last_offset': 31}),
    ('SQLUpdate', {'updated': 12}),
    ('COSPut', {'bytes': 6144, 'etag': '23c902bd1af2125453fd740553a18dde'}),
    ('RedisInsert', {'inserted': 0, 'requested': 20}),
    ('MQConsume', {'consumed': 5}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 20}),
    ('COSGet', {'bytes': 16384, 'etag': '8fd43e5fa9435a1ac82a767a19d08653', 'verified': True}),
    ('SQLSelect', {'rows': 25, 'top_score': 48.308000000000014}),
    ('MQConsume', {'consumed': 5}),
    ('RedisInsert', {'inserted': 20, 'requested': 40}),
    ('SQLSelect', {'rows': 50, 'top_score': 66.50200000000001}),
    ('MQProduce', {'produced': 10, 'last_offset': 18}),
    ('SQLUpdate', {'updated': 25}),
    ('COSPut', {'bytes': 12288, 'etag': 'a49caf207a1f1c44c1cfaf91803eb04c'}),
    ('RedisInsert', {'inserted': 0, 'requested': 40}),
    ('MQConsume', {'consumed': 10}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 40}),
    ('COSGet', {'bytes': 16384, 'etag': '8181e322ecd196279bd0a6abbaae55a9', 'verified': True}),
    ('SQLSelect', {'rows': 50, 'top_score': 36.518000000000015}),
    ('MQConsume', {'consumed': 10}),
    ('RedisInsert', {'inserted': 4, 'requested': 4}),
    ('SQLSelect', {'rows': 5, 'top_score': 32.571999999999996}),
    ('MQProduce', {'produced': 1, 'last_offset': 19}),
    ('SQLUpdate', {'updated': 2}),
    ('COSPut', {'bytes': 1228, 'etag': 'fe1d01853b693b347af0f292ebf74a72'}),
    ('RedisInsert', {'inserted': 0, 'requested': 4}),
    ('MQConsume', {'consumed': 1}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 4}),
    ('COSGet', {'bytes': 16384, 'etag': 'bb5b5f95cc853cf22ddc3a2f77af362c', 'verified': True}),
    ('SQLSelect', {'rows': 5, 'top_score': 16.731999999999996}),
    ('MQConsume', {'consumed': 1}),
    ('RedisInsert', {'inserted': 16, 'requested': 20}),
    ('SQLSelect', {'rows': 25, 'top_score': 29.787999999999997}),
    ('MQProduce', {'produced': 5, 'last_offset': 17}),
    ('SQLUpdate', {'updated': 12}),
    ('COSPut', {'bytes': 6144, 'etag': 'f1ada7518f45f1c9405578a02b8fdbba'}),
    ('RedisInsert', {'inserted': 0, 'requested': 20}),
    ('MQConsume', {'consumed': 5}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 20}),
    ('COSGet', {'bytes': 16384, 'etag': '5bb800d8cd10e9208b62177e2c2561c5', 'verified': True}),
    ('SQLSelect', {'rows': 25, 'top_score': 58.999000000000024}),
    ('MQConsume', {'consumed': 5}),
    ('RedisInsert', {'inserted': 20, 'requested': 40}),
    ('SQLSelect', {'rows': 50, 'top_score': 52.800000000000026}),
    ('MQProduce', {'produced': 10, 'last_offset': 29}),
    ('SQLUpdate', {'updated': 25}),
    ('COSPut', {'bytes': 12288, 'etag': '0ebeb253e1eb46e7d2d2af5335a531b2'}),
    ('RedisInsert', {'inserted': 0, 'requested': 40}),
    ('MQConsume', {'consumed': 10}),
    ('SQLUpdate', {'updated': 500}),
    ('RedisUpdate', {'updated': 40}),
    ('COSGet', {'bytes': 16384, 'etag': '8fd43e5fa9435a1ac82a767a19d08653', 'verified': True}),
    ('SQLSelect', {'rows': 50, 'top_score': 60.431000000000026}),
    ('MQConsume', {'consumed': 10}),
]


def test_network_payloads_match_recorded_literals():
    services = ServiceBundle()
    services.seed_defaults()
    results = []
    for seed in (3, 11, 29):
        for scale in (0.1, 0.5, 1.0):
            rng = random.Random(seed)
            inserted = None
            for step in PIN_ORDER:
                name, payload = step if isinstance(step, tuple) else (step, None)
                function = get_function(name)
                if payload == REPEAT:
                    payload = inserted
                elif payload is None:
                    payload = function.generate_input(rng, scale=scale)
                if name == "RedisInsert":
                    inserted = payload
                results.append((name, function.run(payload, services)))
    assert results == PINNED_PAYLOADS
