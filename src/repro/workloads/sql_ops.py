"""SQLSelect and SQLUpdate workloads.

Query the seeded ``records`` table (see
:meth:`repro.workloads.base.ServiceBundle.seed_defaults`) with a SELECT
over a score range, or bump versions with an UPDATE — the two
PostgreSQL shapes Table I lists.
"""

from __future__ import annotations

import random

from repro.workloads.base import (
    NETWORK_BOUND,
    Payload,
    ServiceBundle,
    WorkloadFunction,
    register,
)


@register
class SqlSelectWorkload(WorkloadFunction):
    """Table I ``SQLSelect``: query our PostgreSQL server using SELECT."""

    name = "SQLSelect"
    category = NETWORK_BOUND
    description = "query our PostgreSQL server using SELECT"

    def generate_input(self, rng: random.Random, scale: float = 1.0) -> Payload:
        low = rng.uniform(0.0, 50.0)
        return {
            "score_low": round(low, 3),
            "score_high": round(low + 25.0 * scale, 3),
            "limit": max(1, int(50 * scale)),
        }

    def run(self, payload: Payload, services: ServiceBundle) -> Payload:
        services.seed_defaults()
        rows = services.sql.execute(
            "SELECT id, payload, score FROM records "
            "WHERE score >= ? AND score < ? ORDER BY score DESC LIMIT ?",
            (payload["score_low"], payload["score_high"],
             int(payload["limit"])),
        ).fetchall()
        scores = [row["score"] for row in rows]
        return {
            "rows": len(rows),
            "top_score": scores[0] if scores else None,
        }


@register
class SqlUpdateWorkload(WorkloadFunction):
    """Table I ``SQLUpdate``: query our PostgreSQL server using UPDATE."""

    name = "SQLUpdate"
    category = NETWORK_BOUND
    description = "query our PostgreSQL server using UPDATE"

    def generate_input(self, rng: random.Random, scale: float = 1.0) -> Payload:
        low = rng.randrange(0, 450)
        return {
            "id_low": low,
            "id_high": low + max(1, int(25 * scale)),
            "score_bump": round(rng.uniform(0.1, 2.0), 3),
        }

    def run(self, payload: Payload, services: ServiceBundle) -> Payload:
        services.seed_defaults()
        cursor = services.sql.execute(
            "UPDATE records SET version = version + 1, score = score + ? "
            "WHERE id >= ? AND id < ?",
            (payload["score_bump"], int(payload["id_low"]),
             int(payload["id_high"])),
        )
        return {"updated": cursor.rowcount}


__all__ = ["SqlSelectWorkload", "SqlUpdateWorkload"]
