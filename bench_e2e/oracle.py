"""Correctness oracle: canonical row checksums of centrally evaluated answers.

The expected answer of every statement is the repo's own centralized GMDJ
evaluation over the conceptual (un-partitioned) table — the reference
semantics Theorem 3 says every distributed plan must match. Only a
checksum is kept, so the oracle's rows never sit in the measured heap.
"""

from __future__ import annotations

import hashlib

from repro.queries.sql import parse_olap_statement


def _canonical_cell(value) -> str:
    # Distributed evaluation folds float sums per site and then across
    # sites; the centralized fold runs in table order. Both are correct
    # and agree to rounding, so floats compare at 10 significant digits.
    if isinstance(value, float):
        return format(value, ".10g")
    return repr(value)


def checksum(relation) -> str:
    """Order-insensitive digest of a relation's schema names and rows."""
    lines = sorted(
        "\x1f".join(_canonical_cell(value) for value in row) for row in relation.rows
    )
    digest = hashlib.blake2b(digest_size=16)
    digest.update("\x1f".join(relation.schema.names).encode("utf-8"))
    for line in lines:
        digest.update(b"\x1e")
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def expected_checksum(sql: str, tables) -> str:
    """Centralized answer of one statement over the conceptual tables."""
    statement = parse_olap_statement(sql)
    relation = statement.expression.evaluate_centralized(tables)
    return checksum(statement.apply_post(relation))
