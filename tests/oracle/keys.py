"""The ``dict`` key path: what the sorted composite key path must match.

Every key used to be a Python value — a scalar, or a tuple of several
attributes' values — and every key mechanism a ``dict``: a factorization
was one ``dict`` pass (:func:`factorize`), the MD-join's base table and
the coordinator's sync index mapped each key to its positions
(:func:`key_index`), and a probe was a lookup per key (:func:`probe`).
Keys of two or more ``int64`` attributes now take one sorted composite
instead (:mod:`repro.relalg.columnar`); these are kept as the reference it
must equal, and :func:`dict_keys` sends the production code down its own
``dict`` path for every key.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.relalg.aggregates import AggregateFunction, AvgFunction
from repro.relalg.columnar import ColumnarRelation


def keys(rows, positions) -> list:
    """Each row's key: the tuple of its values at ``positions``."""
    return [tuple(row[position] for position in positions) for row in rows]


def factorize(keys) -> tuple:
    """First-seen ``(firsts, codes)`` of ``keys``: one ``dict`` pass."""
    index: dict = {}
    codes = [index.setdefault(key, (len(index), position))[0] for position, key in enumerate(keys)]
    return [position for _code, position in index.values()], codes


def key_index(keys, indices) -> dict:
    """``key -> indices`` (in order) over row-aligned sequences."""
    index: dict = {}
    for key, position in zip(keys, indices):
        index.setdefault(key, []).append(position)
    return index


def probe(index: dict, keys) -> list:
    """``(row, position)`` per (probing row, indexed position) pair, row-major."""
    return [(row, position) for row, key in enumerate(keys) for position in index.get(key, ())]


@contextlib.contextmanager
def dict_keys():
    """Every key takes the ``dict`` path, and AVG finalizes per group."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColumnarRelation, "int_keys", lambda self, positions: None)
        patch.setattr(AvgFunction, "finalize_columns", AggregateFunction.finalize_columns)
        yield
