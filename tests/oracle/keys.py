"""The ``dict`` key mechanisms: what both implementations of the one key
interface must match.

Every key used to be a Python value — a scalar, or a tuple of several
attributes' values — and every key mechanism a ``dict``: a factorization
was one ``dict`` pass (:func:`factorize`), the MD-join's base table and
the coordinator's sync index mapped each key to its positions
(:func:`key_index`), and a probe was a lookup per key (:func:`probe`).
Now every key goes through :class:`repro.relalg.columnar.KeyMatcher`,
whose one selector picks a ``dict`` over key values or, for keys of two or
more ``int64`` attributes on enough rows, one sorted composite. These are
kept as the reference both must equal; :func:`dict_keys` makes the
selector pick the ``dict`` for every key.
"""

from __future__ import annotations

import contextlib
import math

import pytest

from repro.relalg.aggregates import AggregateFunction, AvgFunction
from repro.relalg import columnar


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
    """Every key takes the ``dict`` implementation (no relation reaches
    ``COMPOSITE_MIN_ROWS``), and AVG finalizes per group."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "COMPOSITE_MIN_ROWS", math.inf)
        patch.setattr(AvgFunction, "finalize_columns", AggregateFunction.finalize_columns)
        yield
