"""Execution engine: columnar batch kernels, with the row engine as oracle.

``columnar`` is what runs unless something asks otherwise.  The row engine is
the differential oracle — it is never removed, and every columnar code path
must produce bit-identical results against it.  The active engine is tracked
per-context (thread/task safe) with a lazy fallback to the ``REPRO_ENGINE``
environment variable so forked workers and test monkeypatches both observe the
expected default.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from ..errors import PlanError

ENGINES = ("row", "columnar")

#: The engine of every context, config and site request that names none —
#: the one place the default is spelled.
DEFAULT_ENGINE = "columnar"

_ACTIVE_ENGINE: ContextVar[Optional[str]] = ContextVar("repro_engine", default=None)


def validate_engine(name: str) -> str:
    if name not in ENGINES:
        raise PlanError(f"unknown engine {name!r}; expected one of {ENGINES}")
    return name


def active_engine() -> str:
    """The engine for the current context (env fallback, default ``columnar``)."""

    current = _ACTIVE_ENGINE.get()
    if current is not None:
        return current
    return validate_engine(os.environ.get("REPRO_ENGINE", DEFAULT_ENGINE))


@contextmanager
def use_engine(name: str) -> Iterator[str]:
    """Scope the active engine; restores the previous engine on exit."""

    token = _ACTIVE_ENGINE.set(validate_engine(name))
    try:
        yield name
    finally:
        _ACTIVE_ENGINE.reset(token)
