"""Crash flight recorder: a bounded ring of recent telemetry.

Every process in a socket deployment — the coordinator and each site
server — keeps a :class:`FlightRecorder`: a fixed-capacity ring buffer
of recent spans, events and faults. The ring is cheap enough to leave
always-on, and it is the only telemetry that survives a crash: piggy-
backed spans and TELEMETRY scrapes need a live peer, the flight
recorder needs only a file.

Persistence model: :meth:`FlightRecorder.dump` *brings the file up to
date*. Site servers call it after every handled request, before the
reply goes out — that is what makes a ``SIGKILL``-ed site debuggable,
since no handler gets to run — and again from a SIGTERM handler and on
shutdown for the graceful paths; so it has to cost what the request
added, not what the ring holds. It appends the records taken since this
recorder last wrote the path, as one ``O_APPEND`` write, and rewrites
the whole ring atomically (temp file + ``os.replace``) only when there is
no file yet, the path changed, or the file would pass twice the ring's
capacity in records. Neither path syncs: the file survives the death of
the process, not of the machine, as it always did. A ``SIGKILL`` leaves
either whole lines or, if it lands inside the write, one torn final line,
which the loader drops; every request whose reply the coordinator saw is
on disk whole.

The file is an :class:`~repro.obs.events.EventLog` whose header names
this ring — :mod:`repro.obs.events` is the one format spec and
``EventLog.load`` the one loader (it cuts an appended-to file back to the
last ``capacity`` records, counts the rest as dropped and forgives the
torn line). :func:`load_flight_dir` loads a ``repro cluster dump``
directory, so ``repro trace --flight`` post-mortems a killed site from
the same records a live trace holds.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from collections import deque
from typing import List, Optional

from repro.errors import ObservabilityError
from repro.obs.events import EventLog
from repro.obs.tracer import Span

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "flight_path",
    "load_flight_dir",
]

#: Default ring capacity: deep enough for several queries' spans. A
#: per-request dump appends what the request recorded — microseconds —
#: and rewrites the ring once per ``capacity`` records.
DEFAULT_CAPACITY = 512


def _lines(records) -> str:
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def _append_lines(path: str, records) -> bool:
    """Append ``records`` to the dump at ``path``; False if it is not there.

    One ``O_APPEND`` write: whoever reads the file, or whatever kills this
    process, finds whole lines and at most one torn last one.
    """
    data = _lines(records).encode("utf-8")
    try:
        descriptor = os.open(path, os.O_WRONLY | os.O_APPEND)
    except FileNotFoundError:
        return False
    try:
        while data:  # a short write is legal, if unheard of on a file
            data = data[os.write(descriptor, data) :]
    finally:
        os.close(descriptor)
    return True


def _write_atomically(path: str, text: str) -> None:
    """Temp file then rename: a reader sees the old dump or the new, whole."""
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp_path, path)


def flight_path(directory, process: str, site_id: Optional[str] = None) -> str:
    """Canonical dump filename for one process's flight record."""
    name = f"flight-{process}.jsonl" if site_id is None else (
        f"flight-{process}-{site_id}.jsonl"
    )
    return os.path.join(str(directory), name)


class FlightRecorder:
    """Fixed-capacity ring of recent spans/events/faults; thread-safe."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        process: str = "coordinator",
        site_id: Optional[str] = None,
        clock=time.perf_counter,
    ):
        if capacity < 1:
            raise ObservabilityError(
                f"flight recorder capacity must be >= 1 (got {capacity})"
            )
        self.capacity = capacity
        self.process = process
        self.site_id = site_id
        self._clock = clock
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0
        # What dump() last left on disk, so the next one can append: the
        # path, how many records had ever been taken, how many the file
        # holds. Re-entrant because the signal handler dumps on whichever
        # frame the main thread is in — possibly a dump.
        self._dump_lock = threading.RLock()
        self._dumped_path: Optional[str] = None
        self._dumped_total = 0
        self._file_records = 0

    # -- recording ---------------------------------------------------------------

    def record(self, record_type: str, **fields) -> dict:
        record = {"record": record_type, "t_s": self._clock(), **fields}
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(record)
        return record

    def record_span(self, span: Span) -> dict:
        return self.record("span", **span.to_dict())

    def record_spans(self, spans) -> None:
        for span in spans:
            self.record_span(span)

    def record_event(self, name: str, **fields) -> dict:
        return self.record("event", name=name, **fields)

    def record_fault(self, **fields) -> dict:
        return self.record("fault", **fields)

    # -- snapshotting ------------------------------------------------------------

    def snapshot(self) -> List[dict]:
        with self._lock:
            return [dict(record) for record in self._ring]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def header(self) -> dict:
        """The dump's first line: the trace header, naming this ring."""
        origin = {
            "process": self.process,
            "site_id": self.site_id,
            "capacity": self.capacity,
            "dropped": self.dropped,
        }
        return EventLog(origin=origin).header()

    def dumps(self) -> str:
        return _lines([self.header()] + self.snapshot())

    def dump(self, path) -> str:
        """Bring the dump at ``path`` up to date; returns the path.

        Appends the records taken since this recorder last wrote ``path``;
        rewrites the ring (temp file then rename, so a reader never sees a
        half-written one) when there is nothing to append to or the file
        has grown to twice the ring.
        """
        path = str(path)
        with self._dump_lock:
            with self._lock:
                ring = list(self._ring)
                header = self.header()
            total = header["dropped"] + len(ring)
            fresh = total - self._dumped_total
            if (
                path == self._dumped_path
                and fresh <= len(ring)  # else some were dropped undumped
                and self._file_records + fresh <= 2 * self.capacity
                and _append_lines(path, ring[len(ring) - fresh :])
            ):
                self._file_records += fresh
            else:
                _write_atomically(path, _lines([header] + ring))
                self._dumped_path = path
                self._file_records = len(ring)
            self._dumped_total = total
        return path

    def install_signal_handler(self, path, signals=(signal.SIGTERM,)) -> None:
        """Dump the ring when one of ``signals`` arrives, then exit.

        Chains to any previously installed handler; falls back to a
        plain ``SystemExit`` so ``finally`` blocks still run. Only the
        main thread of a process can install signal handlers.
        """
        previous_handlers = {}

        def _dump_and_exit(signum, frame):
            try:
                self.record_event("signal", signum=int(signum))
                self.dump(path)
            finally:
                previous = previous_handlers.get(signum)
                if callable(previous):
                    previous(signum, frame)
                else:
                    raise SystemExit(128 + int(signum))

        for signum in signals:
            previous_handlers[signum] = signal.signal(signum, _dump_and_exit)


def load_flight_dir(directory) -> List[EventLog]:
    """Load every ``flight-*.jsonl`` dump in ``directory``, sorted by name."""
    directory = str(directory)
    try:
        entries = os.listdir(directory)
    except OSError as error:
        raise ObservabilityError(
            f"cannot read flight directory {directory}: {error}"
        ) from None
    names = sorted(
        name
        for name in entries
        if name.startswith("flight-") and name.endswith(".jsonl")
    )
    if not names:
        raise ObservabilityError(
            f"no flight records (flight-*.jsonl) in {directory}"
        )
    return [EventLog.load(os.path.join(directory, name)) for name in names]
