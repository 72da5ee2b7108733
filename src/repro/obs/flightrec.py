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

File format (JSONL, one object per line):

- line 1: ``{"record": "flight", "flight_version": 1, "process": ...,
  "site_id": ..., "capacity": ..., "dropped": ..., "generator":
  "repro.obs"}`` — ``dropped`` as of the last rewrite;
- following lines: records in arrival order, each tagged
  ``"record": "span" | "event" | "fault"`` plus a ``"t_s"`` stamp on
  the recording process's monotonic clock. Between rewrites there can be
  up to twice ``capacity`` of them: the ring is the last ``capacity``,
  and the loader counts the ones before as dropped.

:class:`FlightRecord` loads a dump back; :meth:`FlightRecord.to_event_log`
converts one (or :func:`load_flight_dir` merges a directory of them)
into a schema-v3 :class:`~repro.obs.events.EventLog` so ``repro trace``
and :mod:`repro.obs.diff` can post-mortem a killed site with the same
tooling they use on live traces.
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
    "FLIGHT_VERSION",
    "FlightRecord",
    "FlightRecorder",
    "flight_path",
    "load_flight_dir",
]

FLIGHT_VERSION = 1

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
        return {
            "record": "flight",
            "flight_version": FLIGHT_VERSION,
            "generator": "repro.obs",
            "process": self.process,
            "site_id": self.site_id,
            "capacity": self.capacity,
            "dropped": self.dropped,
        }

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


class FlightRecord:
    """A loaded flight-recorder dump (or a live snapshot shipped over
    the TELEMETRY frame)."""

    def __init__(
        self,
        records: List[dict],
        process: str = "coordinator",
        site_id: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
        dropped: int = 0,
    ):
        self.records = list(records)
        self.process = process
        self.site_id = site_id
        self.capacity = capacity
        self.dropped = dropped

    # -- loading -----------------------------------------------------------------

    @classmethod
    def loads(cls, text: str) -> "FlightRecord":
        """Load a dump: the ring is the last ``capacity`` records of the file.

        A recorder appends between rewrites, so the file may hold records
        the ring has since dropped (counted into ``dropped``) and, if the
        process was killed inside a write, a torn final line (ignored; a
        malformed line anywhere else is an error).
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ObservabilityError("empty flight record: missing header line")
        records = []
        for line_number, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                if 1 < line_number == len(lines):
                    break
                raise ObservabilityError(
                    f"flight record line {line_number}: not valid JSON ({error})"
                ) from None
            if not isinstance(record, dict) or "record" not in record:
                raise ObservabilityError(
                    f"flight record line {line_number}: every record needs "
                    f"a 'record' tag"
                )
            records.append(record)
        header = records[0]
        if header.get("record") != "flight":
            raise ObservabilityError(
                "flight record line 1: first record must be the flight header"
            )
        version = header.get("flight_version")
        if version != FLIGHT_VERSION:
            raise ObservabilityError(
                f"unsupported flight record version {version!r} "
                f"(this reader understands {FLIGHT_VERSION})"
            )
        capacity = header.get("capacity", DEFAULT_CAPACITY)
        outlived = max(0, len(records) - 1 - capacity)
        return cls(
            records[1 + outlived :],
            process=header.get("process", "coordinator"),
            site_id=header.get("site_id"),
            capacity=capacity,
            dropped=header.get("dropped", 0) + outlived,
        )

    @classmethod
    def load(cls, path) -> "FlightRecord":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    @classmethod
    def from_snapshot(cls, payload: dict) -> "FlightRecord":
        """Build from a TELEMETRY-frame flight section (already parsed)."""
        return cls(
            payload.get("records", []),
            process=payload.get("process", "site"),
            site_id=payload.get("site_id"),
            capacity=payload.get("capacity", DEFAULT_CAPACITY),
            dropped=payload.get("dropped", 0),
        )

    # -- writing -----------------------------------------------------------------

    def header(self) -> dict:
        return {
            "record": "flight",
            "flight_version": FLIGHT_VERSION,
            "generator": "repro.obs",
            "process": self.process,
            "site_id": self.site_id,
            "capacity": self.capacity,
            "dropped": self.dropped,
        }

    def dumps(self) -> str:
        return _lines([self.header()] + self.records)

    def dump(self, path) -> str:
        path = str(path)
        _write_atomically(path, self.dumps())
        return path

    # -- reading -----------------------------------------------------------------

    def records_of(self, record_type: str) -> List[dict]:
        return [
            record for record in self.records
            if record.get("record") == record_type
        ]

    def spans(self) -> List[Span]:
        spans = []
        for record in self.records_of("span"):
            payload = {
                key: value for key, value in record.items()
                if key not in ("record", "t_s")
            }
            spans.append(Span.from_dict(payload))
        return spans

    def to_event_log(self) -> EventLog:
        """A schema-v3 :class:`EventLog` view for trace tooling.

        Span records keep their fields (stamped with this record's
        process/site provenance when they lack their own); event and
        fault records pass through — unknown record types are legal
        within a schema version, so older readers skip them.
        """
        log = EventLog()
        for record in self.records:
            fields = {
                key: value for key, value in record.items() if key != "record"
            }
            emitted = log.append(record.get("record", "event"), **fields)
            if record.get("record") == "span":
                emitted.pop("t_s", None)
                emitted.setdefault(
                    "process", "site" if self.site_id is not None else self.process
                )
                if self.site_id is not None:
                    emitted.setdefault("site_id", self.site_id)
        return log


def load_flight_dir(directory) -> List[FlightRecord]:
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
    return [FlightRecord.load(os.path.join(directory, name)) for name in names]
