"""The one telemetry file format: versioned JSONL, one loader, one validator.

Every telemetry file this package writes — a ``repro trace --emit-trace``
trace and a flight-recorder dump alike — is a sequence of JSON objects,
one per line:

- line 1 is the **header**: ``{"record": "header", "schema_version": 3,
  "generator": "repro.obs"}``. A flight dump's header also names the ring
  it was written from: ``"process"`` (``"coordinator"``/``"site"``),
  ``"site_id"``, ``"capacity"`` and ``"dropped"`` (records the ring had
  dropped as of the last whole rewrite) — :attr:`EventLog.origin`;
- every following line is a record with a ``"record"`` type tag:

  - ``"span"`` — one :class:`~repro.obs.tracer.Span` (name, kind, ids,
    monotonic start/end seconds, attribute dict);
  - ``"metric"`` — one metric snapshot (encoded identity, type,
    value or histogram buckets) from a
    :class:`~repro.obs.metrics.MetricsRegistry`;
  - ``"stats"`` — the run's :class:`~repro.distributed.stats.ExecutionStats`
    snapshot (``to_dict``), the same numbers the benchmarks report;
  - ``"plan"`` — the optimized plan's description (``describe``) and
    optimizer ``notes``; a trace ``repro explain --analyze`` writes also
    carries the priced ``optimizations`` and the ``topology`` choice, so
    the file alone rebuilds the profile ``--json`` prints;
  - ``"clock"`` — the per-site clock offset/RTT map of a socket run;
  - ``"event"`` / ``"fault"`` — what a flight ring records beside spans
    (lifecycle and per-request events, site-side errors), each with a
    ``"t_s"`` stamp on the recording process's monotonic clock.

Any record may carry a ``"query_id"`` field, so one file holding several
service queries can be filtered per query with
:meth:`EventLog.for_query`. Span records carry cross-process provenance:
``"process"`` (``"coordinator"``/``"site"``), ``"site_id"`` and
``"clock_offset_s"`` (the skew correction already applied to the span's
timestamps — see :mod:`repro.obs.skew`). A file whose records disagree
on the schema version — e.g. two concatenated traces — is rejected with
the offending line number.

The round trip is redaction-free and lossless: ``load(dump(path))``
returns exactly the records written. Unknown record types are preserved
(they validate as long as they carry a ``"record"`` tag), so older
readers skip rather than crash on newer producers *within* the schema
version; any other ``schema_version`` is rejected loudly.

A flight dump is loaded differently in exactly what follows from how it
is written. The recorder *appends* to it between whole rewrites (see
:mod:`repro.obs.flightrec`), so the file may hold up to twice
``capacity`` records and, if the process was killed inside a write, one
torn final line: the loader keeps the last ``capacity`` records (the
ring), counts the ones before into ``dropped``, forgives a final line
that is not JSON, and stamps each span with the header's
``process``/``site_id`` where it lacks its own. A trace is written
whole, so a bad line anywhere in one is an error naming the line.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.errors import TraceSchemaError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

#: Version of the JSONL record layout. Bump on any breaking change.
SCHEMA_VERSION = 3

#: Versions this reader can load: the one it writes.
SUPPORTED_SCHEMA_VERSIONS = (SCHEMA_VERSION,)

GENERATOR = "repro.obs"

_PROCESSES = ("coordinator", "site")
_RING_KEYS = ("process", "site_id", "capacity", "dropped")
_SPAN_REQUIRED = ("name", "kind", "span_id", "parent_id", "start_s", "end_s")
_METRIC_REQUIRED = ("name", "type")
_METRIC_TYPES = ("counter", "gauge", "histogram")


class EventLog:
    """An in-memory JSONL trace: a list of record dicts plus the header."""

    def __init__(self, records: Optional[List[dict]] = None,
                 schema_version: int = SCHEMA_VERSION,
                 origin: Optional[dict] = None):
        self.schema_version = schema_version
        self.records: List[dict] = list(records or [])
        #: The ring a flight dump was written from (``process``,
        #: ``site_id``, ``capacity``, ``dropped``); None for a trace.
        self.origin = origin

    # -- building ----------------------------------------------------------------

    def append(self, record_type: str, **fields) -> dict:
        record = {"record": record_type, **fields}
        self.records.append(record)
        return record

    def add_span(self, span: Span) -> dict:
        return self.append("span", **span.to_dict())

    def add_metrics(self, registry: MetricsRegistry) -> None:
        for key, snapshot in registry.snapshot().items():
            self.append("metric", name=key, **snapshot)

    # -- reading -----------------------------------------------------------------

    def records_of(self, record_type: str) -> List[dict]:
        return [record for record in self.records if record["record"] == record_type]

    def spans(self) -> List[Span]:
        return [Span.from_dict(record) for record in self.records_of("span")]

    def query_ids(self) -> List:
        """Distinct query_id values present, sorted."""
        seen = set()
        for record in self.records:
            query_id = record.get("query_id")
            if query_id is None and record.get("record") == "span":
                query_id = record.get("attributes", {}).get("query_id")
            if query_id is not None:
                seen.add(query_id)
        return sorted(seen, key=repr)

    def for_query(self, query_id) -> "EventLog":
        """A new log holding only records belonging to ``query_id``.

        A span belongs if it carries the id (record field or span
        attribute) or descends from a span that does.
        """
        span_records = self.records_of("span")
        member_ids = set()
        for record in span_records:
            attr_id = record.get("attributes", {}).get("query_id")
            if record.get("query_id") == query_id or attr_id == query_id:
                member_ids.add(record["span_id"])
        grew = True
        while grew:
            grew = False
            for record in span_records:
                if record["span_id"] in member_ids:
                    continue
                if record.get("parent_id") in member_ids:
                    member_ids.add(record["span_id"])
                    grew = True
        kept = []
        for record in self.records:
            if record.get("record") == "span":
                if record["span_id"] in member_ids:
                    kept.append(record)
            elif record.get("query_id") == query_id:
                kept.append(record)
        return EventLog(kept, self.schema_version, self.origin)

    def header(self) -> dict:
        return {
            "record": "header",
            "schema_version": self.schema_version,
            "generator": GENERATOR,
            **(self.origin or {}),
        }

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check every record against the schema; raise TraceSchemaError."""
        if self.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
            raise TraceSchemaError(
                f"unsupported trace schema version {self.schema_version!r} "
                f"(this reader understands {SUPPORTED_SCHEMA_VERSIONS})"
            )
        for line_number, record in enumerate(self.records, start=2):
            _validate_record(record, line_number)

    # -- serialization -----------------------------------------------------------

    def dumps(self) -> str:
        """The JSONL text: header line plus one line per record."""
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True) for record in self.records)
        return "\n".join(lines) + "\n"

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "EventLog":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise TraceSchemaError("empty trace: missing header line")
        records = []
        for line_number, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                # Only a ring's file is appended to, so only it can end in
                # the line its writer was killed inside.
                if 1 < line_number == len(lines) and "capacity" in records[0]:
                    break
                raise TraceSchemaError(
                    f"line {line_number}: not valid JSON ({error})"
                ) from None
            if not isinstance(record, dict) or "record" not in record:
                raise TraceSchemaError(
                    f"line {line_number}: every record needs a 'record' tag"
                )
            records.append(record)
        header = records[0]
        if header["record"] != "header":
            raise TraceSchemaError("line 1: first record must be the header")
        version = header.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise TraceSchemaError(
                f"unsupported trace schema version {version!r} "
                f"(this reader understands {SUPPORTED_SCHEMA_VERSIONS})"
            )
        for line_number, record in enumerate(records[1:], start=2):
            if record.get("record") != "header":
                continue
            other = record.get("schema_version")
            if other != version:
                raise TraceSchemaError(
                    f"line {line_number}: mixed trace schema versions — header "
                    f"declares {other!r} but the file opened as version "
                    f"{version!r}; concatenated traces cannot be loaded"
                )
            raise TraceSchemaError(
                f"line {line_number}: unexpected second header record; "
                f"one trace file holds exactly one header on line 1"
            )
        origin = _ring_origin(header)
        log = cls(records[1:], version, origin)
        log.validate()
        if origin is not None:
            # An appended-to dump: cut it back to the ring it records.
            outlived = max(0, len(log.records) - origin["capacity"])
            origin["dropped"] += outlived
            del log.records[:outlived]
            for record in log.records_of("span"):
                record.setdefault("process", origin["process"])
                if origin["site_id"] is not None:
                    record.setdefault("site_id", origin["site_id"])
        return log

    @classmethod
    def load(cls, path) -> "EventLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventLog)
            and self.schema_version == other.schema_version
            and self.origin == other.origin
            and self.records == other.records
        )

    def __len__(self) -> int:
        return len(self.records)


def _ring_origin(header: dict) -> Optional[dict]:
    """The ring a header names (its ``capacity`` key says it names one)."""
    if "capacity" not in header:
        return None
    origin = {key: header.get(key) for key in _RING_KEYS}
    capacity, dropped = origin["capacity"], origin["dropped"]
    if (
        origin["process"] not in _PROCESSES
        or not isinstance(origin["site_id"], (str, type(None)))
        or type(capacity) is not int
        or type(dropped) is not int
        or capacity < 1
        or dropped < 0
    ):
        raise TraceSchemaError(
            f"line 1: header names a malformed flight ring {origin!r}"
        )
    return origin


def _validate_record(record: dict, line_number: int) -> None:
    record_type = record.get("record")
    if not isinstance(record_type, str):
        raise TraceSchemaError(f"line {line_number}: 'record' tag must be a string")
    if "query_id" in record and not isinstance(record["query_id"], (int, str)):
        raise TraceSchemaError(
            f"line {line_number}: 'query_id' must be an integer or string"
        )
    if "process" in record and record["process"] not in _PROCESSES:
        raise TraceSchemaError(
            f"line {line_number}: 'process' must be 'coordinator' or 'site' "
            f"(got {record['process']!r})"
        )
    if record_type == "clock":
        if not isinstance(record.get("sites"), dict):
            raise TraceSchemaError(
                f"line {line_number}: clock record needs a 'sites' object"
            )
        return
    if record_type == "plan":
        if "describe" not in record:
            raise TraceSchemaError(
                f"line {line_number}: plan record missing 'describe'"
            )
        return
    if record_type == "span":
        for field_name in _SPAN_REQUIRED:
            if field_name not in record:
                raise TraceSchemaError(
                    f"line {line_number}: span record missing {field_name!r}"
                )
        if not isinstance(record.get("attributes", {}), dict):
            raise TraceSchemaError(
                f"line {line_number}: span attributes must be an object"
            )
    elif record_type == "metric":
        for field_name in _METRIC_REQUIRED:
            if field_name not in record:
                raise TraceSchemaError(
                    f"line {line_number}: metric record missing {field_name!r}"
                )
        if record["type"] not in _METRIC_TYPES:
            raise TraceSchemaError(
                f"line {line_number}: unknown metric type {record['type']!r}"
            )
        if record["type"] == "histogram":
            if "counts" not in record or "boundaries" not in record:
                raise TraceSchemaError(
                    f"line {line_number}: histogram record needs counts+boundaries"
                )
        elif "value" not in record:
            raise TraceSchemaError(
                f"line {line_number}: {record['type']} record missing 'value'"
            )
    elif record_type == "stats":
        if "rounds" not in record:
            raise TraceSchemaError(
                f"line {line_number}: stats record missing 'rounds'"
            )
    # Unknown record types are allowed within a schema version.


def build_trace(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    stats=None,
    model=None,
    plan=None,
    query_id=None,
    clock_map=None,
) -> EventLog:
    """Assemble one run's trace: spans, metrics snapshot, stats snapshot.

    ``stats`` is an :class:`~repro.distributed.stats.ExecutionStats` (kept
    untyped here so ``repro.obs`` stays import-free of the distributed
    layer); ``model`` optionally prices its communication breakdown.
    ``plan`` (any object with ``describe()`` and ``notes``) adds a
    "plan" record; ``query_id`` stamps every emitted record so several
    runs can share one file and be pulled apart with ``for_query``.
    ``clock_map`` (a :class:`~repro.obs.skew.ClockMap`) records the
    per-site offset/RTT estimates of a socket run as a "clock"
    record. Span records without replay provenance are stamped
    ``process="coordinator"`` — every span says where it ran.
    """
    log = EventLog()
    if tracer is not None and getattr(tracer, "enabled", False):
        for span in tracer.spans:
            record = log.add_span(span)
            record.setdefault("process", "coordinator")
    if metrics is not None:
        log.add_metrics(metrics)
    if stats is not None:
        log.append("stats", **stats.to_dict(model))
    if plan is not None:
        log.append("plan", describe=plan.describe(), notes=list(plan.notes))
    if clock_map is not None and len(clock_map):
        log.append("clock", sites=clock_map.to_dict())
    if query_id is not None:
        for record in log.records:
            record.setdefault("query_id", query_id)
    return log
