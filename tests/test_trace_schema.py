"""Trace schema: query_id stamping, the one supported version,
mixed-version rejection."""

import json

import pytest

from repro.errors import TraceSchemaError
from repro.obs import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    EventLog,
    MetricsRegistry,
    Tracer,
    build_trace,
)


class FakeClock:
    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class FakePlan:
    notes = ("coalescing skipped: no adjacent mergeable steps",)

    def describe(self) -> str:
        return "round 1: 1 step(s) on 2 site(s)"


def traced_query(query_id=None) -> EventLog:
    tracer = Tracer(clock=FakeClock())
    attrs = {} if query_id is None else {"query_id": query_id}
    with tracer.span("query", kind="query", **attrs):
        with tracer.span("round", kind="round", index=0):
            with tracer.span("round.evaluate", kind="site", site="site0"):
                pass
    registry = MetricsRegistry()
    registry.counter("gmdj.tuples_emitted").inc(5)
    return build_trace(tracer, registry, plan=FakePlan(), query_id=query_id)


def versioned_text(version: int) -> str:
    """A handwritten trace whose header declares ``version``."""
    lines = [
        {"record": "header", "schema_version": version, "generator": "repro.obs"},
        {
            "record": "span",
            "name": "query",
            "kind": "query",
            "span_id": 1,
            "parent_id": None,
            "start_s": 0.0,
            "end_s": 1.0,
            "attributes": {},
        },
        {"record": "metric", "name": "gmdj.tuples_emitted", "type": "counter",
         "value": 5},
    ]
    return "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n"


class TestSchemaVersions:
    def test_current_version_is_three(self):
        assert SCHEMA_VERSION == 3
        assert SUPPORTED_SCHEMA_VERSIONS == (3,)

    def test_current_round_trip_is_lossless(self):
        log = traced_query(query_id=7)
        loaded = EventLog.loads(log.dumps())
        assert loaded == log
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.query_ids() == [7]
        assert loaded.records_of("plan")[0]["describe"].startswith("round 1")

    def test_query_id_stamped_on_every_record(self):
        log = traced_query(query_id="q-42")
        assert all(record.get("query_id") == "q-42" for record in log.records)

    def test_query_id_must_be_int_or_str(self):
        log = traced_query(query_id=1)
        log.records[0]["query_id"] = [1, 2]
        with pytest.raises(TraceSchemaError, match="integer or string"):
            log.validate()

    def test_mixed_versions_rejected_with_line_number(self):
        concatenated = traced_query(query_id=1).dumps() + versioned_text(1)
        with pytest.raises(TraceSchemaError) as excinfo:
            EventLog.loads(concatenated)
        message = str(excinfo.value)
        assert "mixed trace schema versions" in message
        # The offending header is the first line of the second trace.
        expected_line = len(traced_query(query_id=1).dumps().splitlines()) + 1
        assert f"line {expected_line}" in message

    def test_duplicate_same_version_header_rejected(self):
        text = traced_query(query_id=1).dumps()
        doubled = text + text
        with pytest.raises(TraceSchemaError, match="second header"):
            EventLog.loads(doubled)

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_unsupported_version_rejected(self, version):
        # The body is valid under every layout there has ever been, so the
        # header alone earns the rejection — and it names what would load.
        assert EventLog.loads(versioned_text(SCHEMA_VERSION)).records
        with pytest.raises(TraceSchemaError) as excinfo:
            EventLog.loads(versioned_text(version))
        message = str(excinfo.value)
        assert f"unsupported trace schema version {version}" in message
        assert str(SUPPORTED_SCHEMA_VERSIONS) in message


class TestForQuery:
    def test_for_query_filters_spans_and_records(self):
        first = traced_query(query_id=1)
        second = traced_query(query_id=2)
        # Renumber the second run's span ids so a shared file stays unambiguous.
        offset = 100
        for record in second.records:
            if record["record"] == "span":
                record["span_id"] += offset
                if record["parent_id"] is not None:
                    record["parent_id"] += offset
        shared = EventLog(first.records + second.records)
        assert shared.query_ids() == [1, 2]

        only_first = shared.for_query(1)
        assert only_first.query_ids() == [1]
        # Descendant spans (round, site) follow their root via parent_id
        # even though only the root span carries the attribute.
        assert len(only_first.records_of("span")) == 3
        assert len(only_first.records_of("plan")) == 1

    def test_for_query_keeps_schema_version(self):
        log = traced_query(query_id=1)
        assert log.for_query(1).schema_version == log.schema_version
