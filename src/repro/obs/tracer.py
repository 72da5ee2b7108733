"""Zero-dependency span tracer for Alg. GMDJDistribEval.

The evaluator, coordinator, cluster and channels are instrumented with
*spans*: named intervals on the process-local monotonic clock, nested by
a parent pointer, carrying free-form attributes (site id, round index,
byte counts...). The span taxonomy mirrors the algorithm::

    query
    └── round                 one per entry in ExecutionStats.rounds
        ├── round.encode      building wire messages (coordinator or site)
        ├── round.evaluate    a site's local GMDJ evaluation
        ├── round.decode      decoding an incoming relation payload
        └── round.merge       the coordinator's Theorem-1 merge

Tracing is opt-in. The default :data:`NULL_TRACER` satisfies the same
interface with a shared, stateless context manager, so the hot path pays
one attribute lookup and one no-op call when tracing is off — nothing is
allocated and no clock is read.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    """One named interval, nested via ``parent_id``.

    ``start_s``/``end_s`` are monotonic (``time.perf_counter``) seconds;
    they order and measure spans within one trace but carry no epoch.
    ``end_s`` is ``None`` while the span is open.
    """

    name: str
    kind: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: Optional[float] = None
    attributes: dict = field(default_factory=dict)
    #: Which process recorded this span: ``None`` means the local
    #: (coordinator) tracer; replayed site spans carry ``"site"``.
    process: Optional[str] = None
    #: Site id for spans replayed from a site process.
    site_id: Optional[str] = None
    #: Clock correction (site minus coordinator seconds, see
    #: ``repro.obs.skew``) already *applied* to this span's timestamps.
    clock_offset_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        """Elapsed seconds; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attributes) -> "Span":
        """Attach or overwrite attributes (chainable)."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "kind": self.kind,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attributes": dict(self.attributes),
        }
        # Provenance fields are omitted when unset: an in-process span
        # has none, and REPLY ships span dicts every traced round.
        if self.process is not None:
            payload["process"] = self.process
        if self.site_id is not None:
            payload["site_id"] = self.site_id
        if self.clock_offset_s is not None:
            payload["clock_offset_s"] = self.clock_offset_s
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            span_id=payload["span_id"],
            parent_id=payload["parent_id"],
            start_s=payload["start_s"],
            end_s=payload["end_s"],
            attributes=dict(payload.get("attributes", {})),
            process=payload.get("process"),
            site_id=payload.get("site_id"),
            clock_offset_s=payload.get("clock_offset_s"),
        )


class _SpanHandle:
    """Context manager opening one span on enter, closing it on exit."""

    __slots__ = ("_tracer", "_name", "_kind", "_attributes", "span")

    def __init__(self, tracer: "Tracer", name: str, kind: str, attributes: dict):
        self._tracer = tracer
        self._name = name
        self._kind = kind
        self._attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer._open(self._name, self._kind, self._attributes)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self.span, error=exc is not None)
        return False


class Tracer:
    """Records spans; safe under concurrent writers.

    Spans appear in :attr:`spans` in *opening* order (ties broken by
    which thread wins the id lock); nesting is encoded by ``parent_id``.
    Each thread keeps its own open-span stack, so spans opened by
    parallel site workers nest correctly without cross-thread
    interference. A worker thread starts with an empty stack and no
    parent — use :meth:`attach` to parent its spans under a span opened
    elsewhere (the evaluator attaches each site leg to its round span).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list = []

    def span(self, name: str, kind: str = "span", **attributes) -> _SpanHandle:
        """Open a span as a context manager: ``with tracer.span("round"):``."""
        return _SpanHandle(self, name, kind, attributes)

    @contextmanager
    def attach(self, span: Optional[Span]):
        """Parent this thread's top-level spans under ``span``.

        Used when fanning work out to a pool: the worker thread has no
        open spans of its own, so without attachment its spans would
        become parentless roots.
        """
        previous = getattr(self._local, "base_parent_id", None)
        previous_span = getattr(self._local, "base_parent_span", None)
        self._local.base_parent_id = None if span is None else span.span_id
        self._local.base_parent_span = span
        try:
            yield
        finally:
            self._local.base_parent_id = previous
            self._local.base_parent_span = previous_span

    def _thread_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, kind: str, attributes: dict) -> Span:
        stack = self._thread_stack()
        if stack:
            parent_id = stack[-1].span_id
        else:
            parent_id = getattr(self._local, "base_parent_id", None)
        start_s = self._clock()
        with self._lock:
            span = Span(
                name=name,
                kind=kind,
                span_id=self._next_id,
                parent_id=parent_id,
                start_s=start_s,
                attributes=dict(attributes),
            )
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span, error: bool = False) -> None:
        popped = self._thread_stack().pop()
        if popped is not span:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span {span.name!r} closed out of order (open: {popped.name!r})"
            )
        if error:
            span.attributes.setdefault("error", True)
        span.end_s = self._clock()

    def replay(
        self,
        span_dicts,
        clock_offset_s: float = 0.0,
        site_id: Optional[str] = None,
        process: Optional[str] = None,
    ) -> None:
        """Re-record spans captured elsewhere (a site-server process).

        Each replayed span gets a fresh id here; parent links *within*
        the batch are preserved, and batch roots are parented under this
        thread's attached span (see :meth:`attach`).

        Timestamps are shifted into this tracer's clock domain by
        ``clock_offset_s`` (remote minus local, the convention of
        :mod:`repro.obs.skew` — 0 keeps them verbatim) and
        clamped into the enclosing span's bounds, so the merged timeline
        keeps ``end >= start`` and child-within-parent even when the
        residual skew after estimation exceeds a real gap. ``site_id``
        and ``process`` stamp provenance onto the replayed spans for the
        v3 trace schema.
        """
        from repro.obs.skew import align_span

        stack = self._thread_stack()
        if stack:
            base_parent_id = stack[-1].span_id
            base_parent = stack[-1]
        else:
            base_parent_id = getattr(self._local, "base_parent_id", None)
            base_parent = getattr(self._local, "base_parent_span", None)
        now = self._clock()
        if base_parent is not None:
            base_bounds = (
                base_parent.start_s,
                base_parent.end_s if base_parent.end_s is not None else now,
            )
        else:
            base_bounds = (None, now)
        id_map: dict = {}
        bounds: dict = {}
        with self._lock:
            for payload in span_dicts:
                span = Span.from_dict(payload)
                remote_id = span.span_id
                # Clamp into the replayed parent's *corrected* bounds
                # when the parent is in this batch, else the local
                # enclosing span's bounds.
                parent_bounds = bounds.get(span.parent_id, base_bounds)
                id_map[remote_id] = self._next_id
                span.span_id = self._next_id
                span.parent_id = id_map.get(span.parent_id, base_parent_id)
                if span.end_s is not None:
                    span.start_s, span.end_s = align_span(
                        span.start_s,
                        span.end_s,
                        clock_offset_s,
                        parent_start_s=parent_bounds[0],
                        parent_end_s=parent_bounds[1],
                    )
                    bounds[remote_id] = (span.start_s, span.end_s)
                else:
                    span.start_s = span.start_s - clock_offset_s
                if process is not None and span.process is None:
                    span.process = process
                if site_id is not None and span.site_id is None:
                    span.site_id = site_id
                if process == "site" and span.clock_offset_s is None:
                    span.clock_offset_s = clock_offset_s
                self._next_id += 1
                self.spans.append(span)

    # -- queries -----------------------------------------------------------------

    def finished(self) -> list:
        """Spans whose interval is closed."""
        return [span for span in self.spans if span.end_s is not None]

    def spans_named(self, name: str) -> list:
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> list:
        return [child for child in self.spans if child.parent_id == span.span_id]

    def total_s(self, name: str) -> float:
        """Summed duration of all finished spans with ``name``."""
        return sum(span.duration_s for span in self.spans_named(name))


class _NullSpan:
    """Shared no-op span: enter/exit/set all do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: records nothing, allocates nothing."""

    enabled = False
    spans: tuple = ()

    __slots__ = ()

    def span(self, name: str, kind: str = "span", **attributes) -> _NullSpan:
        return _NULL_SPAN

    def attach(self, span) -> _NullSpan:
        """No-op attachment (the null span is also a null context)."""
        return _NULL_SPAN

    def replay(self, span_dicts, **_kwargs) -> None:
        """Discard replayed spans (nothing is recorded)."""


#: Process-wide shared no-op tracer (safe: it holds no state).
NULL_TRACER = NullTracer()
