"""Hook table and span recorder: the layers, measured from outside.

The traced run wraps the layers' public functions from here — the program
itself is not edited and ``repro.obs`` is not used (it is slated for
consolidation and the benchmark must outlive that). ``HOOKS`` is data:
``(module, attribute, span name, size probe)``. The span name's prefix
(``serialize`` in ``serialize.encode``) is the layer. A hook whose target
no longer exists is reported in ``missing`` and skipped; it never fails
the run.

Spans are ``(id, parent, name, start, end, thread, size, tag)`` tuples on
``CLOCK_MONOTONIC`` (one clock for every process of a host), kept in
memory and written as JSONL when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import NamedTuple


class Hook(NamedTuple):
    module: str
    attribute: str  # "function" or "Class.method"
    span: str
    probe: str = ""  # key of PROBES: what size/tag the wrapper records


def _rows_of(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


#: ``probe(args, kwargs, result) -> (size, tag)``. Sizes are rows or bytes
#: handled by the call; the tag names the peer (a site id) or an outcome,
#: or is a second size (the codec probes record bytes and rows).
PROBES = {
    # encode_relation(relation, codec) -> bytes
    "encode": lambda args, kwargs, result: (len(result), _rows_of(args[0])),
    # decode_relation(data) -> relation
    "decode": lambda args, kwargs, result: (len(args[0]), _rows_of(result)),
    # SyncSession.absorb(self, h, source) / evaluate_sub(base, detail, blocks)
    "rows_arg1": lambda args, kwargs, result: (_rows_of(args[1]), ""),
    # Coordinator.synchronize(self, sub_results, blocks): rows over fragments
    "rows_each_arg1": lambda args, kwargs, result: (
        sum(_rows_of(part) for part in args[1]),
        "",
    ),
    # SocketChannel.send_to_site / ask: which site the leg talks to
    "site": lambda args, kwargs, result: (0, getattr(args[0], "site_id", "")),
    # QueryService.submit -> QueryResult.source (hit | refresh | fresh)
    "source": lambda args, kwargs, result: (0, getattr(result, "source", "")),
}

HOOKS = (
    Hook("repro.queries.sql", "parse_olap_statement", "queries.parse"),
    Hook("repro.distributed.optimizer", "plan_query", "optimizer.plan"),
    Hook("repro.distributed.coordinator", "Coordinator.fragment_for_site", "coordinator.fragment"),
    Hook("repro.distributed.coordinator", "Coordinator.sync_base", "coordinator.sync", "rows_each_arg1"),
    Hook("repro.distributed.coordinator", "Coordinator.synchronize", "coordinator.sync", "rows_each_arg1"),
    Hook("repro.distributed.coordinator", "Coordinator.begin_sync", "coordinator.sync"),
    Hook("repro.distributed.coordinator", "Coordinator.commit_sync", "coordinator.sync"),
    Hook("repro.gmdj.operator", "SyncSession.absorb", "coordinator.sync", "rows_arg1"),
    Hook("repro.gmdj.operator", "SyncSession.finish", "coordinator.sync"),
    Hook("repro.net.serialize", "encode_relation", "serialize.encode", "encode"),
    Hook("repro.net.serialize", "decode_relation", "serialize.decode", "decode"),
    Hook("repro.net.socket_channel", "SocketChannel.send_to_site", "socket.send", "site"),
    Hook("repro.net.socket_channel", "SocketChannel.ask", "socket.ask", "site"),
    Hook("repro.net.socket_channel", "write_frame", "socket.write_frame"),
    Hook("repro.distributed.executor", "SocketEngine.run_legs", "executor.legs"),
    Hook("repro.distributed.executor", "SerialEngine.run_legs", "executor.legs"),
    Hook("repro.distributed.executor", "SocketEngine.evaluate", "executor.evaluate"),
    Hook("repro.distributed.executor", "perform_isolated_request", "siteserver.request"),
    Hook("repro.distributed.executor", "perform_site_request", "siteserver.request"),
    Hook("repro.obs.flightrec", "FlightRecorder.dump", "siteserver.flight_dump"),
    Hook("repro.distributed.site", "SkallaSite.compute_base", "gmdj.kernel"),
    Hook("repro.distributed.site", "SkallaSite.evaluate_round", "gmdj.kernel"),
    Hook("repro.distributed.site", "SkallaSite.evaluate_merged_round", "gmdj.kernel"),
    Hook("repro.gmdj.operator", "evaluate_sub", "gmdj.kernel", "rows_arg1"),
    Hook("repro.gmdj.operator", "evaluate_both", "gmdj.kernel", "rows_arg1"),
    Hook("repro.relalg.compiler", "compile_scalar", "relalg.compile"),
    Hook("repro.relalg.compiler", "compile_predicate", "relalg.compile"),
    Hook("repro.relalg.compiler", "compile_values", "relalg.compile"),
    Hook("repro.relalg.compiler", "compile_mask", "relalg.compile"),
    Hook("repro.relalg.compiler", "compile_batch_scalar", "relalg.compile"),
    Hook("repro.relalg.compiler", "compile_grouped_accumulate", "relalg.compile"),
    Hook("repro.service.service", "QueryService.submit", "service.submit", "source"),
    Hook("repro.service.service", "QueryService.append", "service.append"),
)

#: Spans that fan work out to other threads: a span started on a thread
#: with no open span of its own takes the open fan-out span as parent.
FANOUT = frozenset({"executor.legs"})

_clock = time.monotonic


class Recorder:
    """Collects spans of one process; off until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout = 0  # id of the open fan-out span, 0 if none

    def wrap(self, original, hook: Hook):
        name = hook.span
        probe = PROBES.get(hook.probe)
        fans_out = name in FANOUT
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            local = recorder._local
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else recorder._fanout
            span_id = next(recorder._ids)
            stack.append(span_id)
            if fans_out:
                outer, recorder._fanout = recorder._fanout, span_id
            size, tag, returned = 0, "", False
            start = _clock()
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                end = _clock()
                stack.pop()
                if fans_out:
                    recorder._fanout = outer
                if returned and probe is not None:
                    try:
                        size, tag = probe(args, kwargs, result)
                    except Exception:  # noqa: BLE001 - a probe must never break the program
                        pass
                recorder.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident(), size, tag)
                )

        traced.__bench_e2e_original__ = original
        return traced

    def dump(self, path: str, process: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps((process,) + span) + "\n")


def _resolve(hook: Hook):
    """``(owner, name, original)`` of a hook's target, or ``None`` if gone."""
    try:
        owner = importlib.import_module(hook.module)
        *path, name = hook.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except (ImportError, AttributeError):
        return None


class Installation:
    """The hooks currently installed; ``uninstall`` restores every original."""

    def __init__(self, recorder: Recorder, hooks=HOOKS):
        self.recorder = recorder
        self.installed: list = []
        self.missing: list = []
        self._restore: list = []  # (owner, name, original)
        for hook in hooks:
            target = _resolve(hook)
            if target is None:
                self.missing.append(hook)
                continue
            self.installed.append(hook)
            owner, name, original = target
            wrapper = recorder.wrap(original, hook)
            self._set(owner, name, wrapper, original)
            if not isinstance(owner, type):
                # ``from module import function`` made aliases elsewhere
                # in the program; rebind those that are loaded.
                for module_name, module in list(sys.modules.items()):
                    if module is owner or not module_name.startswith("repro"):
                        continue
                    if getattr(module, name, None) is original:
                        self._set(module, name, wrapper, original)

    def _set(self, owner, name, wrapper, original) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def load_spans(paths) -> list:
    """Merge per-process JSONL dumps into one list of span tuples."""
    spans = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            spans.extend(tuple(json.loads(line)) for line in handle if line.strip())
    return spans
