"""The hook table against the current tree, and the wrappers' manners."""

import importlib

import pytest

from bench_e2e import hooks, tracing


@pytest.mark.parametrize("hook", hooks.HOOKS, ids=lambda hook: f"{hook.module}.{hook.attribute}")
def test_every_hook_target_resolves(hook):
    assert hooks._resolve(hook) is not None
    assert not hook.probe or hook.probe in hooks.PROBES


def test_every_hooked_span_feeds_a_metric_and_every_fed_span_is_hooked():
    fed = {span for _unit, spans in tracing.LAYER_METRICS.values() for span in spans}
    assert {hook.span for hook in hooks.HOOKS} == fed


def test_install_rebinds_aliases_and_uninstall_restores_originals():
    evaluator = importlib.import_module("repro.distributed.evaluator")
    optimizer = importlib.import_module("repro.distributed.optimizer")
    coordinator = importlib.import_module("repro.distributed.coordinator")
    before = (
        optimizer.plan_query,
        evaluator.plan_query,
        coordinator.Coordinator.synchronize,
    )
    installation = hooks.Installation(hooks.Recorder())
    try:
        assert optimizer.plan_query is not before[0]
        # ``from repro.distributed.optimizer import plan_query`` in the evaluator
        assert evaluator.plan_query is optimizer.plan_query
        assert coordinator.Coordinator.synchronize is not before[2]
        assert not installation.missing
    finally:
        installation.uninstall()
    assert (
        optimizer.plan_query,
        evaluator.plan_query,
        coordinator.Coordinator.synchronize,
    ) == before


def test_inactive_recorder_records_nothing_and_active_one_nests_spans():
    sql = importlib.import_module("repro.queries.sql")
    recorder = hooks.Recorder()
    installation = hooks.Installation(recorder)
    try:
        sql.parse_olap_statement("SELECT a, COUNT(*) AS c FROM T GROUP BY a")
        assert recorder.spans == []
        recorder.active = True
        sql.parse_olap_statement("SELECT a, COUNT(*) AS c FROM T GROUP BY a")
    finally:
        installation.uninstall()
    (span,) = recorder.spans
    span_id, parent, name, start, end = span[:5]
    assert (parent, name) == (0, "queries.parse") and end >= start


def test_missing_target_yields_null_and_a_warning_not_an_error():
    ghost = hooks.Hook("repro.queries.sql", "no_such_function", "queries.parse")
    gone_module = hooks.Hook("repro.no_such_module", "f", "optimizer.plan")
    installation = hooks.Installation(hooks.Recorder(), hooks=(ghost, gone_module))
    installation.uninstall()
    assert installation.missing == [ghost, gone_module]
    metrics = {name: 1.0 for name in tracing.UNITS}
    warnings = tracing.null_lost_metrics(metrics, installation)
    assert metrics["queries.parse_ms"] is None and metrics["optimizer.plan_ms"] is None
    assert metrics["store.deploy_s"] == 1.0  # not span-fed: untouched
    assert len(warnings) == 2 and "no_such_function" in warnings[0]


def test_a_probe_that_raises_does_not_break_the_call():
    recorder = hooks.Recorder()
    recorder.active = True
    wrapped = recorder.wrap(lambda value: value + 1, hooks.Hook("m", "f", "x.y", "encode"))
    assert wrapped(1) == 2  # "encode" probe calls len() on an int
    assert recorder.spans[0][6:] == (0, "")
