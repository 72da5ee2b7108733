"""One deployed system under test: start it, run passes, check them, stop it.

A *session* is the system as a user would run it, driven only through its
public API. Two kinds share one small surface (``start``, ``prepare_pass``,
``run_pass``, ``check``, ``finish``, ``wire``, ``site_pids``,
``close``):

- :class:`SocketSession` — SQL text -> ``parse_olap_statement`` ->
  ``execute_query`` over a ``ProcessCluster`` of real site-server
  processes with ``ExecutionConfig(executor="sockets")``;
- :class:`ServiceSession` — ``QueryService.submit``/``append`` over an
  in-process ``SimulatedCluster``.

The layers' entry points are called through their modules
(``sql.parse_olap_statement(...)``), so the traced run's hooks see them.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass

from repro.data.flows import generate_flows, router_partitioner
from repro.distributed import deployment, evaluator
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.optimizer import OptimizationOptions
from repro.queries import sql
from repro.service import service as service_module

from bench_e2e import oracle
from bench_e2e.prepare import INPUTS, STORE, flow_config
from bench_e2e.workloads import OP_TIMEOUT_S, SERVICE_CACHED, SERVICE_FRESH


@dataclass
class Outcome:
    """What one op produced; checked after the timed span."""

    op: str  # the SQL text, or "append"
    relation: object = None
    error: str = ""
    wall_s: float = 0.0
    source: str = ""  # service ops: hit | refresh | fresh
    expect_source: str = ""


def _failed(outcome: Outcome) -> bool:
    return bool(outcome.error) or outcome.wall_s > OP_TIMEOUT_S


class SocketSession:
    def __init__(self, workload, seed: int, directory: str, prepared: dict):
        self.workload = workload
        self.store = os.path.join(directory, STORE)
        self.expected = prepared["expected"]
        self.options = OptimizationOptions.none() if workload.unoptimised else None
        self.cluster = None

    def start(self) -> None:
        self.cluster = deployment.ProcessCluster.deploy(self.store)
        self.config = evaluator.ExecutionConfig(executor="sockets")

    def prepare_pass(self, index: int) -> None:
        """Sockets passes are the same statements every time."""

    def run_pass(self, index: int) -> list:
        outcomes = []
        for text in self.workload.statements:
            outcome = Outcome(op=text)
            started = time.perf_counter()
            try:
                statement = sql.parse_olap_statement(text)
                result = evaluator.execute_query(
                    self.cluster, statement.expression, self.options, config=self.config
                )
                outcome.relation = statement.apply_post(result.relation)
            except Exception as error:  # noqa: BLE001 - an op that raises is a failed op
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.wall_s = time.perf_counter() - started
            outcomes.append(outcome)
        return outcomes

    def check(self, index: int, outcomes: list) -> int:
        failed = 0
        for outcome in outcomes:
            if _failed(outcome) or (
                oracle.checksum(outcome.relation) != self.expected[outcome.op]
            ):
                failed += 1
        return failed

    def finish(self) -> int:
        return 0

    def wire(self) -> tuple:
        """``(bytes, framing bytes, frames)`` on the sockets so far, both
        directions; bytes are payload plus framing."""
        totals = self.cluster.network.socket_totals()
        return (
            totals["payload_down"] + totals["payload_up"] + totals["framing"],
            totals["framing"],
            totals["frames"],
        )

    def site_pids(self) -> dict:
        path = os.path.join(self.store, deployment.DEPLOYMENT_SPEC)
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        return {site_id: entry["pid"] for site_id, entry in spec["sites"].items()}

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None


class ServiceSession:
    def __init__(self, workload, seed: int, directory: str, prepared: dict):
        self.workload = workload
        self.seed = seed
        with open(os.path.join(directory, INPUTS), "rb") as handle:
            # Written a moment ago by this run's own prepare child.
            self.inputs = pickle.load(handle)
        self.small_tables = {"FlowSmall": self.inputs["FlowSmall"]}
        self.service = None
        self._modeled_bytes = 0

    def _cluster(self) -> SimulatedCluster:
        cluster = SimulatedCluster.with_sites(self.workload.sites)
        for table_name, relation in self.inputs.items():
            config = flow_config(self.workload, len(relation), self.seed)
            cluster.load_partitioned(table_name, relation, router_partitioner(config))
        return cluster

    def start(self) -> None:
        self.cluster = self._cluster()
        self.service = service_module.QueryService(self.cluster)
        self._seen: set = set()
        self._applied: list = []
        self._pending: dict = {}
        self._modeled_bytes = 0

    def prepare_pass(self, index: int) -> None:
        """Make the pass's inputs — append deltas and fresh literals — untimed."""
        workload = self.workload
        deltas = []
        for round_index in range(workload.append_rounds):
            config = flow_config(
                workload,
                workload.append_rows,
                self.seed * 1_000_003 + index * 64 + round_index + 2,
            )
            delta = generate_flows(config)
            deltas.append(
                dict(zip(self.cluster.site_ids, router_partitioner(config).split(delta)))
            )
        base = (self.seed * 7919) % 40_000
        fresh = [
            SERVICE_FRESH.format(literal=base + index * workload.fresh_per_pass + k)
            for k in range(workload.fresh_per_pass)
        ]
        self._pending[index] = (deltas, fresh)

    def _submit(self, text: str, expect_source: str) -> Outcome:
        outcome = Outcome(op=text, expect_source=expect_source)
        started = time.perf_counter()
        try:
            result = self.service.submit(text)
            outcome.relation = result.relation
            outcome.source = result.source
            if result.source != service_module.HIT:
                self._modeled_bytes += result.stats.bytes_total
        except Exception as error:  # noqa: BLE001 - an op that raises is a failed op
            outcome.error = f"{type(error).__name__}: {error}"
        outcome.wall_s = time.perf_counter() - started
        return outcome

    def run_pass(self, index: int) -> list:
        deltas, fresh = self._pending.pop(index)
        outcomes = []
        for per_site in deltas:
            outcome = Outcome(op="append")
            started = time.perf_counter()
            try:
                self.service.append("Flow", per_site)
                self._applied.append(per_site)
            except Exception as error:  # noqa: BLE001
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.wall_s = time.perf_counter() - started
            outcomes.append(outcome)
            for text in SERVICE_CACHED:
                first = text not in self._seen
                self._seen.add(text)
                outcomes.append(
                    self._submit(
                        text, service_module.FRESH if first else service_module.REFRESH
                    )
                )
            for text in SERVICE_CACHED:
                outcomes.append(self._submit(text, service_module.HIT))
        for text in fresh:
            outcomes.append(self._submit(text, service_module.FRESH))
        return outcomes

    def check(self, index: int, outcomes: list) -> int:
        """Per-op checks that need no second full evaluation.

        A hit must return what the refresh just before it returned (same
        data version), every op must be served by the expected path, and
        fresh statements over the small static table are checked against
        the centralized oracle. What the refreshes accumulate is checked
        once, by :meth:`finish`.
        """
        failed = 0
        last: dict = {}
        for outcome in outcomes:
            if _failed(outcome) or outcome.source != outcome.expect_source:
                failed += 1
                continue
            if outcome.op == "append":
                continue
            digest = oracle.checksum(outcome.relation)
            if outcome.expect_source == service_module.HIT:
                if digest != last.get(outcome.op):
                    failed += 1
            elif "FlowSmall" in outcome.op:
                if digest != oracle.expected_checksum(outcome.op, self.small_tables):
                    failed += 1
            else:
                last[outcome.op] = digest
        return failed

    def finish(self) -> int:
        """Served answers vs a cold service on an identically grown cluster."""
        reference = self._cluster()
        for per_site in self._applied:
            for site_id, delta in per_site.items():
                reference.site(site_id).warehouse.append("Flow", delta)
        failed = 0
        with service_module.QueryService(reference) as cold:
            for text in SERVICE_CACHED:
                served = oracle.checksum(self.service.submit(text).relation)
                if served != oracle.checksum(cold.submit(text).relation):
                    failed += 1
        return failed

    def wire(self) -> tuple:
        """Modeled ``DirectionStats`` bytes of every evaluation and refresh;
        no socket exists, so no framing bytes and no frames."""
        return (self._modeled_bytes, 0, 0)

    def site_pids(self) -> dict:
        return {}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def open_session(workload, seed: int, directory: str, prepared: dict):
    kind = SocketSession if workload.kind == "sockets" else ServiceSession
    return kind(workload, seed, directory, prepared)
