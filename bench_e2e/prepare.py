"""Short-lived child that makes a run's inputs: data, partition store, oracle.

Runs as ``python -m bench_e2e.prepare`` so the generated rows and the
centrally evaluated answers live and die in this process and never sit
in the heap whose peak the run reports. It leaves in ``--dir``:

- sockets workloads: the on-disk partition store (its write is timed at
  reference speed here, because it is part of ``setup_s``) and the
  expected checksums;
- ``service_mixed``: the two generated relations, pickled for the runner
  (an in-process cluster has to hold its rows in the runner).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import time

from bench_e2e import calibrate, oracle
from bench_e2e.workloads import BY_NAME

PREPARED = "prepared.json"
INPUTS = "inputs.pickle"
STORE = "store"


def flow_config(workload, rows: int, seed: int):
    from repro.data.flows import FlowConfig

    return FlowConfig(flow_count=rows, router_count=workload.sites, seed=seed)


def _prepare_sockets(workload, seed: int, directory: str) -> dict:
    from repro.data.tpcr import (
        TPCRConfig,
        generate_tpcr,
        nation_partitioner,
        register_tpcr_fds,
    )
    from repro.distributed.cluster import SimulatedCluster
    from repro.distributed.siteserver import write_partition_store

    started = time.perf_counter()
    config = TPCRConfig(scale=workload.rows / 6_000_000, seed=seed)
    tpcr = generate_tpcr(config)
    simulated = SimulatedCluster.with_sites(workload.sites)
    simulated.load_partitioned("TPCR", tpcr, nation_partitioner(workload.sites))
    register_tpcr_fds(simulated.catalog)
    datagen_s = time.perf_counter() - started

    before = calibrate.sample_ms()
    started = time.perf_counter()
    write_partition_store(simulated, os.path.join(directory, STORE))
    write_raw_s = time.perf_counter() - started
    write_s = write_raw_s * calibrate.scale(before, calibrate.sample_ms())

    started = time.perf_counter()
    tables = {"TPCR": tpcr}
    expected = {
        sql: oracle.expected_checksum(sql, tables)
        for sql in dict.fromkeys(workload.statements)
    }
    verify_s = time.perf_counter() - started
    return {
        "datagen_s": datagen_s,
        "verify_s": verify_s,
        "write_s": write_s,
        "write_raw_s": write_raw_s,
        "detail_rows": len(tpcr),
        "expected": expected,
    }


def _prepare_service(workload, seed: int, directory: str) -> dict:
    from repro.data.flows import generate_flows

    started = time.perf_counter()
    flows = generate_flows(flow_config(workload, workload.rows, seed))
    small = generate_flows(flow_config(workload, workload.small_rows, seed + 1))
    with open(os.path.join(directory, INPUTS), "wb") as handle:
        pickle.dump({"Flow": flows, "FlowSmall": small}, handle)
    return {
        "datagen_s": time.perf_counter() - started,
        "verify_s": 0.0,
        "write_s": 0.0,
        "write_raw_s": 0.0,
        "detail_rows": len(flows) + len(small),
        "expected": {},
    }


def prepare(workload, seed: int, directory: str) -> dict:
    build = _prepare_sockets if workload.kind == "sockets" else _prepare_service
    prepared = build(workload, seed, directory)
    with open(os.path.join(directory, PREPARED), "w", encoding="utf-8") as handle:
        json.dump(prepared, handle)
    return prepared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.prepare")
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    workload = BY_NAME[args.workload]
    if args.quick:
        workload = workload.quick()
    prepare(workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
