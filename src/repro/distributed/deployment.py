"""Process-separated cluster deployment: launching and talking to site servers.

:class:`ProcessCluster` is the deployed counterpart of
:class:`~repro.distributed.cluster.SimulatedCluster`: the same surface for
the evaluator, the query service and its incremental views (``site_ids``,
``catalog``, ``network``, ``fresh_network``, ``data_versions``), but the
partitions live in ``repro site-server`` OS processes reached over
:class:`~repro.net.socket_channel.SocketNetwork` channels, and no site
object exists on the coordinator — it has no ``sites`` and no ``site()``,
because nothing there should ever touch partition data directly in this
mode; :meth:`ProcessCluster.append` raises for the same reason.
``conceptual_tables`` decodes the store for ``repro explain``'s statistics.

``deploy`` writes a ``deployment.json`` next to the partition store so a
later ``repro cluster down`` (or a ``--cluster-dir`` attach) can find
the ports and pids without talking to the launcher process.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Optional, Sequence

import repro
from repro.distributed.siteserver import (
    load_catalog,
    load_site_relation,
    read_cluster_spec,
    read_manifest,
    request_shutdown,
    write_partition_store,
)
from repro.errors import DeploymentError, PlanError, ReproError, WarehouseError
from repro.net.socket_channel import SocketNetwork
from repro.obs.flightrec import FlightRecorder, flight_path
from repro.obs.metrics import MetricsRegistry

DEPLOYMENT_SPEC = "deployment.json"

_READY_TIMEOUT_S = 30.0


def _site_log_path(root: str, site_id: str) -> str:
    return os.path.join(root, "logs", f"{site_id}.log")


def launch_site_server(
    root: str,
    site_id: str,
    host: str = "127.0.0.1",
    python: Optional[str] = None,
) -> tuple:
    """Start one ``repro site-server`` process; returns ``(process, port)``.

    The server picks an ephemeral port (``--port 0``) and announces it
    with a ``READY site=... port=...`` line on stdout, which is
    redirected to ``<root>/logs/<site>.log`` and polled here — log-file
    (not pipe) redirection keeps the child detachable and its later
    output from blocking on a full pipe.
    """
    os.makedirs(os.path.join(root, "logs"), exist_ok=True)
    log_path = _site_log_path(root, site_id)
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        python or sys.executable,
        "-m",
        "repro",
        "site-server",
        "--store",
        root,
        "--site",
        site_id,
        "--host",
        host,
        "--port",
        "0",
    ]
    log_handle = open(log_path, "wb")
    try:
        process = subprocess.Popen(
            command,
            stdout=log_handle,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
    finally:
        log_handle.close()
    port = _await_ready(process, log_path, site_id)
    return process, port


def _await_ready(process, log_path: str, site_id: str) -> int:
    deadline = time.monotonic() + _READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise DeploymentError(
                f"site server {site_id!r} exited with code "
                f"{process.returncode} before READY; see {log_path}:\n"
                + _tail(log_path)
            )
        try:
            with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    if line.startswith("READY ") and f"site={site_id}" in line:
                        for token in line.split():
                            if token.startswith("port="):
                                return int(token[5:])
        except OSError:
            pass
        time.sleep(0.05)
    raise DeploymentError(
        f"site server {site_id!r} did not report READY within "
        f"{_READY_TIMEOUT_S:.0f}s; see {log_path}:\n" + _tail(log_path)
    )


def _tail(log_path: str, lines: int = 20) -> str:
    try:
        with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return "(no log)"


class ProcessCluster:
    """A running deployment: site-server processes plus a socket network."""

    def __init__(
        self,
        root: str,
        host: str,
        ports: dict,
        processes: Optional[dict] = None,
        owns_processes: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        ephemeral: bool = False,
    ):
        self.root = root
        self.host = host
        spec = read_cluster_spec(root)
        self.site_ids = tuple(spec["site_ids"])
        missing = [site_id for site_id in self.site_ids if site_id not in ports]
        if missing:
            raise DeploymentError(f"no port known for site(s) {missing}")
        self._ports = dict(ports)
        self._processes = dict(processes or {})
        self._owns_processes = owns_processes
        self._ephemeral = ephemeral
        self._closed = False
        self.catalog = load_catalog(root)
        self.fault_plan = None
        self.network = SocketNetwork(self._endpoints(), metrics=metrics)
        #: Coordinator-side flight recorder: deployment lifecycle events
        #: plus recent query spans (the evaluator feeds it), dumped by
        #: ``repro cluster dump`` or a SIGTERM handler.
        self.flight = FlightRecorder(process="coordinator")
        self.flight.record_event(
            "attach" if not owns_processes else "deploy",
            root=root,
            sites=list(self.site_ids),
        )

    # -- construction ------------------------------------------------------------

    @classmethod
    def deploy(
        cls,
        root: str,
        host: str = "127.0.0.1",
        metrics: Optional[MetricsRegistry] = None,
        ephemeral: bool = False,
    ) -> "ProcessCluster":
        """Launch one site server per store site and record the spec."""
        spec = read_cluster_spec(root)
        processes: dict = {}
        ports: dict = {}
        try:
            for site_id in spec["site_ids"]:
                process, port = launch_site_server(root, site_id, host)
                processes[site_id] = process
                ports[site_id] = port
        except BaseException:
            for process in processes.values():
                _terminate(process)
            raise
        cluster = cls(
            root,
            host,
            ports,
            processes,
            owns_processes=True,
            metrics=metrics,
            ephemeral=ephemeral,
        )
        cluster._write_spec()
        return cluster

    @classmethod
    def from_simulated(
        cls,
        simulated,
        root: str,
        host: str = "127.0.0.1",
        metrics: Optional[MetricsRegistry] = None,
        ephemeral: bool = False,
    ) -> "ProcessCluster":
        """Persist a loaded simulated cluster's placement, then deploy it."""
        write_partition_store(simulated, root)
        cluster = cls.deploy(root, host, metrics=metrics, ephemeral=ephemeral)
        if simulated.fault_plan is not None:
            cluster.install_faults(simulated.fault_plan)
        return cluster

    @classmethod
    def attach(
        cls, root: str, metrics: Optional[MetricsRegistry] = None
    ) -> "ProcessCluster":
        """Connect to an already-running deployment (``repro cluster up``).

        The attached cluster does not own the site processes: ``close``
        only drops connections, leaving the deployment running for the
        next attach. ``repro cluster down`` stops it.
        """
        spec_path = os.path.join(root, DEPLOYMENT_SPEC)
        try:
            with open(spec_path, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise DeploymentError(
                f"no running deployment at {root!r} ({error}); "
                "start one with: repro cluster up --dir " + root
            ) from None
        ports = {
            site_id: entry["port"] for site_id, entry in spec["sites"].items()
        }
        return cls(
            root,
            spec.get("host", "127.0.0.1"),
            ports,
            owns_processes=False,
            metrics=metrics,
        )

    def _endpoints(self) -> dict:
        return {
            site_id: (self.host, self._ports[site_id])
            for site_id in self.site_ids
        }

    def _write_spec(self) -> None:
        spec = {
            "version": 1,
            "host": self.host,
            "root": self.root,
            "sites": {
                site_id: {
                    "port": self._ports[site_id],
                    "pid": (
                        self._processes[site_id].pid
                        if site_id in self._processes
                        else None
                    ),
                }
                for site_id in self.site_ids
            },
        }
        with open(
            os.path.join(self.root, DEPLOYMENT_SPEC), "w", encoding="utf-8"
        ) as handle:
            json.dump(spec, handle, indent=2)

    # -- SimulatedCluster-compatible surface --------------------------------------

    @property
    def site_count(self) -> int:
        return len(self.site_ids)

    def append(self, table_name: str, deltas) -> dict:
        raise PlanError(f"no request appends to {table_name!r} at a site server")

    def conceptual_table(self, table_name: str):
        """The conceptual relation, decoded from the on-disk partitions."""
        pieces = []
        for site_id in self.site_ids:
            manifest = read_manifest(self.root, site_id)
            entry = manifest.get("tables", {}).get(table_name)
            if entry is not None:
                pieces.append(load_site_relation(self.root, site_id, entry))
        if not pieces:
            raise WarehouseError(f"no site holds table {table_name!r}")
        if self.catalog.is_registered(table_name) and self.catalog.is_replicated(
            table_name
        ):
            return pieces[0]
        return pieces[0].union_all(*pieces[1:])

    def conceptual_tables(self) -> dict:
        names = set()
        for site_id in self.site_ids:
            names.update(read_manifest(self.root, site_id).get("tables", {}))
        return {name: self.conceptual_table(name) for name in sorted(names)}

    def data_versions(self, table_names: Sequence[str]) -> tuple:
        """Versions from the on-disk manifests (the served data is
        immutable while deployed, so the store is authoritative)."""
        manifests = {
            site_id: read_manifest(self.root, site_id).get("tables", {})
            for site_id in self.site_ids
        }
        return tuple(
            (
                table_name,
                site_id,
                manifests[site_id].get(table_name, {}).get("version", 0),
            )
            for table_name in sorted(set(table_names))
            for site_id in self.site_ids
        )

    def fresh_network(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> SocketNetwork:
        return SocketNetwork(
            self._endpoints(), metrics=metrics, faults=self.fault_plan
        )

    def reset_network(
        self, metrics: Optional[MetricsRegistry] = None, faults=None
    ) -> None:
        if faults is not None:
            self.fault_plan = faults
        old, self.network = self.network, self.fresh_network(metrics)
        old.close()

    def install_faults(self, plan) -> None:
        self.fault_plan = plan
        self.reset_network()

    # -- telemetry ---------------------------------------------------------------

    def scrape(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Pull every site process's registry over the TELEMETRY frame.

        Each site's metrics land in the target registry re-labeled with
        ``site=<id>``, plus a ``site.up`` gauge per site (1 answered,
        0 unreachable) — the same shape the Prometheus exposition and
        ``repro top --cluster`` consume. Returns the target registry
        (a fresh one when none is given).
        """
        target = registry if registry is not None else MetricsRegistry()
        for site_id in self.site_ids:
            channel = self.network.channel(site_id)
            try:
                snapshot = channel.telemetry(("metrics",))
            except (ReproError, OSError):
                target.gauge("site.up", site=site_id).set(0.0)
                continue
            target.gauge("site.up", site=site_id).set(1.0)
            target.gauge("site.pid", site=site_id).set(
                float(snapshot.get("pid", 0))
            )
            target.merge_snapshot(snapshot.get("metrics", {}), site=site_id)
        return target

    def liveness(self) -> dict:
        """``site_id -> bool`` by a PING round trip per site."""
        status = {}
        for site_id in self.site_ids:
            channel = self.network.channel(site_id)
            try:
                channel.ping(samples=1)
                status[site_id] = True
            except (ReproError, OSError):
                status[site_id] = False
        return status

    def dead_sites(self) -> list:
        return [
            site_id
            for site_id, alive in sorted(self.liveness().items())
            if not alive
        ]

    def sync_clocks(self, samples: int = 3):
        """Estimate per-site clock offsets (see :mod:`repro.obs.skew`)."""
        return self.network.sync_clocks(samples)

    def dump_flight(self, directory=None) -> list:
        """Write coordinator + per-site flight records; returns the paths.

        A site's record is the file in the store its process brings up to
        date before every reply (and at boot, on a fault, on SIGTERM and on
        exit), so a live site and a killed one are dumped the same way: by
        copying that file, when ``directory`` is not the store itself.
        """
        directory = str(directory or self.root)
        os.makedirs(directory, exist_ok=True)
        self.flight.record_event("dump", root=self.root)
        written = [self.flight.dump(flight_path(directory, "coordinator"))]
        copies = not os.path.samefile(directory, self.root)
        for site_id in self.site_ids:
            source = flight_path(self.root, "site", site_id)
            if os.path.exists(source):
                path = flight_path(directory, "site", site_id)
                if copies:
                    shutil.copyfile(source, path)
                written.append(path)
        return written

    # -- lifecycle ---------------------------------------------------------------

    def kill_site(self, site_id: str) -> None:
        """SIGKILL one site's server process (fault-injection for tests)."""
        process = self._processes.get(site_id)
        if process is None:
            raise DeploymentError(
                f"site {site_id!r} was not launched by this cluster"
            )
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
        self.flight.record_event("kill", site=site_id)

    def restart_site(self, site_id: str) -> None:
        """Relaunch a site from its on-disk partition and re-point channels.

        The rejoin half of the recovery story: the new process serves
        exactly the partition the killed one held, on a fresh port that
        existing networks learn via their lazily-reconnecting channels.
        """
        if site_id not in self.site_ids:
            raise DeploymentError(f"unknown site {site_id!r}")
        old = self._processes.get(site_id)
        if old is not None and old.poll() is None:
            _terminate(old)
        process, port = launch_site_server(self.root, site_id, self.host)
        self._processes[site_id] = process
        self._ports[site_id] = port
        self._write_spec()
        # Channels reconnect lazily after a failure; give live networks
        # the new address so that reconnect finds the rejoined site.
        channel = self.network.channel(site_id)
        channel.close()
        channel.address = (self.host, port)
        self.flight.record_event("restart", site=site_id, port=port)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.network.close()
        if self._owns_processes:
            for site_id in self.site_ids:
                request_shutdown(self.host, self._ports[site_id], timeout_s=2.0)
            for process in self._processes.values():
                _terminate(process)
            try:
                os.remove(os.path.join(self.root, DEPLOYMENT_SPEC))
            except OSError:
                pass
        if self._ephemeral:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self):
        return (
            f"ProcessCluster({self.site_count} sites at {self.host}, "
            f"store {self.root!r})"
        )


def _terminate(process) -> None:
    if process.poll() is not None:
        return
    process.terminate()
    try:
        process.wait(timeout=5)
    except subprocess.TimeoutExpired:
        process.kill()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass


def shutdown_deployment(root: str) -> int:
    """``repro cluster down``: stop every site of a recorded deployment.

    Returns the number of sites that acknowledged shutdown; any that did
    not get a SIGTERM by pid as fallback. The spec file is removed.
    """
    spec_path = os.path.join(root, DEPLOYMENT_SPEC)
    try:
        with open(spec_path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise DeploymentError(
            f"no deployment spec at {spec_path!r}: {error}"
        ) from None
    host = spec.get("host", "127.0.0.1")
    stopped = 0
    for site_id, entry in spec.get("sites", {}).items():
        if request_shutdown(host, entry.get("port", 0), timeout_s=3.0):
            stopped += 1
            continue
        pid = entry.get("pid")
        if pid:
            try:
                os.kill(pid, signal.SIGTERM)
            except (OSError, ProcessLookupError):
                pass
    try:
        os.remove(spec_path)
    except OSError:
        pass
    return stopped
