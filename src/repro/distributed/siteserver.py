"""The ``repro site-server`` process: one Skalla site behind TCP.

A site server owns one on-disk partition store directory, loads its
site's tables into a :class:`~repro.warehouse.storage.LocalWarehouse` at
startup, and then serves the frame protocol of
:mod:`repro.net.socket_channel` forever: each REQ carries one request and
its fragment, is answered by one REPLY (or ERROR) carrying the answer, and
leaves nothing behind for the next.

Because the partition lives on disk, a killed site process can be
restarted and *rejoin* the cluster serving exactly the data it held
before — the restart/rejoin half of the deployment mode's recovery
story (the retry half is the coordinator's ``guard_leg``, which treats a
dead connection like a crashed leg).

Store layout under ``root``::

    cluster.json                 {"version": 1, "site_ids": [...]}
    catalog.pickle               the pickled DistributionCatalog
    sites/<site_id>/manifest.json
    sites/<site_id>/<nnn>.skrl   partition relations, column codec (format v3)
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import sys
import threading
import time
from typing import Optional, Tuple

from repro.distributed.executor import SiteRequest, perform_isolated_request
from repro.distributed.site import SkallaSite
from repro.errors import (
    DeploymentError,
    NetworkError,
    ProtocolError,
    ReproError,
    StateMismatch,
)
from repro.net import bodies, serialize
from repro.net.message import BASE_RESULT, SHIP_BASE, SUB_RESULT
from repro.net.socket_channel import (
    DOWN_KINDS,
    FLAG_DROPPED,
    FRAME_BYE,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_PING,
    FRAME_REPLY,
    FRAME_REQ,
    FRAME_SHUTDOWN,
    FRAME_TELEMETRY,
    FRAME_WELCOME,
    decode_wire_message,
    encode_wire_message,
    read_frame,
    write_frame,
)
from repro.obs.flightrec import DEFAULT_CAPACITY, FlightRecorder, flight_path
from repro.obs.metrics import BYTES_BUCKETS, SECONDS_BUCKETS, MetricsRegistry
from repro.warehouse.storage import LocalWarehouse

CLUSTER_SPEC = "cluster.json"
CATALOG_PICKLE = "catalog.pickle"
MANIFEST = "manifest.json"

#: Environment knob injecting an artificial clock offset (seconds) into
#: everything the site reports on its own clock — PING samples and
#: shipped span timestamps — for skew-correction tests and demos.
CLOCK_OFFSET_ENV = "REPRO_SITE_CLOCK_OFFSET_S"


def _rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return int(usage.ru_maxrss) * scale


# -- partition store ---------------------------------------------------------------


def write_partition_store(cluster, root: str) -> None:
    """Persist a simulated cluster's placement so site servers can serve it.

    Every site partition is written with the column codec (format v3,
    the blocks the wire ships, one relation per file), so a site server
    loads its large numeric columns straight into the typed arrays its
    scan reads and builds no rows. Beside them go a manifest carrying row
    counts and data versions, the pickled distribution catalog, and the
    cluster spec listing the member sites.
    """
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, CLUSTER_SPEC), "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "site_ids": list(cluster.site_ids)}, handle)
    with open(os.path.join(root, CATALOG_PICKLE), "wb") as handle:
        pickle.dump(cluster.catalog, handle)
    for site_id in cluster.site_ids:
        warehouse = cluster.sites[site_id].warehouse
        site_dir = os.path.join(root, "sites", site_id)
        os.makedirs(site_dir, exist_ok=True)
        tables = {}
        for index, table_name in enumerate(warehouse.table_names()):
            relation = warehouse.table(table_name)
            file_name = f"{index:03d}.skrl"
            with open(os.path.join(site_dir, file_name), "wb") as handle:
                handle.write(serialize.encode_relation(relation))
            tables[table_name] = {
                "rows": len(relation),
                "version": warehouse.version(table_name),
                "file": file_name,
            }
        with open(os.path.join(site_dir, MANIFEST), "w", encoding="utf-8") as handle:
            json.dump({"site_id": site_id, "tables": tables}, handle)


def read_cluster_spec(root: str) -> dict:
    path = os.path.join(root, CLUSTER_SPEC)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise DeploymentError(f"cannot read cluster spec {path!r}: {error}") from None
    if not isinstance(spec.get("site_ids"), list) or not spec["site_ids"]:
        raise DeploymentError(f"cluster spec {path!r} lists no sites")
    return spec


def read_manifest(root: str, site_id: str) -> dict:
    path = os.path.join(root, "sites", site_id, MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise DeploymentError(
            f"cannot read site manifest {path!r}: {error}"
        ) from None


def load_catalog(root: str):
    path = os.path.join(root, CATALOG_PICKLE)
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except (OSError, pickle.PickleError) as error:
        raise DeploymentError(f"cannot load catalog {path!r}: {error}") from None


def load_site_relation(root: str, site_id: str, entry: dict):
    path = os.path.join(root, "sites", site_id, entry["file"])
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError as error:
        raise DeploymentError(f"cannot read partition {path!r}: {error}") from None
    return serialize.decode_relation(payload)


def load_site(root: str, site_id: str) -> SkallaSite:
    """Rebuild one site from its on-disk partition, adopting each decoded
    table's columns as they are."""
    manifest = read_manifest(root, site_id)
    warehouse = LocalWarehouse(site_id)
    for table_name, entry in manifest.get("tables", {}).items():
        relation = load_site_relation(root, site_id, entry)
        if len(relation) != entry.get("rows", len(relation)):
            raise DeploymentError(
                f"partition {table_name!r} at site {site_id!r} decoded "
                f"{len(relation)} rows, manifest says {entry.get('rows')}"
            )
        warehouse.register(table_name, relation)
    return SkallaSite(site_id, warehouse)


# -- the server --------------------------------------------------------------------


def _json_object(body: bytes) -> dict:
    """A HELLO/TELEMETRY body, which must be a JSON object."""
    try:
        value = json.loads(body.decode("utf-8"))
    except ValueError as error:
        raise NetworkError(f"control frame body is not JSON: {error}") from None
    if not isinstance(value, dict):
        raise NetworkError(f"control frame body is not a JSON object: {value!r}")
    return value


def _request(body: bytes, site_id: str) -> Optional[SiteRequest]:
    """The request a REQ body carries to site ``site_id``, or None when its
    message was lost in (simulated) flight: the coordinator fails the turn
    without waiting for an answer.

    A body that is not one down message and a request, or whose message
    does not fit its request — a ``round`` ships its fragment as a
    ``SHIP_BASE`` payload, any other request ships none — raises: the
    connection is out of step and closes.
    """
    kind, _round, flags, payload, control = decode_wire_message(body)
    if flags & FLAG_DROPPED:
        return None
    if kind not in DOWN_KINDS:
        raise ProtocolError(f"a REQ carries a down message, not a {kind} one")
    request = SiteRequest.from_control(control, payload or None, site_id)
    if request.kind == "round":
        if kind != SHIP_BASE or not payload:
            raise ProtocolError("a round ships its fragment as one SHIP_BASE payload")
    elif payload:
        raise ProtocolError(
            f"a {request.kind} request ships no payload, got {len(payload)} bytes"
        )
    return request


class SiteServer:
    """Serves one site's frame protocol on a listening TCP socket.

    One thread per accepted connection, which keeps nothing between two
    frames: a REQ holds the whole request, fragment included.
    """

    def __init__(
        self,
        site: SkallaSite,
        host: str = "127.0.0.1",
        port: int = 0,
        clock_offset_s: float = 0.0,
        flight_dir: Optional[str] = None,
        flight_capacity: int = DEFAULT_CAPACITY,
    ):
        self.site = site
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.5)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        #: Artificial skew added to every externally visible timestamp
        #: (PING samples, shipped spans) — the site's "wrong clock".
        self.clock_offset_s = float(clock_offset_s)
        self._started = time.perf_counter()
        # Long-lived site-side telemetry, separate from the per-request
        # registry perform_isolated_request ships back on replies.
        self.registry = MetricsRegistry()
        self.registry.counter("site.requests")
        self.registry.counter("site.errors")
        self.registry.gauge("site.connections")
        self.flight = FlightRecorder(
            capacity=flight_capacity,
            process="site",
            site_id=site.site_id,
            clock=self._clock,
        )
        self._flight_path = (
            flight_path(flight_dir, "site", site.site_id)
            if flight_dir is not None
            else None
        )
        self.flight.record_event(
            "boot", site=site.site_id, pid=os.getpid(), port=self.port
        )
        self._dump_flight()

    def _clock(self) -> float:
        """The site's externally visible clock: monotonic plus skew."""
        return time.perf_counter() + self.clock_offset_s

    def _dump_flight(self) -> None:
        if self._flight_path is not None:
            try:
                self.flight.dump(self._flight_path)
            except OSError:
                pass

    def telemetry_snapshot(self, want=("metrics",)) -> dict:
        """The TELEMETRY-frame body: health plus the requested sections."""
        self.registry.gauge("site.rss.bytes").set(float(_rss_bytes()))
        self.registry.gauge("site.uptime.seconds").set(
            time.perf_counter() - self._started
        )
        snapshot = {
            "site_id": self.site.site_id,
            "pid": os.getpid(),
        }
        if "metrics" in want:
            snapshot["metrics"] = self.registry.snapshot()
        return snapshot

    def serve_forever(self) -> None:
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    daemon=True,
                    name=f"site-conn-{self.site.site_id}",
                ).start()
        finally:
            try:
                self._listener.close()
            except OSError:
                pass

    def shutdown(self) -> None:
        self._stop.set()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self.registry.gauge("site.connections").add(1)
        greeted = False
        try:
            while True:
                frame_type, body = read_frame(conn)
                if frame_type == FRAME_PING:
                    # NTP-style exchange: t1 = receive, t2 = send, both
                    # on this site's (possibly skewed) clock.
                    t1 = self._clock()
                    pong = json.dumps(
                        {
                            "site_id": self.site.site_id,
                            "t1": t1,
                            "t2": self._clock(),
                        }
                    ).encode("utf-8")
                    write_frame(conn, FRAME_PING, pong)
                elif frame_type == FRAME_TELEMETRY:
                    want = _json_object(body).get("want", ["metrics"])
                    if not isinstance(want, list):
                        raise NetworkError(f"TELEMETRY wants a list, got {want!r}")
                    write_frame(
                        conn,
                        FRAME_TELEMETRY,
                        json.dumps(
                            self.telemetry_snapshot(want), sort_keys=True
                        ).encode("utf-8"),
                    )
                elif frame_type == FRAME_HELLO:
                    hello = _json_object(body)
                    if hello.get("protocol") != bodies.PROTOCOL_VERSION:
                        raise ProtocolError(
                            f"this server speaks protocol {bodies.PROTOCOL_VERSION}, "
                            f"not {hello.get('protocol')!r}"
                        )
                    wanted = hello.get("site_id")
                    if wanted not in (None, self.site.site_id):
                        raise NetworkError(
                            f"this server is site {self.site.site_id!r}, "
                            f"not {wanted!r}"
                        )
                    welcome = json.dumps(
                        {
                            "site_id": self.site.site_id,
                            "tables": list(self.site.warehouse.table_names()),
                            "protocol": bodies.PROTOCOL_VERSION,
                        }
                    ).encode("utf-8")
                    write_frame(conn, FRAME_WELCOME, welcome)
                    greeted = True
                elif frame_type == FRAME_REQ:
                    if not greeted:
                        raise ProtocolError("a REQ before the connection's HELLO")
                    request = _request(body, self.site.site_id)
                    if request is not None:
                        self._handle_request(conn, request)
                elif frame_type == FRAME_SHUTDOWN:
                    try:
                        write_frame(conn, FRAME_BYE)
                    except OSError:
                        pass
                    self.flight.record_event("shutdown", graceful=True)
                    self._dump_flight()
                    self.shutdown()
                    return
                else:
                    raise NetworkError(f"unexpected frame type {frame_type}")
        except OSError:
            pass  # the client went away; its reconnect starts clean
        except (NetworkError, ProtocolError) as error:
            # A frame this server cannot parse (or is not meant for it), a
            # REQ it cannot take, or an answer too long to frame: say so
            # where the socket still allows and close *this* connection —
            # the stream is out of step, the server is not.
            self.registry.counter("site.errors").inc()
            self._send_error(conn, error)
        finally:
            self.registry.gauge("site.connections").add(-1)
            try:
                conn.close()
            except OSError:
                pass

    def _handle_request(self, conn, request: SiteRequest) -> None:
        started = time.perf_counter()
        try:
            reply = perform_isolated_request(self.site, request)
        except StateMismatch as error:
            # No fault: the coordinator resends the fragment keyed.
            self.registry.counter("site.round_state_misses").inc()
            self._send_error(conn, error)
            return
        except Exception as error:  # noqa: BLE001 - shipped to the coordinator
            self.registry.counter("site.errors").inc()
            self.flight.record_fault(
                error=type(error).__name__,
                message=str(error),
                kind=request.kind,
                round=request.round_number,
            )
            self._dump_flight()
            self._send_error(conn, error)
            return
        elapsed = time.perf_counter() - started
        bytes_down = len(request.fragment or b"")
        bytes_up = len(reply.payload)
        self.registry.counter("site.requests").inc()
        self.registry.counter("site.requests.by_kind", kind=request.kind).inc()
        self.registry.counter("site.rows").inc(reply.rows)
        self.registry.counter("site.bytes", direction="down").inc(bytes_down)
        self.registry.counter("site.bytes", direction="up").inc(bytes_up)
        self.registry.histogram(
            "site.request.seconds", SECONDS_BUCKETS
        ).observe(elapsed)
        self.registry.histogram(
            "site.request.bytes", BYTES_BUCKETS
        ).observe(float(bytes_up))
        spans = tuple(
            self._skewed_span(dict(span)) for span in reply.spans
        )
        self.flight.record_event(
            "request",
            kind=request.kind,
            round=request.round_number,
            rows=reply.rows,
            bytes_down=bytes_down,
            bytes_up=bytes_up,
            elapsed_s=elapsed,
            # The trace schema has no null query_id: unnumbered, no key.
            **({} if request.query_id is None else {"query_id": request.query_id}),
        )
        for span in spans:
            self.flight.record("span", **span)
        # Persist after every request: SIGKILL runs no handlers, so the
        # on-disk ring is the only telemetry a killed site leaves.
        self._dump_flight()
        up_kind = BASE_RESULT if request.kind == "base" else SUB_RESULT
        write_frame(
            conn,
            FRAME_REPLY,
            encode_wire_message(up_kind, request.round_number, reply.payload)
            + bodies.encode_meta(reply.rows, reply.compute_s, reply.counters, spans),
        )

    def _skewed_span(self, span: dict) -> dict:
        """Shift a shipped span's timestamps onto the site's skewed clock.

        ``perform_isolated_request`` stamps spans with the raw monotonic
        clock; re-basing them here keeps every externally visible site
        timestamp — PING samples and spans alike — in one (possibly
        artificially offset) clock domain, which is exactly what the
        coordinator's skew correction assumes.
        """
        if self.clock_offset_s:
            span["start_s"] = span["start_s"] + self.clock_offset_s
            if span.get("end_s") is not None:
                span["end_s"] = span["end_s"] + self.clock_offset_s
        return span

    def _send_error(self, conn, error: Exception) -> None:
        name = type(error).__name__
        if not isinstance(error, ReproError):
            name = "RemoteSiteError"
        try:
            write_frame(conn, FRAME_ERROR, bodies.encode_error(name, str(error)))
        except OSError:
            pass


def request_shutdown(
    host: str, port: int, timeout_s: float = 5.0
) -> bool:
    """Ask a site server to stop; True if it acknowledged with BYE."""
    try:
        with socket.create_connection((host, port), timeout=timeout_s) as sock:
            sock.settimeout(timeout_s)
            write_frame(sock, FRAME_SHUTDOWN)
            frame_type, _body = read_frame(sock)
            return frame_type == FRAME_BYE
    except OSError:
        return False


def run_site_server(
    store: str,
    site_id: str,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_stream=None,
) -> None:
    """CLI body of ``repro site-server``: load the partition and serve.

    Prints ``READY site=<id> port=<port>`` once listening — the
    deployment layer launches with ``--port 0`` and parses this line to
    learn the ephemeral port.
    """
    spec = read_cluster_spec(store)
    if site_id not in spec["site_ids"]:
        raise DeploymentError(
            f"site {site_id!r} is not in cluster {spec['site_ids']}"
        )
    site = load_site(store, site_id)
    try:
        clock_offset_s = float(os.environ.get(CLOCK_OFFSET_ENV, "0") or 0)
    except ValueError:
        raise DeploymentError(
            f"{CLOCK_OFFSET_ENV} must be a number, got "
            f"{os.environ.get(CLOCK_OFFSET_ENV)!r}"
        ) from None
    server = SiteServer(
        site, host, port, clock_offset_s=clock_offset_s, flight_dir=store
    )
    if threading.current_thread() is threading.main_thread():
        server.flight.install_signal_handler(
            flight_path(store, "site", site_id)
        )
    stream = ready_stream if ready_stream is not None else sys.stdout
    print(f"READY site={site_id} port={server.port}", file=stream, flush=True)
    try:
        server.serve_forever()
    finally:
        server.flight.record_event("exit")
        server._dump_flight()
