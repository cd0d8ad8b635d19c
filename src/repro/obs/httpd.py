"""Telemetry HTTP endpoint: ``/metrics``, ``/healthz`` and ``/varz``.

A tiny stdlib :mod:`http.server` exporter so any scraper (Prometheus,
curl, a load balancer's health check) can observe a running process with
zero third-party dependencies:

* ``GET /metrics`` — the registry in Prometheus text exposition format;
* ``GET /healthz`` — ``200 {"status": "ok"}`` while the health callback
  reports healthy, ``503`` otherwise (liveness/readiness probes);
* ``GET /varz``    — a JSON snapshot of every metric series (plus
  whatever richer document the owner's callback provides);
* ``GET /debug/traces`` — newest-first summaries from the service's
  flight recorder (``?limit=N`` with ``N >= 1``; a non-numeric, zero or
  negative limit is a 400), and ``GET /debug/traces/<id>`` for one full
  recorded trace — 404 when no recorder is attached.

The server runs on a daemon thread (`ThreadingHTTPServer`, one handler
thread per request) and binds to loopback by default.  Its handlers
derive from :class:`SingleWriteHandler`, shared with the query server
(:mod:`repro.serve.app`): ``TCP_NODELAY`` is set on every accepted
connection and :func:`respond` sends a whole response (status line,
headers and body) in one socket write, so no response waits on the
client's delayed acknowledgement of its first half.  Port 0 binds an
ephemeral port — ``server.port`` reports the real one, which is how
tests avoid collisions.

Usage::

    server = MetricsServer(registry, port=9464).start()
    ...
    server.stop()

or let the service own it::

    service = QueryService(db, ServiceConfig(expose_metrics_port=9464))
"""

from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry

#: content type of the Prometheus text exposition format
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: errors meaning "the client hung up mid-response": nothing can be sent
#: back on that socket, so handlers drop the response instead of crashing
#: the handler thread (and never try to write a 500 to the dead socket)
CLIENT_DISCONNECT_ERRORS = (BrokenPipeError, ConnectionResetError)


class ResponseBuffer(io.BufferedIOBase):
    """A handler's ``wfile`` that sends nothing until :meth:`flush`.

    Every write is held; ``flush`` hands them to the socket as one
    ``sendall``.  A response written as status line, headers and body
    then leaves in one send, whatever its size.  A disconnect raises
    from ``flush``, so whoever flushes catches it.
    """

    def __init__(self, sock):
        super().__init__()
        self._sock = sock
        self._parts: list = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self._parts.append(data)
        return len(data)

    def flush(self) -> None:
        if self._parts:
            data = b"".join(self._parts)
            # Cleared first: a send that fails must not be retried by
            # the stdlib's own flush when the connection is torn down.
            self._parts.clear()
            self._sock.sendall(data)


class SingleWriteHandler(BaseHTTPRequestHandler):
    """Request handler base: no Nagle delay, one send per response."""

    #: TCP_NODELAY on the accepted socket (see StreamRequestHandler)
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.wfile = ResponseBuffer(self.connection)

    def handle_expect_100(self) -> bool:
        # The stdlib writes "100 Continue" without flushing; send it now,
        # or the client would wait for it until the final response.
        try:
            accepted = super().handle_expect_100()
            self.wfile.flush()
        except CLIENT_DISCONNECT_ERRORS:
            self.close_connection = True
            return False
        return accepted

    def log_message(self, *args) -> None:
        pass  # callers log structured events of their own


def respond(
    request: BaseHTTPRequestHandler,
    status: int,
    content_type: str,
    body: bytes,
) -> int:
    """Send one complete response; returns *status*, or 0 on a hang-up.

    Status line, headers and body are written to the handler's buffered
    ``wfile`` and flushed once, inside this call: a client that closed
    the connection before or during the send is dropped here, and never
    retried on the dead socket (that would only re-raise and kill the
    handler thread).
    """
    try:
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)
        request.wfile.flush()
    except CLIENT_DISCONNECT_ERRORS:
        request.close_connection = True
        return 0
    return status


class MetricsServer:
    """Serves one registry (and optional health/varz callbacks) over HTTP."""

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        health_callback: Optional[Callable[[], bool]] = None,
        varz_callback: Optional[Callable[[], dict]] = None,
        recorder=None,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self.health_callback = health_callback
        self.varz_callback = varz_callback
        #: the owning service's FlightRecorder (None = /debug/traces 404s)
        self.recorder = recorder
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        """Bind and serve on a daemon thread; returns self (idempotent)."""
        if self._httpd is not None:
            return self
        owner = self

        class Handler(SingleWriteHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                owner._handle(self)

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="solap-metrics-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and release the port (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = self.registry.render_prometheus().encode("utf-8")
                respond(request, 200, PROMETHEUS_CONTENT_TYPE, body)
            elif path == "/healthz":
                healthy = (
                    self.health_callback() if self.health_callback else True
                )
                status = 200 if healthy else 503
                body = json.dumps(
                    {"status": "ok" if healthy else "unhealthy"}
                ).encode("utf-8")
                respond(request, status, "application/json", body)
            elif path == "/varz":
                doc = (
                    self.varz_callback()
                    if self.varz_callback
                    else self.registry.snapshot()
                )
                body = json.dumps(doc, default=repr).encode("utf-8")
                respond(request, 200, "application/json", body)
            elif path == "/debug/traces" or path.startswith("/debug/traces/"):
                self._handle_traces(request, path)
            else:
                body = json.dumps(
                    {"error": f"unknown path {path!r}",
                     "paths": ["/metrics", "/healthz", "/varz",
                               "/debug/traces", "/debug/traces/<id>"]}
                ).encode("utf-8")
                respond(request, 404, "application/json", body)
        except CLIENT_DISCONNECT_ERRORS:
            # The client went away mid-write; there is no socket left to
            # answer on, so drop the response silently.
            return
        except Exception as error:  # noqa: BLE001 - keep the server alive
            body = json.dumps(
                {"error": f"{type(error).__name__}: {error}"}
            ).encode("utf-8")
            respond(request, 500, "application/json", body)

    def _handle_traces(
        self, request: BaseHTTPRequestHandler, path: str
    ) -> None:
        """Serve the flight-recorder routes (summaries or one entry)."""
        if self.recorder is None:
            body = json.dumps(
                {"error": "flight recorder not enabled"}
            ).encode("utf-8")
            respond(request, 404, "application/json", body)
            return
        if path == "/debug/traces":
            query = request.path.split("?", 1)
            limit = 20
            if len(query) == 2:
                for pair in query[1].split("&"):
                    key, __, value = pair.partition("=")
                    if key == "limit":
                        try:
                            limit = int(value)
                        except ValueError:
                            body = json.dumps(
                                {"error": f"bad limit {value!r}"}
                            ).encode("utf-8")
                            respond(
                                request, 400, "application/json", body
                            )
                            return
            if limit < 1:
                # limit=0 / negative limits used to be silently clamped to
                # 1; they are requests the caller never meant, so reject
                # them like any other malformed limit.
                body = json.dumps(
                    {"error": f"bad limit {limit!r}: must be >= 1"}
                ).encode("utf-8")
                respond(request, 400, "application/json", body)
                return
            doc = {"traces": self.recorder.recent(limit=limit)}
            body = json.dumps(doc, default=repr).encode("utf-8")
            respond(request, 200, "application/json", body)
            return
        entry_id = path[len("/debug/traces/"):]
        entry = self.recorder.get(entry_id) if entry_id else None
        if entry is None:
            body = json.dumps(
                {"error": f"no recorded trace {entry_id!r}"}
            ).encode("utf-8")
            respond(request, 404, "application/json", body)
            return
        body = json.dumps(entry, default=repr).encode("utf-8")
        respond(request, 200, "application/json", body)

    def __repr__(self) -> str:
        state = "serving" if self.running else "stopped"
        return f"MetricsServer({self.url}, {state})"
