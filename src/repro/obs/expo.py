"""Live exposition: ``/metrics``, ``/healthz``, ``/varz`` over HTTP.

The line protocol is a fine operator surface for a human with a
terminal, but scrapers and load balancers speak HTTP: Prometheus pulls
``/metrics``, an orchestrator probes ``/healthz``, an engineer mid-
incident curls ``/varz``.  :class:`ExpoServer` is the stdlib-only
sidecar that serves all three from a daemon thread next to whichever
front-end is running — it never touches the request path.

The front is duck-typed: anything with ``expo_metrics_doc()`` /
``expo_health()`` / ``expo_varz()`` / ``expo_pprof()`` works.  Both
:class:`~repro.service.server.SessionServer` and
:class:`~repro.service.shard.ShardRouter` get the last three from one
shared implementation (:class:`~repro.service.server.Front`), so the
sidecar is identical over a single process and a sharded fleet.

Endpoint contracts:

* ``GET /metrics`` — Prometheus text: the front's ``_ metrics``
  document (fleet-merged on the router) rendered by
  :func:`repro.obs.metrics.aggregate_to_prometheus` — every instrument
  of the manager registries under its own name, plus the
  ``repro_fleet_*`` series; ``500`` with the error text when the
  document cannot be assembled (a dead shard mid-scrape).
* ``GET /healthz`` — the health JSON; HTTP ``200`` when ``ok`` is true,
  ``503`` otherwise, so probes need only look at the status code.
* ``GET /varz`` — the full drill-down JSON (health + SLO window + slow
  requests + metrics), always ``200`` when assemblable.
* ``GET /pprof?seconds=N&hz=H`` — collapsed-stack profile text
  (``flamegraph.pl`` input) from the front's sampling profiler
  (:mod:`repro.obs.profiler`): an on-demand ``seconds``-long window
  (default 1, capped at 60) sampled at ``hz``, or the accumulated
  profile when an operator already opened a ``_ prof start`` window.
  An on-demand window is always fresh: it never repeats the samples
  of an earlier one.

Anything else is ``404``.  Exposition must never take the service
down: every handler catches broad and answers ``500`` instead of
letting an exception kill the connection thread.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Tuple

__all__ = ["ExpoServer"]

#: the content type Prometheus' text parser expects.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """One request handler bound (via subclassing) to one front."""

    #: set by ExpoServer when it manufactures the per-front subclass.
    front: Any = None
    #: keep connections short-lived; a scraper reconnects per scrape.
    protocol_version = "HTTP/1.0"

    def _reply(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, _, query = self.path.partition("?")
        params = urllib.parse.parse_qs(query)
        try:
            if path == "/metrics":
                from repro.obs.metrics import aggregate_to_prometheus
                body = aggregate_to_prometheus(self.front.expo_metrics_doc())
                self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
            elif path == "/healthz":
                doc = self.front.expo_health()
                self._reply(200 if doc.get("ok") else 503,
                            JSON_CONTENT_TYPE,
                            json.dumps(doc, sort_keys=True) + "\n")
            elif path == "/varz":
                self._reply(200, JSON_CONTENT_TYPE,
                            json.dumps(self.front.expo_varz(),
                                       sort_keys=True) + "\n")
            elif path == "/pprof":
                seconds = min(60.0, float(
                    params.get("seconds", ["1"])[0]))
                hz = float(params["hz"][0]) if "hz" in params else None
                body = self.front.expo_pprof(seconds=seconds, hz=hz)
                self._reply(200, "text/plain; charset=utf-8",
                            body + ("\n" if body else ""))
            else:
                self._reply(404, JSON_CONTENT_TYPE,
                            json.dumps({"error": "not found",
                                        "paths": ["/metrics", "/healthz",
                                                  "/varz", "/pprof"]}) + "\n")
        except Exception as exc:  # noqa: BLE001 - exposition never kills
            try:
                self._reply(500, JSON_CONTENT_TYPE,
                            json.dumps({"error": str(exc) or repr(exc)})
                            + "\n")
            except OSError:
                pass  # client hung up mid-error; nothing left to say

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default stderr access log (scrapes are periodic)."""


class ExpoServer:
    """The HTTP sidecar: a ThreadingHTTPServer on a daemon thread.

    ``port=0`` binds an ephemeral port; read :attr:`address` for the
    bound ``(host, port)`` (the CLI prints it as ``metrics on ...``).
    Start with :meth:`start`, stop with :meth:`close` (idempotent);
    also a context manager.
    """

    def __init__(self, front: Any, host: str = "127.0.0.1", port: int = 0):
        handler = type("_BoundHandler", (_Handler,), {"front": front})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-expo",
            daemon=True)
        self._started = False
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ExpoServer":
        """Begin serving (returns self for one-line construction)."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self) -> "ExpoServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()
