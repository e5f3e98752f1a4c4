"""The TCP front-end: many concurrent clients, one line protocol.

:class:`NetServer` multiplexes client connections over the exact
protocol ``SessionServer.serve`` speaks on stdio — one request line in,
the response's lines out, a lone ``.`` terminator — so everything that
works against the stdio server works over a socket unchanged.  One
thread per connection (threads spend their life blocked on client reads
or shard pipes, so a thread each is the simple, honest model at this
scale); the front it serves decides the concurrency story:

* an in-process :class:`~repro.service.server.SessionServer` serializes
  per session via the manager's locks;
* a :class:`~repro.service.shard.ShardRouter` fans sessions out across
  worker processes, which is the configuration that actually scales
  (``repro serve ROOT --port P --shards N``).

Connection verbs (handled here, not by the front): ``quit``/``exit``
close the connection; ``_ shutdown`` stops the whole server after
acknowledging — the clean-shutdown path the operations runbook and the
CI smoke script use.

The handler is hardened against hostile or broken clients: a request
line over :data:`MAX_LINE_BYTES` is answered with ``error:
bad-request: ...`` (the oversized bytes are drained in fixed-size
chunks, never buffered whole) and invalid UTF-8 gets the same
normalized error instead of a mangled request — in both cases the
connection stays up and the next request is served normally.  Rejected
lines are counted per reason in ``repro_net_bad_lines_total`` — in the
front's registry, so its ``_ metrics`` and ``/metrics`` serve them.

:class:`LineClient` is the matching client: blocking, one in-flight
request, safe to use from one thread at a time — tests, benchmarks, and
the smoke script drive real sockets with it.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Optional, Tuple

from repro.service.server import error_reply, write_reply

#: responses are terminated by this line, mirroring the stdio server.
TERMINATOR = "."

#: hard cap on one request line (bytes, newline included).  The longest
#: legitimate requests are batches, which top out orders of magnitude
#: below this; anything bigger is a runaway or hostile client, and
#: buffering it whole would let one connection exhaust the process.
MAX_LINE_BYTES = 64 * 1024


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: line requests in, framed responses out."""

    # request/response pairs are tiny; Nagle+delayed-ACK would add a
    # ~40ms stall to every one of them
    disable_nagle_algorithm = True

    def handle(self) -> None:  # pragma: no cover - exercised over sockets
        net: "NetServer" = self.server.net  # type: ignore[attr-defined]
        front = _ConnectionFront(net)
        out = _TextOut(self.wfile)
        while True:
            # bounded read: one byte past the cap distinguishes "fits
            # exactly" from "truncated mid-line"
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                break
            if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
                self._drain_line()
                write_reply(out, net.reject_line(
                    "oversized",
                    f"request line exceeds {MAX_LINE_BYTES} bytes"))
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                write_reply(out, net.reject_line(
                    "bad-utf8",
                    f"invalid utf-8 at byte {exc.start}: {exc.reason}"))
                continue
            if line.strip() in ("quit", "exit"):
                break
            write_reply(out, front.handle_line(line))

    def _drain_line(self) -> None:  # pragma: no cover - socket path
        """Discard the rest of an oversized line in bounded chunks."""
        while True:
            chunk = self.rfile.readline(MAX_LINE_BYTES)
            if not chunk or chunk.endswith(b"\n"):
                return


class _ConnectionFront:
    """Per-connection shim adding the server-level ``_ shutdown`` verb."""

    def __init__(self, net: "NetServer"):
        self.net = net

    def handle_line(self, line: str) -> str:
        if line.strip() == "_ shutdown":
            # acknowledge first, then stop accepting; the shutdown runs
            # on its own thread because BaseServer.shutdown blocks until
            # the accept loop exits, and this handler thread must finish
            # writing the acknowledgement either way
            threading.Thread(target=self.net.shutdown, daemon=True).start()
            return "shutting down"
        return self.net.front.handle_line(line)


class _TextOut:
    """Text adapter over the handler's binary write file."""

    def __init__(self, wfile):
        self.wfile = wfile

    def write(self, text: str) -> None:
        self.wfile.write(text.encode("utf-8"))

    def flush(self) -> None:
        self.wfile.flush()


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class NetServer:
    """Serve one ``handle_line`` front to many TCP clients.

    ``front`` is a :class:`~repro.service.server.Front` — the
    in-process server or the sharded router; rejected lines count into
    its ``registry``.  Binding happens in the
    constructor (port 0 picks a free port; read it back from
    :attr:`address`), serving in :meth:`serve_forever`.
    """

    def __init__(self, front, host: str = "127.0.0.1", port: int = 0):
        self.front = front
        self._server = _Server((host, port), _Handler,
                               bind_and_activate=True)
        self._server.net = self  # type: ignore[attr-defined]
        self._shutdown_once = threading.Lock()
        self._down = False

    def reject_line(self, reason: str, detail: str) -> str:
        """Count one rejected request line; returns the error reply."""
        self.front.registry.counter(
            "repro_net_bad_lines_total",
            "request lines rejected before dispatch",
            reason=reason).inc()
        return error_reply("bad-request", detail)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port 0 resolved to the real one."""
        return self._server.server_address[:2]

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`shutdown`."""
        self._server.serve_forever(poll_interval=0.1)

    def serve_in_thread(self) -> threading.Thread:
        """Start :meth:`serve_forever` on a daemon thread (tests)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop accepting, close the listener, and close the front."""
        with self._shutdown_once:
            if self._down:
                return
            self._down = True
        self._server.shutdown()
        self._server.server_close()
        self.front.close()


class LineClient:
    """A blocking client for the line protocol over TCP."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("r", encoding="utf-8",
                                          newline="\n")

    def request(self, line: str) -> str:
        """Send one request line; return the (possibly multi-line) reply."""
        self._sock.sendall((line.rstrip("\n") + "\n").encode("utf-8"))
        out = []
        for reply in self._rfile:
            if reply.rstrip("\n") == TERMINATOR:
                return "\n".join(out)
            out.append(reply.rstrip("\n"))
        raise ConnectionError("server closed the connection mid-response")

    def close(self, quit: bool = True) -> None:
        """Close the connection (sending ``quit`` first by default)."""
        try:
            if quit:
                self._sock.sendall(b"quit\n")
        except OSError:
            pass
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
