"""The TCP front-end: framing, concurrency, shutdown, error format.

The network layer must be a transparent transport for the line
protocol: everything the stdio server answers, a socket client gets
byte-identical, multi-line responses and all.  Also pins the error
reply format — every error reply from any layer reads
``error: <kind>: <detail>`` with a lowercase kind — because clients,
the router's fan-out, and the CI smoke script all dispatch on it.
"""

import re
import socket
import threading
import time

import pytest

from repro.service.netserver import LineClient, NetServer, _TextOut
from repro.service.server import (ERROR_PREFIX, SessionServer, error_reply,
                                  write_reply)
from repro.service.session import SessionManager

SRC = "c = 1\nx = c + 2\nwrite x\n"

STAMP_RE = re.compile(r"t(\d+)")

#: the pinned error shape: prefix, lowercase kind, colon, detail.
ERROR_FORM = re.compile(r"^error: [a-z-]+: \S")


class _CountingWfile:
    """Stands in for the handler's unbuffered socket file: every write
    would be one ``sendall``."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    def flush(self):
        pass


def test_each_reply_is_one_write_with_unchanged_bytes():
    wfile = _CountingWfile()
    out = _TextOut(wfile)
    for text in ("", "one", "a\nb\nc"):
        write_reply(out, text)
    assert wfile.writes == [b"\n.\n", b"one\n.\n", b"a\nb\nc\n.\n"]


@pytest.fixture()
def served(tmp_path):
    """A NetServer over an in-process SessionServer, plus a program."""
    prog = tmp_path / "prog.loop"
    prog.write_text(SRC)
    net = NetServer(SessionServer(SessionManager(str(tmp_path))))
    net.serve_in_thread()
    yield net, str(prog)
    net.shutdown()


def connect(net):
    host, port = net.address
    return LineClient(host, port)


class TestRoundTrip:
    def test_apply_undo_over_tcp(self, served):
        net, prog = served
        with connect(net) as client:
            assert client.request(f"s init {prog}") == "created s"
            out = client.request("s apply ctp 0")
            assert out.startswith("applied")
            stamp = int(STAMP_RE.search(out).group(1))
            assert client.request(f"s undo {stamp}").startswith("undone")

    def test_multi_line_response_frames_cleanly(self, served):
        net, prog = served
        with connect(net) as client:
            client.request(f"s init {prog}")
            out = client.request("s apply ctp 0")
            client.request(f"s undo {STAMP_RE.search(out).group(1)}")
            log = client.request("s log")
            assert len(log.splitlines()) == 2
            # the next request on the same connection still works —
            # the "." terminator framed the multi-line body exactly
            assert client.request("s source").strip() == SRC.strip()

    def test_empty_line_is_answered(self, served):
        net, _ = served
        with connect(net) as client:
            assert client.request("") == ""

    def test_quit_closes_only_this_connection(self, served):
        net, prog = served
        first = connect(net)
        first.close()  # sends quit
        with connect(net) as second:
            assert second.request(f"t init {prog}") == "created t"


class TestConcurrentClients:
    def test_parallel_connections_share_the_manager(self, served):
        net, prog = served
        clients = [connect(net) for _ in range(4)]
        try:
            for i, client in enumerate(clients):
                assert client.request(f"c{i} init {prog}") == f"created c{i}"
            errors = []

            def drive(i, client):
                try:
                    for _ in range(3):
                        out = client.request(f"c{i} apply ctp 0")
                        stamp = int(STAMP_RE.search(out).group(1))
                        client.request(f"c{i} undo {stamp}")
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(i, c))
                       for i, c in enumerate(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for i, client in enumerate(clients):
                assert len(client.request(f"c{i} log").splitlines()) == 6
        finally:
            for client in clients:
                client.close()


class TestShutdown:
    def test_shutdown_verb_stops_the_server(self, tmp_path):
        net = NetServer(SessionServer(SessionManager(str(tmp_path))))
        thread = net.serve_in_thread()
        with connect(net) as client:
            assert client.request("_ shutdown") == "shutting down"
        thread.join(5.0)
        assert not thread.is_alive()
        # the shutdown verb acks before closing the listener; give the
        # close a moment, then the port must refuse connections
        for _ in range(40):
            try:
                socket.create_connection(net.address, timeout=1.0).close()
                time.sleep(0.05)
            except OSError:
                break
        else:
            pytest.fail("listener still accepting after _ shutdown")

    def test_shutdown_is_idempotent(self, tmp_path):
        net = NetServer(SessionServer(SessionManager(str(tmp_path))))
        net.serve_in_thread()
        net.shutdown()
        net.shutdown()  # second call is a no-op, not an error


class TestShardedOverTcp:
    def test_end_to_end_with_two_shards(self, tmp_path):
        from repro.service.shard import ShardRouter

        prog = tmp_path / "prog.loop"
        prog.write_text(SRC)
        net = NetServer(ShardRouter(str(tmp_path), 2))
        net.serve_in_thread()
        try:
            with connect(net) as client:
                for name in ("alpha", "beta", "gamma"):
                    assert client.request(f"{name} init {prog}") == \
                        f"created {name}"
                    out = client.request(f"{name} apply ctp 0")
                    stamp = int(STAMP_RE.search(out).group(1))
                    client.request(f"{name} undo {stamp}")
                names = client.request("_ sessions").split()
                assert {"alpha", "beta", "gamma"} <= set(names)
                import json
                merged = json.loads(client.request("_ metrics"))
                assert merged["shards"] == 2
                assert merged["totals"]["commands"] >= 6
        finally:
            net.shutdown()


class TestErrorFormat:
    """Every error reply reads ``error: <kind>: <detail>`` — pinned."""

    def test_error_reply_builder_shape(self):
        out = error_reply("session", "no such session 'x'")
        assert out.startswith(ERROR_PREFIX)
        assert ERROR_FORM.match(out)

    @pytest.mark.parametrize("line,kind", [
        ("lonely", "bad-request"),                  # missing verb
        ("s frobnicate", "unknown-verb"),           # no such verb
        ("nosuch apply ctp 0", "session"),          # session not created
        ("s init /nonexistent/path.loop", "io"),    # unreadable program
    ])
    def test_server_errors_carry_kind_and_detail(self, tmp_path,
                                                 line, kind):
        prog = tmp_path / "prog.loop"
        prog.write_text(SRC)
        server = SessionServer(SessionManager(str(tmp_path)))
        server.handle_line(f"s init {prog}")  # unknown-verb needs one
        out = server.handle_line(line)
        assert ERROR_FORM.match(out), out
        assert out.startswith(f"error: {kind}: "), out

    def test_undo_and_parse_errors_over_tcp(self, served):
        net, prog = served
        with connect(net) as client:
            client.request(f"e init {prog}")
            out = client.request("e apply ctp 0")
            stamp = int(STAMP_RE.search(out).group(1))
            client.request(f"e undo {stamp}")
            out = client.request(f"e undo {stamp}")  # already undone
            assert out.startswith("error: undo: "), out
            out = client.request("e undo not-a-stamp")
            assert ERROR_FORM.match(out), out
            out = client.request("e undo 99")  # never existed
            assert ERROR_FORM.match(out), out
