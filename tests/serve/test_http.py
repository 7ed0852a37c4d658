"""Tests for the asyncio HTTP transport: parity, caching headers, lifecycle."""

import http.client
import json
import logging
import socket

import pytest

from repro.serve import encode_body, etag_for, serve_in_thread
from repro.serve.http import MAX_BODY


@pytest.fixture(scope="module")
def server(served_store_dir):
    with serve_in_thread(str(served_store_dir)) as handle:
        yield handle


@pytest.fixture()
def connection(server):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    yield conn
    conn.close()


def fetch(connection, target, headers=None, method="GET"):
    connection.request(method, target, headers=headers or {})
    response = connection.getresponse()
    return response.status, dict(response.getheaders()), response.read()


class TestEncodeBody:
    def test_canonical_json(self):
        body = encode_body({"b": 1, "a": [1, 2]})
        assert body == b'{"a":[1,2],"b":1}\n'

    def test_key_order_irrelevant(self):
        assert encode_body({"a": 1, "b": 2}) == encode_body({"b": 2, "a": 1})


class TestEtagFor:
    def test_combines_version_and_content(self):
        etag = etag_for("f" * 64, b"body")
        assert etag.startswith('"' + "f" * 16 + "-")
        assert etag.endswith('"')

    def test_body_changes_etag(self):
        version = "a" * 64
        assert etag_for(version, b"x") != etag_for(version, b"y")

    def test_version_changes_etag(self):
        assert etag_for("a" * 64, b"x") != etag_for("b" * 64, b"x")


class TestParity:
    """The wire bytes are exactly ``encode_body(service result)``."""

    def test_prefix_endpoint(self, server, connection, served_store):
        entry = served_store.snapshots()[0]
        for prefix in list(served_store.atoms(entry.key).by_prefix)[:10]:
            status, _, body = fetch(connection, f"/v1/prefix/{prefix}")
            assert status == 200
            assert body == encode_body(
                server.service.prefix_query(str(prefix))
            )

    def test_atom_endpoint(self, server, connection):
        status, _, body = fetch(connection, "/v1/atom/0")
        assert status == 200
        assert body == encode_body(server.service.atom_query(0))

    def test_stats_endpoint(self, server, connection):
        status, _, body = fetch(connection, "/v1/stats")
        assert status == 200
        assert body == encode_body(server.service.stats())

    def test_snapshot_query_parameter(
        self, server, connection, served_store
    ):
        entry = served_store.snapshots()[-1]
        prefix = next(iter(served_store.atoms(entry.key).by_prefix))
        status, _, body = fetch(
            connection, f"/v1/prefix/{prefix}?snapshot={entry.key}"
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["snapshot"] == entry.key
        assert body == encode_body(
            server.service.prefix_query(str(prefix), snapshot=entry.key)
        )


class TestCachingHeaders:
    def test_etag_present_and_revalidates(self, server, connection):
        status, headers, body = fetch(connection, "/v1/stats")
        assert status == 200
        etag = headers["ETag"]
        assert etag == etag_for(server.service.version, body)
        status, headers, body = fetch(
            connection, "/v1/stats", headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag
        assert "Content-Length" not in headers

    def test_wildcard_revalidates(self, server, connection):
        fetch(connection, "/v1/stats")
        status, _, body = fetch(
            connection, "/v1/stats", headers={"If-None-Match": "*"}
        )
        assert status == 304 and body == b""

    def test_stale_etag_gets_full_body(self, server, connection):
        status, _, body = fetch(
            connection, "/v1/stats", headers={"If-None-Match": '"stale"'}
        )
        assert status == 200 and body

    def test_store_version_header(self, server, connection):
        _, headers, _ = fetch(connection, "/v1/stats")
        assert headers["X-Store-Version"] == server.service.version

    def test_healthz_not_revalidatable(self, server, connection):
        """``/healthz`` embeds live cache stats, so it is never 304'd."""
        status, headers, _ = fetch(connection, "/healthz")
        assert status == 200
        assert "ETag" not in headers
        status, _, body = fetch(
            connection, "/healthz", headers={"If-None-Match": "*"}
        )
        assert status == 200 and body


class TestErrors:
    def test_unknown_endpoint_404(self, server, connection):
        status, _, body = fetch(connection, "/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_invalid_prefix_400(self, server, connection):
        status, _, body = fetch(connection, "/v1/prefix/banana")
        assert status == 400
        assert "banana" in json.loads(body)["error"]

    def test_unknown_atom_404(self, server, connection):
        status, _, _ = fetch(connection, "/v1/atom/99999999")
        assert status == 404

    def test_non_numeric_atom_400(self, server, connection):
        status, _, _ = fetch(connection, "/v1/atom/zero")
        assert status == 400

    def test_unknown_snapshot_404(self, server, connection):
        status, _, _ = fetch(
            connection, "/v1/prefix/10.0.0.0/8?snapshot=nope"
        )
        assert status == 404

    def test_post_405(self, server, connection):
        status, _, body = fetch(connection, "/v1/stats", method="POST")
        assert status == 405
        assert "POST" in json.loads(body)["error"]


class TestConnections:
    def test_keep_alive_reuses_connection(self, server, connection):
        for _ in range(3):
            status, headers, _ = fetch(connection, "/v1/stats")
            assert status == 200
            assert headers["Connection"] == "keep-alive"

    def test_connection_close_honoured(self, server):
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            status, headers, _ = fetch(
                conn, "/v1/stats", headers={"Connection": "close"}
            )
            assert status == 200
            assert headers["Connection"] == "close"
        finally:
            conn.close()

    def test_garbage_request_closes_quietly(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            assert sock.recv(1024) == b""


def exchange(server, payload):
    """Send raw bytes on a fresh socket; everything read back until EOF."""
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestFraming:
    """Damaged framing is answered with a 4xx and a close, never a crash."""

    def _rejected(self, server, caplog, payload, status):
        caplog.set_level(logging.ERROR, logger="asyncio")
        reply = exchange(server, payload)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply
        # A later request proves the server survived and lets the loop
        # finish the rejected connection's handler before checking logs.
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            assert fetch(conn, "/healthz")[0] == 200
        finally:
            conn.close()
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_malformed_request_line_400(self, server, caplog):
        self._rejected(server, caplog, b"GET HTTP/1.1\r\n\r\n", 400)

    def test_negative_content_length_400(self, server, caplog):
        payload = b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        self._rejected(server, caplog, payload, 400)

    def test_non_numeric_content_length_400(self, server, caplog):
        payload = b"GET /healthz HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n"
        self._rejected(server, caplog, payload, 400)

    def test_line_over_stream_limit_431(self, server, caplog):
        payload = b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n"
        self._rejected(server, caplog, payload, 431)

    @pytest.mark.parametrize(
        "padding", [MAX_BODY, 4 << 20], ids=["smuggled-tail", "large-upload"]
    )
    def test_body_over_max_body_413(self, server, caplog, padding):
        # The tail would be answered as a second request if the server
        # read only MAX_BODY bytes of the declared body.  A large upload
        # still unread when the server closes would reset the connection
        # and lose the 413 unless the server drains it first.
        tail = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        body = b"x" * padding + tail
        payload = (
            b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body
        )
        self._rejected(server, caplog, payload, 413)


class TestLifecycle:
    def test_shutdown_refuses_new_connections(self, served_store_dir):
        with serve_in_thread(str(served_store_dir)) as handle:
            host, port = handle.host, handle.port
            conn = http.client.HTTPConnection(host, port, timeout=30)
            status, _, _ = fetch(conn, "/healthz")
            assert status == 200
            conn.close()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()

    def test_separate_servers_share_nothing(self, served_store_dir):
        with serve_in_thread(str(served_store_dir)) as first:
            with serve_in_thread(str(served_store_dir)) as second:
                assert first.port != second.port
                for handle in (first, second):
                    conn = http.client.HTTPConnection(
                        handle.host, handle.port, timeout=30
                    )
                    status, _, _ = fetch(conn, "/v1/stats")
                    conn.close()
                    assert status == 200
