"""Async HTTP/1.1 transport for the atom query service.

A deliberately small, dependency-free server on
``asyncio.start_server``: request parsing, routing, keep-alive and
shutdown live here; every answer comes from an
:class:`~repro.serve.service.AtomQueryService`.  Response bodies are
canonical JSON (sorted keys, compact separators), so the bytes on the
wire are exactly ``encode_body(service.<endpoint>(...))`` — the parity
property the benchmarks gate on.

Caching headers: every 200 carries a strong ETag combining the store's
manifest digest (the snapshot version) with the body digest, plus the
full digest in ``X-Store-Version``.  A request whose ``If-None-Match``
lists the current ETag is answered ``304 Not Modified`` without a
body; because the ETag embeds the store version, a client can never
revalidate a response from a rebuilt store.

Shutdown is graceful: the listener closes first, in-flight responses
finish (keep-alive loops observe the closing flag), idle connections
are then disconnected, and :meth:`AtomServer.shutdown` returns only
when every connection handler has exited.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.obs import get_tracer
from repro.serve.service import AtomQueryService, QueryError
from repro.store.format import StoreError

#: Longest request line / header line accepted (bytes).
MAX_LINE = 8192

#: Largest request body accepted (the API is GET-only; bodies are drained).
MAX_BODY = 65536

#: Seconds a rejected connection keeps discarding input before closing.
LINGER_SECONDS = 2.0

SERVER_NAME = "repro-serve"

_STATUS_TEXT = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def encode_body(payload: Any) -> bytes:
    """Canonical JSON bytes of one response payload."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def etag_for(store_version: str, body: bytes) -> str:
    """Strong ETag: snapshot version + content digest."""
    content = hashlib.sha256(body).hexdigest()
    return f'"{store_version[:16]}-{content[:16]}"'


class _Request:
    """One parsed request: method, split target, headers."""

    __slots__ = ("method", "path", "query", "headers")

    def __init__(self, method: str, target: str, headers: Dict[str, str]):
        split = urlsplit(target)
        self.method = method
        self.path = unquote(split.path)
        self.query = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        self.headers = headers


class AtomServer:
    """Serves one :class:`AtomQueryService` over HTTP/1.1.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  The server never touches the store concurrently
    with an answer in a way the reader cannot take — all reads go
    through the service layer, which is safe for the event loop's
    serialized access.
    """

    def __init__(
        self,
        service: AtomQueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self._handlers: set = set()
        self._busy: set = set()
        self._writers: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.host, self.port = sockets[0].getsockname()[:2]
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("serve.started")
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (CLI foreground mode)."""
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting, let in-flight responses finish, disconnect.

        Idempotent; returns once every connection handler has exited.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections sit in readline(); closing their
        # transports unblocks them.  Busy ones finish their response
        # first (the handler loop re-checks the closing flag).
        for writer in list(self._writers):
            if writer not in self._busy:
                writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("serve.stopped")

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._writers.add(writer)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("serve.connections")
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader)
                except QueryError as error:  # unframeable: answer, close
                    await self._reject(reader, writer, error)
                    break
                if request is None:
                    break
                self._busy.add(writer)
                try:
                    response, keep_alive = self._respond(request)
                    writer.write(response)
                    await writer.drain()
                    if tracer.enabled:
                        tracer.count("serve.bytes_sent", len(response))
                finally:
                    self._busy.discard(writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        """One request or header line; 431 when it exceeds ``MAX_LINE``."""
        try:
            line = await reader.readline()
            if len(line) <= MAX_LINE:
                return line
        except ValueError:  # longer than the stream's buffer limit
            pass
        raise QueryError(f"line longer than {MAX_LINE} bytes", status=431)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        """Parse one request; None on EOF or on input that is not HTTP.

        Framing that is HTTP but unacceptable raises :class:`QueryError`
        with its status: a request line that ends in an HTTP version but
        is not ``METHOD TARGET VERSION`` (400), an oversized line (431),
        a negative or non-numeric ``Content-Length`` (400), or a body
        over ``MAX_BODY`` (413).
        """
        line = await self._read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            if parts and parts[-1].startswith("HTTP/"):
                raise QueryError("malformed request line")
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await self._read_line(reader)
            if not raw:
                return None
            if raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is not None:
            if not (length.isascii() and length.isdigit()):
                raise QueryError(f"invalid Content-Length {length!r}")
            size = int(length)
            if size > MAX_BODY:
                raise QueryError(f"body larger than {MAX_BODY} bytes", status=413)
            if size:
                await reader.readexactly(size)
        return _Request(method, target, headers)

    async def _reject(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        error: QueryError,
    ) -> None:
        """Answer a framing error, then close without resetting the peer.

        Closing a socket with unread input makes the kernel reset the
        connection, which can destroy the answer before the client reads
        it.  So the write side is shut first, and input is discarded
        until the client hangs up or ``LINGER_SECONDS`` pass.
        """
        headers = [
            ("Server", SERVER_NAME),
            ("Content-Type", "application/json"),
            ("X-Store-Version", self.service.version),
        ]
        body = encode_body({"error": str(error)})
        writer.write(self._frame(error.status, headers, body, keep_alive=False))
        await writer.drain()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("serve.errors")
        if writer.can_write_eof():
            writer.write_eof()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + LINGER_SECONDS
        try:
            while await asyncio.wait_for(reader.read(65536), deadline - loop.time()):
                pass
        except asyncio.TimeoutError:
            pass

    # ------------------------------------------------------------------
    # Routing + rendering
    # ------------------------------------------------------------------

    def _route(self, request: _Request) -> Tuple[int, Any]:
        """(status, payload) for one request."""
        path = request.path
        snapshot = request.query.get("snapshot")
        if path == "/healthz":
            return 200, {
                "status": "ok",
                "store_version": self.service.version,
                "cache": self.service.cache.stats(),
            }
        if path == "/v1/stats":
            return 200, self.service.stats()
        if path.startswith("/v1/prefix/"):
            cidr = path[len("/v1/prefix/"):]
            return 200, self.service.prefix_query(cidr, snapshot=snapshot)
        if path.startswith("/v1/atom/"):
            raw = path[len("/v1/atom/"):]
            try:
                atom_id = int(raw)
            except ValueError:
                raise QueryError(f"invalid atom id {raw!r}") from None
            return 200, self.service.atom_query(atom_id, snapshot=snapshot)
        raise QueryError(f"no such endpoint {path!r}", status=404)

    def _respond(self, request: _Request) -> Tuple[bytes, bool]:
        """Render one request into response bytes + keep-alive flag."""
        tracer = get_tracer()
        keep_alive = request.headers.get("connection", "").lower() != "close"
        with tracer.span(
            "serve-request", method=request.method, path=request.path
        ) as span:
            if tracer.enabled:
                tracer.count("serve.requests")
            cacheable = False
            try:
                if request.method != "GET":
                    status, payload = 405, {
                        "error": f"method {request.method} not allowed"
                    }
                else:
                    status, payload = self._route(request)
                    cacheable = request.path != "/healthz"
            except QueryError as error:
                status, payload = error.status, {"error": str(error)}
            except StoreError as error:
                status, payload = 500, {"error": f"store error: {error}"}
                if tracer.enabled:
                    tracer.count("serve.store_errors")
            body = encode_body(payload)
            headers = [
                ("Server", SERVER_NAME),
                ("Content-Type", "application/json"),
                ("X-Store-Version", self.service.version),
            ]
            if status == 200 and cacheable:
                etag = etag_for(self.service.version, body)
                if self._etag_matches(request, etag):
                    status = 200  # for the span attr below
                    if tracer.enabled:
                        tracer.count("serve.responses_304")
                    response = self._frame(
                        304, headers + [("ETag", etag)], b"", keep_alive
                    )
                    span.set(status=304)
                    return response, keep_alive
                headers.append(("ETag", etag))
            if status >= 400 and tracer.enabled:
                tracer.count("serve.errors")
            span.set(status=status)
            return self._frame(status, headers, body, keep_alive), keep_alive

    @staticmethod
    def _etag_matches(request: _Request, etag: str) -> bool:
        raw = request.headers.get("if-none-match")
        if raw is None:
            return False
        candidates = {item.strip() for item in raw.split(",")}
        return etag in candidates or "*" in candidates

    @staticmethod
    def _frame(status, headers, body: bytes, keep_alive: bool) -> bytes:
        lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        if status != 304:
            lines.append(f"Content-Length: {len(body)}")
        lines.append(
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
        )
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head if status == 304 else head + body
