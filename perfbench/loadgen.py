"""Open-loop HTTP load generator for the ``store-serve`` workload.

Requests are due on a fixed schedule (``i / rate`` after the start of
a rung) whatever the server does, so a stall shows up as latency of
every request behind it: each request is timed from when it was *due*,
not from when a connection got round to sending it.  At most
``connections`` keep-alive connections carry the load, one request in
flight per connection (no pipelining).

The generator is one thread around ``select`` (whose timeout, unlike
epoll's, is not rounded up to whole milliseconds).  Its own lateness,
wake-up instant minus due instant, is recorded per request; a rung
whose generator fell behind is marked invalid rather than blamed on
the server.
"""

from __future__ import annotations

import bisect
import collections
import http.client
import math
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

clock = time.perf_counter

#: A request unanswered for this long counts as failed.
REQUEST_TIMEOUT_S = 2.0
#: Dispatch lateness (p99) beyond which a rung's figures are invalid.
MAX_GENERATOR_LATENESS_MS = 5.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


class ZipfTargets:
    """Request paths drawn Zipf(s) over a seeded ranking of all pairs."""

    def __init__(self, pairs: Sequence[Tuple[str, str]], seed: int, s: float = 1.0):
        rng = random.Random(seed)
        ranked = list(pairs)
        rng.shuffle(ranked)
        self.pairs = ranked
        self.paths = [
            f"/v1/prefix/{prefix}?snapshot={quote(key, safe='')}"
            for prefix, key in ranked
        ]
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(1, len(ranked) + 1):
            total += rank ** -s
            self._cumulative.append(total)
        self._total = total
        self._rng = rng

    def draw(self, count: int) -> List[int]:
        """Indices of ``count`` targets (into :attr:`paths`)."""
        cumulative, total, rng = self._cumulative, self._total, self._rng
        last = len(cumulative) - 1
        return [
            min(bisect.bisect_left(cumulative, rng.random() * total), last)
            for _ in range(count)
        ]


@dataclass
class Rung:
    """What one fixed-rate stretch of the schedule measured."""

    #: offered requests/s (None: closed loop)
    rate: Optional[float]
    seconds: float
    #: first due instant to last answer
    elapsed_s: float = 0.0
    sent: int = 0
    ok: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    #: requests due but not yet answered when the schedule ended
    backlog_end: int = 0
    #: (target, body) of the first ``keep_bodies`` requests
    bodies: Dict[int, Tuple[int, bytes]] = field(default_factory=dict)

    @property
    def generator_late(self) -> bool:
        return bool(self.lateness_ms) and (
            percentile(self.lateness_ms, 0.99) > MAX_GENERATOR_LATENESS_MS
        )

    @property
    def throughput(self) -> float:
        """Answered requests per second over the rung."""
        return self.ok / self.elapsed_s

    def sustained(self, limit_ms: float) -> bool:
        """p99 within ``limit_ms``, no failures, no growing backlog."""
        return (
            not self.failed
            and percentile(self.latencies_ms, 0.99) <= limit_ms
            and self.backlog_end <= 2 + self.rate * limit_ms / 1000.0
        )


def _response_length(buffer: bytes) -> Optional[Tuple[int, int]]:
    """(status, total length) once ``buffer`` holds the whole header."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buffer[:end].split(b"\r\n")
    status = int(head[0].split()[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, end + 4 + length


class _Connection:
    """One keep-alive connection; answers arrive in request order."""

    def __init__(self, host: str, port: int, selector: selectors.BaseSelector):
        self.address = (host, port)
        self.selector = selector
        self.sock: Optional[socket.socket] = None
        #: requests sent and not yet answered: (index, due, target)
        self.inflight: collections.deque = collections.deque()
        self.buffer = b""

    def send(self, request: Tuple[int, float, int], payload: bytes) -> None:
        if self.sock is None:
            self.sock = socket.create_connection(self.address)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.selector.register(self.sock, selectors.EVENT_READ, self)
        self.inflight.append(request)
        self.sock.sendall(payload)

    def close(self) -> int:
        """Drop the socket; the number of requests left unanswered."""
        lost = len(self.inflight)
        if self.sock is not None:
            self.selector.unregister(self.sock)
            self.sock.close()
            self.sock = None
        self.inflight.clear()
        self.buffer = b""
        return lost


def run_rung(host: str, port: int, targets: ZipfTargets, rate: Optional[float],
             seconds: float, connections: int = 2, keep_bodies: int = 0,
             depth: int = 1) -> Rung:
    """Send ``rate * seconds`` requests on schedule; wait for every answer.

    With ``rate=None`` the loop is closed instead: each connection keeps
    ``depth`` requests in flight (HTTP/1.1 pipelining when above 1),
    sending the next as soon as an answer arrives, until ``seconds``
    have passed; that measures the server's saturation throughput
    without depending on how promptly this process is scheduled.
    """
    rung = Rung(rate=rate, seconds=seconds)
    count = None if rate is None else max(1, int(rate * seconds))
    draws = targets.draw(count if count is not None else 1)
    selector = selectors.SelectSelector()
    pool = [_Connection(host, port, selector) for _ in range(connections)]
    waiting: collections.deque = collections.deque()
    # an open schedule starts a moment ahead, so the first request is
    # not already late when the loop first looks at the clock
    start = clock() + (0.0 if count is None else 0.005)
    deadline = start + seconds
    backlog_taken = False
    next_index = 0
    try:
        while True:
            now = clock()
            if count is None:
                free = sum(depth - len(c.inflight) for c in pool) - len(waiting)
                while free > 0 and now < deadline:
                    waiting.append((next_index, now, targets.draw(1)[0]))
                    next_index += 1
                    rung.sent += 1
                    free -= 1
                schedule_open = now < deadline
            else:
                while next_index < count and start + next_index / rate <= now:
                    due = start + next_index / rate
                    rung.lateness_ms.append((now - due) * 1000.0)
                    waiting.append((next_index, due, draws[next_index]))
                    next_index += 1
                    rung.sent += 1
                if not backlog_taken and next_index == count:
                    rung.backlog_end = rung.sent - rung.ok - rung.failed
                    backlog_taken = True
                schedule_open = next_index < count
            if not schedule_open and not waiting and not any(c.inflight for c in pool):
                break
            for connection in pool:
                while waiting and len(connection.inflight) < depth:
                    request = waiting.popleft()
                    path = targets.paths[request[2]]
                    try:
                        connection.send(
                            request,
                            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode(),
                        )
                    except OSError:
                        rung.failed += connection.close()
            timeout = REQUEST_TIMEOUT_S
            if count is None:
                timeout = max(0.0, min(timeout, deadline - clock()))
            elif next_index < count:
                timeout = max(0.0, start + next_index / rate - clock())
            for key, _ in selector.select(timeout):
                connection = key.data
                try:
                    chunk = connection.sock.recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:
                    rung.failed += connection.close()
                    continue
                connection.buffer += chunk
                while connection.inflight:
                    parsed = _response_length(connection.buffer)
                    if parsed is None or len(connection.buffer) < parsed[1]:
                        break
                    index, due, target = connection.inflight.popleft()
                    rung.latencies_ms.append((clock() - due) * 1000.0)
                    if parsed[0] == 200:
                        rung.ok += 1
                    else:
                        rung.failed += 1
                    if index < keep_bodies:
                        header_end = connection.buffer.find(b"\r\n\r\n") + 4
                        rung.bodies[index] = (target, connection.buffer[header_end:parsed[1]])
                    connection.buffer = connection.buffer[parsed[1]:]
            now = clock()
            for connection in pool:
                if connection.inflight and now - connection.inflight[0][1] > REQUEST_TIMEOUT_S:
                    rung.failed += connection.close()
        rung.elapsed_s = clock() - start
    finally:
        for connection in pool:
            connection.close()
        selector.close()
    return rung


def fetch(host: str, port: int, path: str) -> Tuple[int, bytes]:
    """One GET on its own connection (``/healthz`` and the like)."""
    connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()
