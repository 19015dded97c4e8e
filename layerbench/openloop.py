"""Due-time open-loop driver: one asyncio client, at most two connections.

Op *i* of a phase is due at ``t0 + offset[i]``; :func:`paced_offsets`
puts each op at a seeded random point of its own ``1/rate`` slot.  Its
latency is measured
from that due time to the arrival of its response, so a stall that delays
later sends is charged to every op it delayed.  ``repro loadgen`` is not
used for latency: it starts each op's clock at the actual send, after its
in-flight window wait, which hides exactly those stalls.  How late the
generator itself ran (send time minus due time) is reported separately;
a late generator voids the run.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter

from repro.service.protocol import MAX_LINE_BYTES, encode

#: seconds an op may stay unanswered after the last send before the run aborts
OP_TIMEOUT = 30.0

#: verdicts that are decisions, not failures
_DECISION_CODES = ("REJECTED", "NOT_FOUND")


class RunError(RuntimeError):
    """The run cannot produce a result (transport loss, timeout, bad boot)."""


def paced_offsets(rng: random.Random, rate: float, n: int) -> list[float]:
    """Send times (seconds from the phase start) of ``n`` ops paced at ``rate``.

    Op *i* goes at a uniform random point of ``[i/rate, (i+1)/rate)``.
    Poisson arrivals were tried first: on the reference trace, whose
    tail is a handful of 100+ ms decisions, the number of arrivals that
    queue behind each of them varies so much between seeds that the
    nominal-rate p99 ranged 160-287 ms over three seeds.  Jitter inside
    fixed slots keeps the seeded variation without that queueing lottery.
    """
    return [(i + rng.random()) / rate for i in range(n)]


def scrape_offsets(rng: random.Random, interval: float, end: float) -> list[float]:
    """Scrape times (seconds from the phase start) up to ``end``, every ``interval``.

    Like Prometheus, which gives each target a fixed offset inside the
    interval, the first scrape is at a seeded point of ``[0, interval)``.
    A phase of one interval thus holds one scrape.  ``interval`` 0 scrapes
    nothing.
    """
    if interval <= 0:
        return []
    offsets = []
    t = rng.random() * interval
    while t <= end:
        offsets.append(t)
        t += interval
    return offsets


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nhost: bench\r\n"
    if body:
        head += f"content-type: application/json\r\ncontent-length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def payloads(messages: list[dict], http: bool) -> list[bytes]:
    """The wire bytes of each op, built before the clock starts."""
    if not http:
        return [encode(m) for m in messages]
    return [
        http_request("POST", f"/v1/{m['op']}", json.dumps(m, separators=(",", ":")).encode())
        for m in messages
    ]


class Conn:
    """One pipelined connection: NDJSON lines, or HTTP/1.1 keep-alive exchanges."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, http: bool):
        self.reader, self.writer, self.http = reader, writer, http

    @classmethod
    async def open(cls, port: int, http: bool) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE_BYTES)
        return cls(reader, writer, http)

    async def recv(self) -> tuple[int, bytes]:
        """One response: (HTTP status, or 200 for NDJSON; body bytes)."""
        try:
            if not self.http:
                line = await self.reader.readline()
                if not line:
                    raise RunError("service closed the connection")
                return 200, line
            head = await self.reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ")[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            return status, await self.reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise RunError(f"connection lost: {exc}") from exc

    async def rpc(self, payload: bytes) -> tuple[int, bytes]:
        self.writer.write(payload)
        await self.writer.drain()
        return await self.recv()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def failed(status: int, body: dict) -> bool:
    """BUSY, 429, INTERNAL, any 5xx and malformed answers are failures."""
    if body.get("ok"):
        return status != 200
    code = (body.get("error") or {}).get("code")
    return code not in _DECISION_CODES


@dataclass
class Phase:
    """One open-loop phase at a fixed rate."""

    rate: float
    latency_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    #: ops sent but not yet answered, sampled at each send
    backlog: list[int] = field(default_factory=list)
    bodies: list[dict] = field(default_factory=list)
    #: indices of the ops whose answer was a failure (the op was not applied)
    failed_ops: list[int] = field(default_factory=list)
    failed: int = 0
    backlog_max: int = 0
    scrape_s: list[float] = field(default_factory=list)
    scrape_failed: int = 0
    seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.bodies) + len(self.scrape_s)

    def all_latency_s(self) -> list[float]:
        return self.latency_s + self.scrape_s


async def run_phase(
    conn: Conn,
    wire: list[bytes],
    offsets: list[float],
    rate: float,
    scrape_conn: Conn | None = None,
    scrapes: Sequence[float] = (),
) -> Phase:
    """Send ``wire[i]`` at ``offsets[i]`` on ``conn``; scrape /metrics at ``scrapes`` beside it.

    ``rate`` is the schedule's nominal rate, recorded with the phase.
    """
    n = len(wire)
    phase = Phase(rate=rate)
    loop_clock = perf_counter
    t0 = loop_clock() + 0.02
    due = [t0 + offset for offset in offsets]
    received = 0
    latency = [0.0] * n
    raw: list[bytes] = [b""] * n
    status = [0] * n

    async def sender() -> None:
        write = conn.writer.write
        for i in range(n):
            wait = due[i] - loop_clock()
            if wait > 0:
                await asyncio.sleep(wait)
            phase.late_s.append(loop_clock() - due[i])
            write(wire[i])
            phase.backlog.append(i + 1 - received)
            if i % 16 == 15:
                await conn.writer.drain()
        await conn.writer.drain()

    async def reader() -> None:
        nonlocal received
        for i in range(n):
            status[i], raw[i] = await conn.recv()
            latency[i] = loop_clock() - due[i]
            received += 1

    async def scraper() -> None:
        request = http_request("GET", "/metrics")
        for offset in scrapes:
            scrape_due = t0 + offset
            wait = scrape_due - loop_clock()
            if wait > 0:
                await asyncio.sleep(wait)
            code, body = await scrape_conn.rpc(request)
            phase.scrape_s.append(loop_clock() - scrape_due)
            if code != 200 or b"repro_gateway_requests_total" not in body:
                phase.scrape_failed += 1

    tasks = [asyncio.create_task(sender()), asyncio.create_task(reader())]
    if scrapes:
        tasks.append(asyncio.create_task(scraper()))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=offsets[-1] + OP_TIMEOUT)
    except asyncio.TimeoutError as exc:
        raise RunError(f"{n - received} of {n} ops unanswered {OP_TIMEOUT:g}s after the phase") from exc
    finally:
        for task in tasks:
            task.cancel()
    phase.seconds = loop_clock() - t0
    phase.latency_s = latency
    phase.backlog_max = max(phase.backlog, default=0)
    for i in range(n):
        body = json.loads(raw[i])
        phase.bodies.append(body)
        if failed(status[i], body):
            phase.failed_ops.append(i)
    phase.failed = len(phase.failed_ops) + phase.scrape_failed
    return phase
