"""The HTTP load generator: a fixed open-loop schedule and a closed loop.

Open loop: every request's due time is fixed before the run starts
(seeded Poisson arrivals per tenant).  A request is timed from its due
time, so a stalled generator or a wait for one of the ``max_conns``
connection slots shows in its latency; nothing is rescheduled after a
stall.  ``lateness`` is how far behind its due time the generator woke
up to send a request.

Closed loop: ``clients`` coroutines each send their next request as
soon as the previous answer arrives (after ``between()``, if given),
drawing from one fixed sequence.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Request:
    #: seconds after the phase start (0 for closed-loop requests)
    due: float
    tenant: str
    body: bytes


@dataclass
class Reply:
    request: Request
    status: int | None
    payload: dict | None
    error: str | None
    #: from the due time (open loop) or the send (closed loop) to the
    #: last byte of the answer
    latency_ms: float
    #: generator wake-up minus due time
    lateness_ms: float
    #: connect to last byte, as the client saw it
    client_ms: float

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None


def poisson_arrivals(rng: np.random.Generator, rate: float,
                     duration: float) -> list[float]:
    """Arrival times in ``[0, duration)`` of a rate-``rate`` Poisson process."""
    times, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return times
        times.append(t)


async def http_post(host: str, port: int, path: str, body: bytes,
                    timeout: float) -> tuple[int, dict]:
    """One ``Connection: close`` HTTP/1.1 POST; returns (status, JSON)."""

    async def exchange():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                + body
            )
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    raw = await asyncio.wait_for(exchange(), timeout)
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else {}


async def _send(send, request: Request) -> tuple:
    """``(status, payload, error)`` of one exchange; never raises."""
    try:
        status, payload = await send(request)
    except asyncio.TimeoutError:
        return None, None, "timeout"
    except (OSError, ValueError, IndexError) as exc:
        return None, None, f"{type(exc).__name__}: {exc}"
    return status, payload, None


async def run_open_loop(schedule: list[Request], send, max_conns: int,
                        stall: tuple[float, float] | None = None
                        ) -> list[Reply]:
    """Send ``schedule`` on time over at most ``max_conns`` connections.

    ``send(request)`` is an async callable returning ``(status,
    payload)``.  ``stall=(at, seconds)`` blocks the event loop for
    ``seconds`` at ``at`` seconds into the phase — the generator
    stall the benchmark's own tests inject.
    """
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(max_conns)
    start = loop.time() + 0.05
    if stall is not None:
        loop.call_at(start + stall[0], time.sleep, stall[1])

    async def one(request: Request) -> Reply:
        due = start + request.due
        await asyncio.sleep(max(0.0, due - loop.time()))
        woke = loop.time()
        async with slots:
            sent = loop.time()
            status, payload, error = await _send(send, request)
            done = loop.time()
        return Reply(
            request, status, payload, error,
            latency_ms=(done - due) * 1000.0,
            lateness_ms=(woke - due) * 1000.0,
            client_ms=(done - sent) * 1000.0,
        )

    tasks = [asyncio.create_task(one(r)) for r in schedule]
    return list(await asyncio.gather(*tasks))


async def run_closed_loop(sequence: list[Request], send, clients: int,
                          duration: float, between=None) -> list[Reply]:
    """``clients`` back-to-back senders for ``duration`` seconds.

    Requests are taken from ``sequence`` in order; running out of it
    is an error (size the sequence for the fastest plausible server).
    """
    loop = asyncio.get_running_loop()
    end = loop.time() + duration
    taken = 0
    replies: list[Reply] = []

    async def client() -> None:
        nonlocal taken
        while loop.time() < end:
            if taken == len(sequence):
                raise RuntimeError("closed-loop request sequence exhausted")
            request = sequence[taken]
            taken += 1
            if between is not None:
                between()
            sent = loop.time()
            status, payload, error = await _send(send, request)
            elapsed = (loop.time() - sent) * 1000.0
            replies.append(Reply(
                request, status, payload, error,
                latency_ms=elapsed, lateness_ms=0.0, client_ms=elapsed,
            ))

    await asyncio.gather(*(client() for _ in range(clients)))
    return replies
