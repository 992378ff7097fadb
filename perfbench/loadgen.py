"""Open- and closed-loop HTTP/1.1 load generator: one process, few sockets.

The generator drives the gateway from outside the server's interpreter,
so client cost and server cost are never mixed. It opens at most
``connections`` keep-alive sockets (the benchmark passes ``nproc``) and
sends only the request bodies it was handed; nothing else reaches the
program under test.

* **Open loop** (:func:`open_loop`): request *i* is due at ``due[i]``
  seconds after the phase starts, whatever the server is doing. Latency
  is timed from the due time, so a stall that delays later requests is
  charged to them. ``late`` records how far behind schedule the
  generator itself handed each request to a socket worker; a window whose
  generator ran late is not a valid measurement (see :func:`summarize`).
* **Closed loop** (:func:`closed_loop`): every connection sends its next
  request as soon as the previous reply arrives, until all are sent.

Every exchange yields one :class:`Sample`. ``rid`` is sent as the
``X-Bench-Rid`` header, which the gateway ignores and the traced server
launcher uses to join server spans to client spans.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from dataclasses import dataclass

__all__ = [
    "Sample",
    "http_request",
    "open_loop",
    "closed_loop",
    "poisson_due_times",
    "tail_percentile",
    "windowed_tail",
    "summarize",
    "completion_rate",
    "better_quartile",
    "LATE_SHARE_LIMIT",
]

#: An open-loop phase is cut into an odd number, up to ``TAIL_WINDOWS``, of
#: consecutive windows of at least ``TAIL_WINDOW_MIN`` samples; its tail
#: latency is the median of the windows' tails, so one host stall moves
#: one window.
TAIL_WINDOWS = 5
TAIL_WINDOW_MIN = 200

#: A window of a phase is invalid when the generator's tail lateness (the
#: highest percentile with ten samples beyond it, at most p99) exceeds
#: this share of the window's median latency: the schedule, not the
#: server, would then be setting the numbers.
LATE_SHARE_LIMIT = 1.0

RID_HEADER = "X-Bench-Rid"


@dataclass
class Sample:
    """One request/reply exchange (all instants on ``time.perf_counter``)."""

    rid: int
    due: float  # scheduled send instant (closed loop: the send instant)
    sent: float
    first: float  # the reply's status line arrived
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200


def http_request(path: str, body: bytes, rid: int) -> bytes:
    """The exact bytes of one keep-alive POST."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{RID_HEADER}: {rid}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _exchange(reader, writer, payload: bytes) -> tuple[int, bytes, float]:
    """Send one request; returns status, body and the status line's arrival."""
    writer.write(payload)
    status_line = await reader.readline()
    first = time.perf_counter()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length), first


async def _connect(host: str, port: int, count: int):
    return [await asyncio.open_connection(host, port) for _ in range(count)]


async def _close(connections) -> None:
    for _reader, writer in connections:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _open_loop(host, port, requests, due, connections):
    """``requests[i]`` is ``(rid, payload bytes)``; returns samples and
    the generator's per-request lateness, both in request order."""
    conns = await _connect(host, port, connections)
    queue: asyncio.Queue = asyncio.Queue()
    samples: list = [None] * len(requests)
    late: list = [0.0] * len(requests)

    async def worker(reader, writer):
        while True:
            i = await queue.get()
            if i is None:
                return
            rid, payload = requests[i]
            sent = time.perf_counter()
            try:
                status, body, first = await _exchange(reader, writer, payload)
            except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                status, body, first = 0, b"", time.perf_counter()
            samples[i] = Sample(rid, start + due[i], sent, first, time.perf_counter(), status, body)

    start = time.perf_counter() + 0.01
    workers = [asyncio.create_task(worker(r, w)) for r, w in conns]
    for i, offset in enumerate(due):
        wait = start + offset - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        late[i] = max(0.0, time.perf_counter() - (start + offset))
        queue.put_nowait(i)
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    await _close(conns)
    return samples, late


def open_loop(host, port, requests, due, connections):
    """Send ``requests`` at the ``due`` offsets (seconds from phase start)."""
    return asyncio.run(_open_loop(host, port, requests, due, connections))


async def _closed_loop(host, port, requests, connections):
    conns = await _connect(host, port, connections)
    samples: list = []
    feed = iter(requests)

    async def worker(reader, writer):
        for rid, payload in feed:
            sent = time.perf_counter()
            try:
                status, body, first = await _exchange(reader, writer, payload)
            except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                status, body, first = 0, b"", time.perf_counter()
            samples.append(Sample(rid, sent, sent, first, time.perf_counter(), status, body))

    await asyncio.gather(*(worker(r, w) for r, w in conns))
    await _close(conns)
    samples.sort(key=lambda s: s.rid)
    return samples


def closed_loop(host, port, requests, connections):
    """Send every request, keeping ``connections`` in flight; returns the
    samples in request order."""
    return asyncio.run(_closed_loop(host, port, requests, connections))


def poisson_due_times(rng, rate: float, seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate``/s over ``seconds``."""
    due, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= seconds:
            return due
        due.append(t)


def tail_percentile(values) -> tuple[float, float]:
    """``(q, value)``: the highest percentile with at least ten samples
    beyond it (nearest rank), capped at p99."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    q = min(0.99, max(0.0, 1.0 - 10.0 / n))
    return q, ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]


def windowed_tail(values) -> tuple[float, float]:
    """``(q, value)``: medians over consecutive windows of ``values`` (up to
    ``TAIL_WINDOWS``, each of at least ``TAIL_WINDOW_MIN`` values) of each
    window's :func:`tail_percentile`."""
    windows = max(1, min(TAIL_WINDOWS, len(values) // TAIL_WINDOW_MIN))
    windows -= 1 - windows % 2  # odd, so the median is one window's tail
    size = -(-len(values) // windows)
    tails = [tail_percentile(values[k:k + size]) for k in range(0, len(values), size)]
    return statistics.median(t[0] for t in tails), statistics.median(t[1] for t in tails)


def summarize(samples, late=None) -> dict:
    """Latency summary of one window or phase (milliseconds), with its
    validity.

    A failed exchange counts as failed and is left out of the latency
    percentiles; the caller counts failures against attempts.
    """
    good = [s.latency * 1e3 for s in samples if s.ok]
    summary = {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s.ok),
        "samples": len(good),
    }
    if good:
        q, pooled = tail_percentile(good)
        tail_q, tail = windowed_tail(good)
        summary.update(
            p50_ms=statistics.median(good),
            tail_q=tail_q,
            tail_ms=tail,
            pooled_q=q,
            pooled_tail_ms=pooled,
            mean_ms=sum(good) / len(good),
            service_mean_ms=1e3 * sum(s.done - s.sent for s in samples if s.ok) / len(good),
        )
    if late is not None and late:
        _, late_tail = windowed_tail([x * 1e3 for x in late])
        summary["late_p99_ms"] = late_tail
        summary["valid"] = bool(good) and late_tail <= LATE_SHARE_LIMIT * summary["p50_ms"]
    return summary


def completion_rate(samples) -> float:
    """Completed (successful) replies per second of a closed-loop window,
    from its first send to its last reply."""
    span = max(s.done for s in samples) - min(s.sent for s in samples)
    return sum(1 for s in samples if s.ok) / span


def better_quartile(values, better: str) -> float:
    """The quartile of per-window figures on the better side: the lower
    quartile when lower is better (latencies), the upper one otherwise
    (rates). Windows that a slow phase of the host hit are left out as
    long as they are fewer than three in four, while a change to the
    program moves every window."""
    if len(values) == 1:
        return values[0]
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return lower if better == "lower" else upper
