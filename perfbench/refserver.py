"""The reference server: the gateway's serving skeleton without the program.

    python3 perfbench/refserver.py <log file>

It answers keep-alive ``POST`` requests the way the gateway does, minus
everything the program decides: it reads the request head and body,
parses the JSON body, queues it, and a flush that waits the gateway's
2 ms group-commit window appends every queued body to the log file,
fsyncs it once and replies to each request with a small JSON ``Ack``.
It prints ``[serving on http://HOST:PORT`` when ready, like ``repro
serve``. It imports nothing from the repository, so its speed is the
host's speed at this kind of work, whatever the program does; the
benchmark scales its HTTP figures by it (see :mod:`httpwork`).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

#: The gateway's default group-commit window (``repro serve --max-delay``).
MAX_DELAY = 0.002


async def serve(path: str) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    loop = asyncio.get_running_loop()
    queue: list = []
    flushing = None

    async def flush() -> None:
        nonlocal flushing
        await asyncio.sleep(MAX_DELAY)
        flushing = None
        batch = queue[:]
        queue.clear()
        os.write(fd, b"".join(body + b"\n" for body, _ in batch))
        os.fsync(fd)
        for body, reply in batch:
            reply.set_result(json.dumps({"kind": "Ack", "bytes": len(body)}).encode())

    async def session(reader, writer) -> None:
        nonlocal flushing
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                body = await reader.readexactly(length)
                json.loads(body)
                reply = loop.create_future()
                queue.append((body, reply))
                if flushing is None:
                    flushing = loop.create_task(flush())
                payload = await reply
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(payload) + payload
                )
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    server = await asyncio.start_server(session, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"[serving on http://{host}:{port}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
