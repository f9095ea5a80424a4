"""Fixed jobs that measure how fast the host is running right now.

``run.py`` runs one of these between the measured operations of every
workload and divides each operation's time by the mean time of the two
calibration runs around it.  The host this benchmark was built on swings
by up to 2x in speed within a minute (other tenants share its cores);
both sides of the ratio see the same swing, so it cancels.

The jobs import nothing from ``repro``, so no change to the program can
change them.  There is one per kind of workload, because the host's
swings hit CPU-bound work and socket round trips between two processes
differently:

- ``calibration.py pipeline`` mixes what the pipelines spend their time
  on: interpreter start-up and the numpy import, dict and list work,
  float formatting and parsing through ``csv``, JSON, and numpy sorts;
- ``calibration.py serve`` mimics ``serve_replay``: a forked asyncio
  server on loopback TCP answers small JSON requests, closed-loop, over
  two connections from one asyncio client, so it waits on the same
  socket wake-ups between two processes as the replay does.
"""

import asyncio
import csv
import io
import json
import os
import random
import signal
import socket
import sys

#: serve job: closed-loop requests per connection, and the connections.
EXCHANGES = 2500
CONNECTIONS = 2


def pipeline() -> None:
    import numpy as np

    rng = random.Random(7)
    rows = [
        (f"p{i % 35:02d}", i, rng.random() * 100, rng.random(), rng.random() * 0.2)
        for i in range(60_000)
    ]
    text = io.StringIO()
    writer = csv.writer(text)
    for path, epoch, rate, rtt, loss in rows:
        writer.writerow([path, epoch, repr(rate), repr(rtt), repr(loss)])
    by_path: dict[str, list[float]] = {}
    for path, _, rate, rtt, _ in csv.reader(io.StringIO(text.getvalue())):
        by_path.setdefault(path, []).append(float(rate) / (float(rtt) + 1e-9))
    values = np.array([row[2] for row in rows])
    for _ in range(40):
        ordered = np.sort(values)
        (np.cumsum(ordered) / np.arange(1, ordered.size + 1)).sum()
    json.dumps({path: sum(v) for path, v in by_path.items()})


async def _answer(reader, writer, state: dict) -> None:
    """Keep a moving average per key; reply with it, one JSON line per request."""
    while line := await reader.readline():
        request = json.loads(line)
        history = state.setdefault(request["key"], [])
        history.append(request["sample"])
        window = history[-10:]
        reply = {"key": request["key"], "last": window[-1], "ma": sum(window) / len(window)}
        writer.write(json.dumps(reply).encode() + b"\n")
    writer.close()
    state["closed"] = state.get("closed", 0) + 1


def _server(listener: socket.socket) -> None:
    async def main() -> None:
        state: dict = {}
        server = await asyncio.start_server(lambda r, w: _answer(r, w, state), sock=listener)
        async with server:
            while state.get("closed", 0) < CONNECTIONS:
                await asyncio.sleep(0.005)

    asyncio.run(main())


async def _client(port: int, conn: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    rng = random.Random(conn)
    for i in range(EXCHANGES):
        request = {"key": f"c{conn}-k{i % 50}", "sample": rng.random() * 100}
        writer.write(json.dumps(request).encode() + b"\n")
        json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()


def serve() -> None:
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]
    pid = os.fork()
    if pid == 0:
        try:
            _server(listener)
        finally:
            os._exit(0)
    listener.close()

    async def clients() -> None:
        await asyncio.gather(*(_client(port, c) for c in range(CONNECTIONS)))

    try:
        asyncio.run(clients())
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


JOBS = {"pipeline": pipeline, "serve": serve}

if __name__ == "__main__":
    JOBS[sys.argv[1]]()
