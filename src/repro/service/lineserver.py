"""The line-JSON front end shared by a service node and the cluster router.

Both tiers speak one protocol: one JSON object per line in, one JSON
response line out, echoing the request's ``id``.  Each line is served by
its own task, so a long compute never blocks the next line on the same
connection.  ``{"op": "drain"}`` is answered here and stops the server.
The tiers differ only in their op tables.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import signal

from ..errors import ReproError

__all__ = ["DrainRequested", "handle_lines", "listen"]


class DrainRequested(Exception):
    """Control-flow marker: a client asked the server to drain."""


async def handle_lines(reader, writer, ops, unknown="unknown op"):
    """Serve one connection until EOF or a drain op.

    ``ops`` maps an op name to a callable taking the message and
    returning the response body, or an awaitable of it; a
    :class:`~repro.errors.ReproError` it raises becomes an error
    response.  Raises :class:`DrainRequested` after answering a drain op
    and finishing the connection's in-flight lines.
    """
    write_lock = asyncio.Lock()
    tasks = set()

    async def reply(message_id, body):
        body = dict(body)
        if message_id is not None:
            body["id"] = message_id
        data = (json.dumps(body, sort_keys=True) + "\n").encode()
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    async def dispatch(message):
        op = message.get("op", "submit")
        handler = ops.get(op)
        try:
            if handler is None:
                body = {
                    "status": "error", "error_message": f"{unknown} {op!r}",
                }
            else:
                body = handler(message)
                if inspect.isawaitable(body):
                    body = await body
        except ReproError as error:
            body = {
                "status": "error",
                "error_class": type(error).__name__,
                "error_message": str(error),
            }
        await reply(message.get("id"), body)

    drain_requested = False
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                message = json.loads(line)
            except ValueError:
                await reply(None, {
                    "status": "error", "error_message": "malformed JSON line",
                })
                continue
            if not isinstance(message, dict):
                await reply(None, {
                    "status": "error", "error_message": "expected an object",
                })
                continue
            if message.get("op") == "drain":
                drain_requested = True
                await reply(message.get("id"), {
                    "status": "ok", "draining": True,
                })
                break
            task = asyncio.ensure_future(dispatch(message))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        try:
            writer.close()
        except OSError:
            pass
    if drain_requested:
        raise DrainRequested()


async def listen(handle, host, port, ready_callback):
    """Serve ``handle(reader, writer)`` until SIGTERM/SIGINT or a drain op.

    ``ready_callback(host, port)`` fires once the socket is listening
    (``port=0`` picks a free port).  Returns what stopped the server:
    the signal's name or ``"drain-op"``.  The caller drains its own tier.
    """
    stop = asyncio.get_event_loop().create_future()

    def request_stop(origin):
        if not stop.done():
            stop.set_result(origin)

    async def handler(reader, writer):
        try:
            await handle(reader, writer)
        except DrainRequested:
            request_stop("drain-op")

    server = await asyncio.start_server(handler, host=host, port=port)
    bound = server.sockets[0].getsockname()
    if ready_callback is not None:
        ready_callback(bound[0], bound[1])

    loop = asyncio.get_event_loop()
    registered = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, request_stop, sig.name)
            registered.append(sig)
        except (NotImplementedError, ValueError):
            pass
    try:
        return await stop
    finally:
        for sig in registered:
            loop.remove_signal_handler(sig)
        server.close()
        await server.wait_closed()
