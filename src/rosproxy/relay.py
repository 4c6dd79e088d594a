"""Byte-transparent TCP relaying.

A relay listens on a leased port and, per accepted connection, dials a
fixed target and pumps bytes both ways until both directions reach EOF.
It never inspects payloads: the wire protocols it carries put all
routing information in out-of-band registration calls, so copying bytes
verbatim is sufficient (and keeps the relay oblivious to protocol
versions).

Half-closes are propagated: when one side sends EOF the relay forwards
the EOF (write_eof) and keeps the opposite direction flowing, which is
what request/response protocols over raw TCP expect.

Closing a relay closes its port like every port (http11.close_server):
its connections, and the ones they dialed, are aborted, not drained.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Optional

from .http11 import Dialer, close_server, connection_tasks, hang_up, listen
from .ports import PortLease

log = logging.getLogger(__name__)

COPY_CHUNK = 64 * 1024


@dataclass
class RelayHandle:
    """A live relay: listener plus connection bookkeeping."""

    lease: PortLease
    bind_host: str
    target_host: str
    target_port: int
    server: asyncio.AbstractServer = field(repr=False, default=None)
    accepted_total: int = 0
    bytes_in: int = 0   # client -> target
    bytes_out: int = 0  # target -> client

    @property
    def port(self) -> int:
        return self.lease.port

    def connection_count(self) -> int:
        return len(connection_tasks[self.server])


async def _pump(reader, writer, handle: RelayHandle, inbound: bool) -> None:
    """Copy reader -> writer until EOF, then forward the EOF."""
    while True:
        chunk = await reader.read(COPY_CHUNK)
        if not chunk:
            break
        if inbound:
            handle.bytes_in += len(chunk)
        else:
            handle.bytes_out += len(chunk)
        writer.write(chunk)
        await writer.drain()
    try:
        if writer.can_write_eof():
            writer.write_eof()
    except (ConnectionError, OSError, RuntimeError):
        pass  # peer already gone; EOF is moot


async def _serve_connection(
    client_reader, client_writer, handle: RelayHandle, dial: Optional[Dialer]
) -> None:
    handle.accepted_total += 1
    try:
        target_reader, target_writer = await (dial or asyncio.open_connection)(
            handle.target_host, handle.target_port
        )
    except (ConnectionError, OSError) as exc:
        # Target gone: the honest translation is to hang up promptly.
        log.debug("relay :%d target %s:%d refused: %s",
                  handle.port, handle.target_host, handle.target_port, exc)
        await hang_up(client_writer)
        return
    # the dialed connection ends with this task, as listen ends the accepted one
    asyncio.current_task().add_done_callback(lambda _: target_writer.transport.abort())
    try:
        await asyncio.gather(
            _pump(client_reader, target_writer, handle, inbound=True),
            _pump(target_reader, client_writer, handle, inbound=False),
        )
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        # One leg broke: abort both so neither peer waits on a dead pipe.
        return
    await hang_up(client_writer, target_writer)


async def open_relay(
    lease: PortLease,
    bind_host: str,
    target_host: str,
    target_port: int,
    *,
    dial: Optional[Dialer] = None,
) -> RelayHandle:
    """Start listening on the leased port, relaying to target_host:port."""
    handle = RelayHandle(
        lease=lease,
        bind_host=bind_host,
        target_host=target_host,
        target_port=target_port,
    )

    handle.server = await listen(
        bind_host, lease.port,
        lambda reader, writer: _serve_connection(reader, writer, handle, dial),
    )
    log.debug("relay up: %s:%d -> %s:%d", bind_host, lease.port, target_host, target_port)
    return handle


async def close_relay(handle: RelayHandle) -> None:
    """Stop accepting and abort in-flight connections; idempotent."""
    await close_server(handle.server)
    log.debug("relay down: %s:%d", handle.bind_host, handle.port)
