"""Byte-transparent TCP relaying.

A relay listens on a leased port and, per accepted connection, dials a
fixed target and copies bytes both ways until both directions reach EOF.
It never inspects payloads: the wire protocols it carries put all
routing information in out-of-band registration calls, so copying bytes
verbatim is sufficient (and keeps the relay oblivious to protocol
versions).

Once the target answers, the two sockets are joined by a pair of
asyncio protocols (_Leg), one per socket: what one reads is written
straight into the other's transport, with no task or stream buffer in
between. Half-closes are propagated: an EOF on one side becomes a
write_eof on the other while the opposite direction keeps flowing, which
is what request/response protocols over raw TCP expect. Backpressure is
the transports' own: when one side's write buffer fills, the other side
stops reading (pause_reading) until it drains, so a slow reader bounds
what the relay holds. After both EOFs both sockets close gracefully; a
socket lost before that aborts the other.

Closing a relay closes its port like every port (http11.close_server):
its connections, and the ones they dialed, are aborted, not drained.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field

from .http11 import BindHosts, Dialer, close_server, connection_tasks, hang_up, listen
from .ports import PortLease

log = logging.getLogger(__name__)


@dataclass
class RelayHandle:
    """A live relay: listener plus connection bookkeeping."""

    lease: PortLease
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


class _Leg(asyncio.Protocol):
    """One socket of a relayed connection. What it reads is counted and
    written to the peer leg's socket; its EOF becomes the peer's
    half-close; a full peer write buffer pauses reading here."""

    def __init__(self, transport, handle: RelayHandle, inbound: bool):
        self.transport = transport
        self.handle = handle
        self.inbound = inbound
        self.peer: _Leg = None
        self.eof = False
        self.lost = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        if self.inbound:
            self.handle.bytes_in += len(data)
        else:
            self.handle.bytes_out += len(data)
        self.peer.transport.write(data)

    def eof_received(self) -> bool:
        self.eof = True
        self.peer.transport.write_eof()
        if self.peer.eof:
            self.transport.close()
            self.peer.transport.close()
        return True  # keep the socket open for the other direction

    def pause_writing(self) -> None:
        self.peer.transport.pause_reading()

    def resume_writing(self) -> None:
        self.peer.transport.resume_reading()

    def connection_lost(self, exc) -> None:
        if not (self.eof and self.peer.eof):
            self.peer.transport.abort()  # one leg broke: neither peer waits on a dead pipe
        if not self.lost.done():
            self.lost.set_result(None)


async def _serve_connection(
    client_reader, client_writer, handle: RelayHandle, dial: Dialer
) -> None:
    handle.accepted_total += 1
    try:
        target_reader, target_writer = await dial(handle.target_host, handle.target_port)
    except (ConnectionError, OSError) as exc:
        # Target gone: the honest translation is to hang up promptly.
        log.debug("relay :%d target %s:%d refused: %s",
                  handle.port, handle.target_host, handle.target_port, exc)
        await hang_up(client_writer)
        return
    # the dialed connection ends with this task, as listen ends the accepted one
    asyncio.current_task().add_done_callback(lambda _: target_writer.transport.abort())
    if client_writer.transport.is_closing() or target_writer.transport.is_closing():
        return  # a peer is already gone
    client = _Leg(client_writer.transport, handle, inbound=True)
    target = _Leg(target_writer.transport, handle, inbound=False)
    client.peer, target.peer = target, client
    # The streams may hold bytes and an EOF that arrived before the dial
    # completed (a subscriber's header, say). StreamReader has no public
    # way to take them without waiting; _buffer and _eof mean the same on
    # every supported Python.
    for leg in (client, target):
        leg.transport.set_protocol(leg)
        leg.transport.resume_reading()
    try:
        for leg, reader in ((client, client_reader), (target, target_reader)):
            if reader._buffer:
                leg.data_received(bytes(reader._buffer))
                reader._buffer.clear()
            if reader._eof:
                leg.eof_received()
    except OSError:
        return  # write_eof found the peer gone; ending the task aborts both
    await asyncio.gather(client.lost, target.lost)


async def open_relay(
    lease: PortLease,
    bind_host: BindHosts,
    target_host: str,
    target_port: int,
    *,
    dial: Dialer = asyncio.open_connection,
) -> RelayHandle:
    """Start listening on the leased port, relaying to target_host:port."""
    handle = RelayHandle(lease=lease, target_host=target_host, target_port=target_port)
    handle.server = await listen(
        bind_host, lease.port,
        lambda reader, writer: _serve_connection(reader, writer, handle, dial),
    )
    log.debug("relay up: :%d -> %s:%d", lease.port, target_host, target_port)
    return handle


async def close_relay(handle: RelayHandle) -> None:
    """Stop accepting and abort in-flight connections; idempotent."""
    await close_server(handle.server)
    log.debug("relay down: :%d", handle.port)
