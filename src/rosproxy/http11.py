"""Minimal HTTP/1.1 plumbing for XML-RPC over asyncio streams.

Servers accept POST bodies only (any request path; routing is the
caller's concern) and keep connections alive per HTTP/1.1 defaults.
A client call dials its own connection and closes it afterwards, unless
it is given a ConnectionPool: then it reuses an idle kept-alive
connection to the same host and port, and hands its own back after a
complete HTTP/1.1 answer that lets it stay open. Servers require
Content-Length; clients read a response without one to EOF. Neither
side takes a body over MAX_MESSAGE_BYTES.
Chunked transfer is out of scope for ROS peers.

Each head, request or response, is read with one readuntil up to its
blank line, so its lines must end in CRLF (RFC 9112 section 2.2); a
head of bare-LF lines is never seen to end. A head longer than the
stream's limit (64 KiB) or with more than MAX_HEADER_COUNT header lines
drops the connection.

A served connection that holds part of a request at two checks
REQUEST_DEADLINE seconds apart, with no request answered between them,
is aborted: a request that has begun to arrive has one to two deadlines
to finish. One timer per connection makes the checks. An idle
kept-alive connection holds nothing, so it stays open.

A client call has one deadline for its whole round trip. Only a fresh
dial is awaited under asyncio.wait_for; an idle pooled connection is
taken without awaiting. From there a timer aborts the connection at the
deadline, and the call fails as a timeout whatever its read returned.
A call over a pooled connection makes no task.

Every listener is built by listen and closed by close_server: closing a
port aborts its connections instead of waiting on their peers, also one
accepted as the port closed. abort_connections aborts them and leaves
the port open. The proxy looks its bind host up once (bind_addresses)
and hands every listen the numeric addresses, which asyncio binds
without a resolver thread.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import socket
import weakref
from typing import Awaitable, Callable, Optional, Sequence, Union
from urllib.parse import urlsplit

from .xmlrpc_codec import (
    FAULT_APP,
    FAULT_TRANSPORT,
    MAX_MESSAGE_BYTES,
    CodecError,
    MethodCall,
    MethodFault,
    MethodResponse,
    encode_call,
    encode_response,
    parse_call,
    parse_response,
)

log = logging.getLogger(__name__)

MAX_HEADER_COUNT = 100
REQUEST_DEADLINE = 10.0  # seconds a served connection may hold part of a request
IDLE_PER_TARGET = 4  # idle kept-alive client connections kept per (host, port)
IDLE_TOTAL = 64  # ... and over all targets

# async (host, port) -> (reader, writer); override point for dial recording
Dialer = Callable[[str, int], Awaitable[tuple]]
# what a listener binds: one host, or a list of them (see bind_addresses)
BindHosts = Union[str, Sequence[str]]


class BindFailed(Exception):
    """A listener could not bind its port (occupied outside our control),
    or its host does not resolve."""


connection_tasks = weakref.WeakKeyDictionary()  # listener -> its handler tasks


def bind_addresses(host: str) -> list:
    """The numeric addresses a listener on host ("" for every interface)
    binds, in order and without repeats: the passive lookup asyncio makes
    for a host it cannot read as an address. Raises BindFailed if host
    does not resolve."""
    try:
        infos = socket.getaddrinfo(host or None, 0, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE)
    except OSError as exc:
        raise BindFailed("cannot resolve bind host %r: %s" % (host, exc)) from exc
    return list(dict.fromkeys(info[4][0] for info in infos))


async def listen(host: BindHosts, port: int, on_connection) -> asyncio.AbstractServer:
    """Serve each connection with a task running on_connection(reader,
    writer). The connection is aborted when its task ends, so a handler
    whose peer must get the last bytes awaits hang_up first. host is one
    host or a list of them; numeric ones (see bind_addresses) bind with
    no lookup, while a name or "" costs a getaddrinfo in the loop's
    executor on every call. Raises BindFailed if the port cannot be
    bound."""
    tasks = set()
    server = None  # accept can run before start_server returns

    def accept(reader, writer):
        if server is not None and not server.is_serving():
            writer.transport.abort()  # accepted just before the port closed
            return
        task = asyncio.ensure_future(on_connection(reader, writer))
        tasks.add(task)
        task.add_done_callback(lambda _: (tasks.discard(task), writer.transport.abort()))

    try:
        server = await asyncio.start_server(accept, host or None, port)
    except OSError as exc:
        where = host if isinstance(host, str) else " ".join(host)
        raise BindFailed("cannot bind port %d on %s: %s" % (port, where or "*", exc)) from exc
    connection_tasks[server] = tasks
    return server


async def abort_connections(server: asyncio.AbstractServer) -> None:
    """Cancel and await the handler of every connection server has now,
    which aborts the connection; the port keeps accepting."""
    tasks = list(connection_tasks.get(server, ()))
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


async def close_server(server: asyncio.AbstractServer) -> None:
    """Stop accepting, then abort every connection.

    asyncio builds an accepted socket's transport one loop turn after the
    accept, and a transport built after close fails and holds its socket
    until garbage collection. So the port stops accepting one turn before
    it closes. A connection whose transport is built by then but reaches
    listen's accept only after close is aborted there."""
    for sock in server.sockets:
        asyncio.get_running_loop().remove_reader(sock.fileno())
    await asyncio.sleep(0)
    server.close()
    await abort_connections(server)
    await server.wait_closed()


async def hang_up(*writers) -> None:
    """Close the connections, so their peers get the bytes still buffered,
    and wait until they are closed."""
    for writer in writers:
        writer.close()
    for writer in writers:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class RpcTransportError(Exception):
    """The HTTP round trip itself failed (connect, timeout, bad status)."""


@functools.lru_cache(maxsize=1024)  # each forward resolves its node's or the master's URI
def split_http_uri(uri: str) -> tuple:
    """Return (host, port, path) of an http URI; raise ValueError otherwise."""
    parts = urlsplit(uri)
    if parts.scheme != "http" or not parts.hostname:
        raise ValueError("not an http URI: %r" % uri)
    return parts.hostname, parts.port or 80, parts.path or "/"


def split_rosrpc_uri(uri: str) -> tuple:
    """Return (host, port) of a rosrpc URI; raise ValueError otherwise."""
    parts = urlsplit(uri)
    if parts.scheme != "rosrpc" or not parts.hostname or parts.port is None:
        raise ValueError("not a rosrpc://host:port URI: %r" % uri)
    return parts.hostname, parts.port


async def _read_head(reader) -> tuple:
    """Read an HTTP head through its blank line; return its start line and
    its headers, names lowercased. Raises IncompleteReadError at EOF,
    LimitOverrunError past the reader's limit and ValueError on a
    malformed head."""
    lines = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")[:-2]
    if len(lines) > MAX_HEADER_COUNT + 1:
        raise ValueError("too many headers")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError("malformed header line")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers


def _http_response(status: int, body: bytes, keep_alive: bool) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 405: "Method Not Allowed",
               411: "Length Required", 413: "Payload Too Large",
               500: "Internal Server Error"}
    head = (
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: text/xml\r\n"
        "Content-Length: %d\r\n"
        "Connection: %s\r\n"
        "\r\n" % (status, reasons.get(status, "Error"), len(body),
                  "keep-alive" if keep_alive else "close")
    )
    return head.encode("latin-1") + body


async def serve_http(
    host: BindHosts,
    port: int,
    handler: Callable[[str, bytes, tuple], Awaitable[tuple]],
) -> asyncio.AbstractServer:
    """Serve POST requests; handler(path, body, peer) returns (status, body).

    Raises BindFailed if the port cannot be bound.
    """

    async def on_connection(reader, writer):
        peer = writer.get_extra_info("peername") or ("?", 0)
        loop = asyncio.get_running_loop()
        answered = 0
        mark = None  # answered at the last check, if bytes were waiting then

        def check():
            nonlocal mark, timer
            if reader._buffer and mark == answered:
                writer.transport.abort()  # the pending read ends at EOF
                return
            mark = answered if reader._buffer else None
            timer = loop.call_later(REQUEST_DEADLINE, check)

        timer = loop.call_later(REQUEST_DEADLINE, check)
        try:
            while True:
                request, headers = await _read_head(reader)
                try:
                    method, path, version = request.split()
                except ValueError:
                    writer.write(_http_response(400, b"", False))
                    break
                keep_alive = (
                    version.upper() != "HTTP/1.0"
                    and headers.get("connection", "").lower() != "close"
                )
                if method.upper() != "POST":
                    status, payload = 405, b""
                else:
                    length_text = headers.get("content-length")
                    if length_text is None or not length_text.isdigit():
                        writer.write(_http_response(411, b"", False))
                        break
                    length = int(length_text)
                    if length > MAX_MESSAGE_BYTES:
                        writer.write(_http_response(413, b"", False))
                        break
                    body = await reader.readexactly(length) if length else b""
                    try:
                        status, payload = await handler(path, body, peer)
                    except Exception:
                        log.exception("unhandled error in HTTP handler for %s", path)
                        status, payload = 500, b""
                writer.write(_http_response(status, payload, keep_alive))
                answered += 1
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError,
                ValueError, TimeoutError):
            pass  # EOF or a broken peer; drop the connection, keep serving others
        finally:
            timer.cancel()
        await hang_up(writer)

    return await listen(host, port, on_connection)


def serve_xmlrpc(
    host: BindHosts,
    port: int,
    dispatch: Callable[[str, MethodCall, tuple], Awaitable[MethodResponse]],
):
    """XML-RPC layer over serve_http: parse errors yield 400, handler
    exceptions become application faults."""

    async def handler(path, body, peer):
        try:
            call = parse_call(body)
        except CodecError as exc:
            return 400, str(exc).encode()
        try:
            response = await dispatch(path, call, peer)
        except Exception as exc:
            log.exception("dispatch of %s failed", call.method_name)
            response = MethodFault(FAULT_APP, "internal error: %s" % exc)
        return 200, encode_response(response)

    return serve_http(host, port, handler)


async def _read_body(reader, length_text: Optional[str], limit: int) -> bytes:
    """Read a response body of the given Content-Length, or to EOF when
    there is none; raise RpcTransportError past limit bytes."""
    if length_text is not None and length_text.isdigit():
        if int(length_text) > limit:
            raise RpcTransportError("response body over %d bytes" % limit)
        return await reader.readexactly(int(length_text))
    payload = bytearray()
    while True:
        chunk = await reader.read(64 * 1024)
        if not chunk:
            return bytes(payload)
        payload += chunk
        if len(payload) > limit:
            raise RpcTransportError("response body over %d bytes" % limit)


def _reusable(reader, writer) -> bool:
    """Whether a client connection is open and holds no unread bytes
    (StreamReader has no public way to ask for the bytes it holds)."""
    return not reader._buffer and not reader.at_eof() and not writer.transport.is_closing()


class ConnectionPool:
    """Idle kept-alive client connections, newest last per (host, port).

    Every connection it opens comes from dial. Past IDLE_PER_TARGET idle
    connections to one target, or IDLE_TOTAL in all, the longest idle one
    of the least recently used target is aborted.
    """

    def __init__(self, dial: Dialer):
        self.dial = dial
        self._idle = {}  # (host, port) -> [(reader, writer)], least recently used first

    def idle_count(self) -> int:
        return sum(map(len, self._idle.values()))

    def take(self, host: str, port: int) -> Optional[tuple]:
        """An idle connection to host:port that is still reusable, or None."""
        stack = self._idle.get((host, port), [])
        while stack:
            reader, writer = stack.pop()
            if not stack:
                del self._idle[host, port]
            if _reusable(reader, writer):
                return reader, writer
            writer.transport.abort()
        return None

    def put(self, host: str, port: int, reader, writer) -> None:
        stack = self._idle.pop((host, port), [])
        stack.append((reader, writer))
        self._idle[host, port] = stack
        if len(stack) > IDLE_PER_TARGET:
            self._evict((host, port))
        if self.idle_count() > IDLE_TOTAL:
            self._evict(next(iter(self._idle)))

    def _evict(self, target: tuple) -> None:
        stack = self._idle[target]
        _, writer = stack.pop(0)  # a writer freed before its transport closes warns
        writer.transport.abort()
        if not stack:
            del self._idle[target]

    def drop(self, host: str, port: int) -> None:
        """Abort the idle connections to host:port without waiting; with
        nothing unread on them, their peer still gets a FIN."""
        for _, writer in self._idle.pop((host, port), ()):
            writer.transport.abort()

    async def close(self) -> None:
        """Close every idle connection."""
        idle, self._idle = self._idle, {}
        await hang_up(*(writer for stack in idle.values() for _, writer in stack))


async def http_post(
    host: str,
    port: int,
    path: str,
    body: bytes,
    *,
    timeout: float = 5.0,
    dial: Dialer = asyncio.open_connection,
    pool: Optional[ConnectionPool] = None,
) -> bytes:
    """POST body to host:port, return the response body.

    With a pool, the connection comes from it, and goes back to it only
    after a complete HTTP/1.1 answer with a Content-Length, no
    Connection: close and no bytes after it; every other connection is
    closed. The whole round trip has one deadline, timeout seconds away.
    Raises RpcTransportError on connect/timeout/non-200 failures.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    expired = False

    def expire():
        nonlocal expired
        expired = True
        writer.transport.abort()  # a pending read then ends, raising or short

    try:
        reader, writer = (pool and pool.take(host, port)) or await asyncio.wait_for(
            (pool.dial if pool else dial)(host, port), timeout
        )
        timer = loop.call_at(deadline, expire)
        reusable = False
        try:
            head = (
                "POST %s HTTP/1.1\r\n"
                "Host: %s:%d\r\n"
                "Content-Type: text/xml\r\n"
                "Content-Length: %d\r\n"
                "%s\r\n" % (path or "/", host, port, len(body), "" if pool else "Connection: close\r\n")
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            status_line, headers = await _read_head(reader)
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise RpcTransportError("bad HTTP status line %r" % status_line)
            length_text = headers.get("content-length")
            payload = await _read_body(reader, length_text, MAX_MESSAGE_BYTES)
            if expired:
                raise asyncio.TimeoutError()  # the abort cut a read to EOF short
            if parts[1] != "200":
                raise RpcTransportError("HTTP status %s" % parts[1])
            reusable = (
                pool is not None
                and parts[0] == "HTTP/1.1"
                and length_text is not None
                and headers.get("connection", "").lower() != "close"
                and _reusable(reader, writer)
            )
            return payload
        except asyncio.CancelledError:
            writer.transport.abort()  # the caller went away
            raise
        finally:
            timer.cancel()
            if reusable:
                pool.put(host, port, reader, writer)
            else:
                await hang_up(writer)
    except (RpcTransportError, ConnectionError, OSError, asyncio.TimeoutError,
            asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError) as exc:
        if expired or isinstance(exc, asyncio.TimeoutError):
            raise RpcTransportError("timeout after %.1fs posting to %s:%d" % (timeout, host, port)) from exc
        if isinstance(exc, RpcTransportError):
            raise
        raise RpcTransportError("POST to %s:%d failed: %s" % (host, port, exc)) from exc


class XmlRpcClient:
    """An XML-RPC client for one URI.

    Each call dials with dial (callers observe or override outbound
    connections there) and closes its connection afterwards; given a
    pool, calls reuse its kept-alive connections instead.
    """

    def __init__(
        self,
        uri: str,
        *,
        timeout: float = 5.0,
        dial: Dialer = asyncio.open_connection,
        pool: Optional[ConnectionPool] = None,
    ):
        self.uri = uri
        self.host, self.port, self.path = split_http_uri(uri)
        self.timeout = timeout
        self._dial = dial
        self._pool = pool

    async def call(self, method: str, params: list) -> MethodResponse:
        body = encode_call(MethodCall(method, list(params)))
        raw = await http_post(
            self.host, self.port, self.path, body,
            timeout=self.timeout, dial=self._dial, pool=self._pool,
        )
        try:
            return parse_response(raw)
        except CodecError as exc:
            raise RpcTransportError("unparseable response from %s: %s" % (self.uri, exc)) from exc


async def forward(
    uri: str,
    call: MethodCall,
    *,
    timeout: float,
    pool: ConnectionPool,
    target: str,
) -> MethodResponse:
    """Relay call to uri over a connection from pool and return its answer.

    The answer keeps the body it was parsed from, so serve_xmlrpc sends
    it back as those bytes unless the caller returns a new answer. The
    call itself is encoded anew.

    This is the one place a failed round trip (refused, timeout, non-200,
    unparseable body) becomes a FAULT_TRANSPORT fault; target names the
    far end in that fault and in the one warning line logged for it.
    """
    try:
        return await XmlRpcClient(uri, timeout=timeout, pool=pool).call(
            call.method_name, call.params
        )
    except RpcTransportError as exc:
        log.warning("forward of %s to %s (%s) failed: %s", call.method_name, target, uri, exc)
        return MethodFault(FAULT_TRANSPORT, "%s unreachable: %s" % (target, exc))
