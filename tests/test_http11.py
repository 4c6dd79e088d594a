"""HTTP/XML-RPC transport tests: server dispatch, client round trips,
error statuses, keep-alive, head framing, the served request's deadline,
the dial hook, the response size bound, the round trip's deadline, the
pool of kept-alive client connections, and a port that closes just after
a connect."""

import asyncio
import logging
import threading
import xmlrpc.server

import pytest

from rosproxy import http11
from rosproxy.harness.rpc import RosClient, XmlRpcFaultError
from rosproxy.http11 import (
    BindFailed,
    ConnectionPool,
    RpcTransportError,
    XmlRpcClient,
    http_post,
    serve_http,
    serve_xmlrpc,
    split_http_uri,
    split_rosrpc_uri,
)
from rosproxy.xmlrpc_codec import (
    MAX_MESSAGE_BYTES,
    MethodFault,
    MethodSuccess,
    RosResult,
    encode_call,
    MethodCall,
)

import teardown_probe
from helpers import KeepAlivePeer, free_port, poll_until


def test_split_http_uri():
    assert split_http_uri("http://10.0.0.7:11311/") == ("10.0.0.7", 11311, "/")
    assert split_http_uri("http://host:80/rpc") == ("host", 80, "/rpc")
    assert split_http_uri("http://host") == ("host", 80, "/")
    for bad in ("rosrpc://h:1", "ftp://h/", "http://", "not a uri"):
        with pytest.raises(ValueError):
            split_http_uri(bad)


def test_split_rosrpc_uri():
    assert split_rosrpc_uri("rosrpc://10.0.0.3:49202") == ("10.0.0.3", 49202)
    for bad in ("http://h:1/", "rosrpc://h", "rosrpc://:1"):
        with pytest.raises(ValueError):
            split_rosrpc_uri(bad)


async def echo_dispatch(path, call, peer):
    if call.method_name == "boom":
        raise RuntimeError("kaboom")
    if call.method_name == "fault":
        return MethodFault(-32000, "requested fault")
    return MethodSuccess([call.method_name, path, call.params])


async def test_xmlrpc_round_trip():
    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    try:
        client = XmlRpcClient("http://127.0.0.1:%d/RPC2" % port)
        resp = await client.call("greet", ["hi", 7])
        assert resp == MethodSuccess(["greet", "/RPC2", ["hi", 7]])
    finally:
        server.close()
        await server.wait_closed()


async def test_dispatch_exception_becomes_fault():
    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    try:
        client = XmlRpcClient("http://127.0.0.1:%d/" % port)
        resp = await client.call("boom", [])
        assert isinstance(resp, MethodFault)
        assert resp.code == -32000
        assert "kaboom" in resp.message
    finally:
        server.close()
        await server.wait_closed()


async def test_call_ros_unwraps_and_raises():
    async def dispatch(path, call, peer):
        if call.method_name == "ok":
            return MethodSuccess([1, "fine", [call.params[0]]])
        return MethodFault(-32000, "requested fault")

    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, dispatch)
    try:
        client = RosClient("http://127.0.0.1:%d/" % port)
        result = await client.call_ros("ok", ["/node"])
        assert result == RosResult(1, "fine", ["/node"])
        with pytest.raises(XmlRpcFaultError) as err:
            await client.call_ros("fault", [])
        assert err.value.code == -32000
    finally:
        server.close()
        await server.wait_closed()


async def test_non_ros_shaped_response_is_transport_error():
    async def dispatch(path, call, peer):
        return MethodSuccess("just a string")

    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, dispatch)
    try:
        client = RosClient("http://127.0.0.1:%d/" % port)
        with pytest.raises(RpcTransportError):
            await client.call_ros("whatever", [])
    finally:
        server.close()
        await server.wait_closed()


async def _raw_request(port, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    writer.write_eof()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


async def test_malformed_body_is_http_400():
    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    try:
        body = b"<notxmlrpc/>"
        req = (
            b"POST / HTTP/1.1\r\nHost: x\r\nContent-Type: text/xml\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        data = await _raw_request(port, req)
        assert data.startswith(b"HTTP/1.1 400 ")
    finally:
        server.close()
        await server.wait_closed()


async def test_get_is_405_and_missing_length_is_411():
    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    try:
        data = await _raw_request(port, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        assert data.startswith(b"HTTP/1.1 405 ")
        data = await _raw_request(port, b"POST / HTTP/1.1\r\nHost: x\r\n\r\n")
        assert data.startswith(b"HTTP/1.1 411 ")
    finally:
        server.close()
        await server.wait_closed()


async def test_oversized_body_is_413():
    port = free_port()
    server = await serve_http(
        "127.0.0.1", port,
        lambda path, body, peer: (_ for _ in ()).throw(AssertionError("reached handler")),
    )
    try:
        req = b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % (MAX_MESSAGE_BYTES + 1)
        data = await _raw_request(port, req)
        assert data.startswith(b"HTTP/1.1 413 ")
    finally:
        server.close()
        await server.wait_closed()


@pytest.mark.parametrize("head", ["bytewise", "over-limit", "bare-lf"])
async def test_request_head_framing(head, caplog):
    """A head is read through its CRLF CRLF however it arrives. One past
    the stream's 64 KiB limit is dropped unanswered, with no traceback
    logged (a line-by-line reader bounding each line answered these 100
    short lines with a 411). Heads must use CRLF: a head of bare-LF lines
    never ends, so it is dropped unanswered at EOF, not served."""
    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    body = encode_call(MethodCall("ping", [1]))
    try:
        if head == "bytewise":
            req = b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for byte in req:
                writer.write(bytes([byte]))
                await writer.drain()
            writer.write(body)
            writer.write_eof()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert data.startswith(b"HTTP/1.1 200 ") and b"ping" in data
            return
        if head == "over-limit":
            filler = b"".join(b"X-Pad-%d: %s\r\n" % (n, b"p" * 700) for n in range(100))
            req = b"POST / HTTP/1.1\r\n" + filler + b"\r\n"
            assert len(req) > 64 * 1024
        else:
            req = b"POST / HTTP/1.1\nHost: x\nContent-Length: %d\n\n%s" % (len(body), body)
        with caplog.at_level(logging.DEBUG):
            assert await _raw_request(port, req) == b""
        assert not [r for r in caplog.records if r.exc_info or r.levelno >= logging.ERROR]
    finally:
        server.close()
        await server.wait_closed()


async def _read_answer(reader) -> bytes:
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    return head + await reader.readexactly(length)


async def test_request_deadline_drops_unfinished_requests(monkeypatch):
    """A connection still holding part of a request two deadline checks
    on, with nothing answered between them, is dropped and its handler
    task ends: a head cut short, a body cut short, and a bare-LF request
    whose head never ends."""
    monkeypatch.setattr(http11, "REQUEST_DEADLINE", 0.2)
    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    body = encode_call(MethodCall("ping", [1]))
    requests = (
        [b"POST / HTTP/1.1\nHost: x\nContent-Length: %d\n\n%s" % (len(body), body)] * 10
        + [b"POST / HTTP/1.1\r\nHost: x\r\nContent-Le"] * 5
        + [b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body[:9])] * 5
    )
    connections = []
    try:
        for request in requests:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(request)
            connections.append((reader, writer))
        tasks = http11.connection_tasks[server]
        await poll_until(lambda: len(tasks) == len(requests), timeout=2.0)
        for reader, _ in connections:
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
        await poll_until(lambda: not tasks, timeout=2.0)
    finally:
        for _, writer in connections:
            writer.close()
        await http11.close_server(server)


async def test_request_deadline_spares_idle_and_timely_requests(monkeypatch):
    """A request already arriving at one deadline check is served if it
    is whole by the next; a kept-alive connection with nothing buffered
    stays open past any number of checks, and its next call answers."""
    monkeypatch.setattr(http11, "REQUEST_DEADLINE", 0.5)
    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    loop = asyncio.get_running_loop()
    body = encode_call(MethodCall("ping", [1]))
    request = b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await asyncio.sleep(0.35)  # the first check comes while the head trickles in
        start = loop.time()
        for byte in request:
            writer.write(bytes([byte]))
            await writer.drain()
            await asyncio.sleep(0.003)
        writer.write(body)
        assert (await _read_answer(reader)).startswith(b"HTTP/1.1 200 ")
        assert loop.time() - start < 0.5
        await asyncio.sleep(1.6)  # three checks on an idle connection
        assert len(http11.connection_tasks[server]) == 1
        writer.write(request + body)
        assert (await _read_answer(reader)).startswith(b"HTTP/1.1 200 ")
        writer.close()
        await writer.wait_closed()
    finally:
        await http11.close_server(server)


async def test_close_server_ends_a_connection_accepted_as_it_closes():
    """However many loop turns (0 to 6) after its connect the port closes,
    the connection ends with it and leaves no handler behind: also one
    that asyncio accepted but had not yet handed to listen's accept."""
    assert await teardown_probe.late_accepts() == []


async def test_keep_alive_serves_two_calls_on_one_connection():
    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for n in range(2):
            body = encode_call(MethodCall("ping", [n]))
            writer.write(
                b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body)
            )
            await writer.drain()
            status = await reader.readline()
            assert status.startswith(b"HTTP/1.1 200 ")
            length = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            payload = await reader.readexactly(length)
            assert b"ping" in payload
        writer.close()
        await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()


async def test_bind_conflict_raises_bindfailed():
    port = free_port()
    first = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    try:
        with pytest.raises(BindFailed):
            await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    finally:
        first.close()
        await first.wait_closed()


async def test_connect_refused_is_transport_error():
    port = free_port()
    with pytest.raises(RpcTransportError):
        await http_post("127.0.0.1", port, "/", b"x", timeout=2.0)


async def test_timeout_is_transport_error():
    async def on_conn(reader, writer):
        try:
            await reader.read()  # silent until the client hangs up
        except (ConnectionError, OSError):
            pass
        writer.close()

    port = free_port()
    server = await asyncio.start_server(on_conn, "127.0.0.1", port)
    try:
        with pytest.raises(RpcTransportError) as err:
            await http_post("127.0.0.1", port, "/", b"x", timeout=0.3)
        assert "timeout" in str(err.value)
    finally:
        server.close()
        await server.wait_closed()


async def start_peer(answer):
    """A server that reads one request head, then runs answer(writer)."""

    async def on_conn(reader, writer):
        try:
            await reader.readuntil(b"\r\n\r\n")
            await answer(writer)
            await reader.read()  # until the client hangs up
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def trickle_head(writer):
    for byte in b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 2\r\n\r\nok":
        writer.write(bytes([byte]))
        await writer.drain()
        await asyncio.sleep(0.05)


async def no_length_never_closed(writer):
    writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\n\r\n<partial")


async def too_many_header_lines(writer):
    lines = b"".join(b"X-Line-%d: v\r\n" % n for n in range(http11.MAX_HEADER_COUNT + 1))
    writer.write(b"HTTP/1.1 200 OK\r\n" + lines + b"Content-Length: 0\r\n\r\n")


@pytest.mark.parametrize("answer, error", [
    (trickle_head, "timeout"),
    (no_length_never_closed, "timeout"),
    (too_many_header_lines, "too many headers"),
])
async def test_broken_answer_is_transport_error(answer, error):
    """The deadline aborts a head still arriving, and a body read to an
    EOF that never comes; the short read the abort leaves is a timeout,
    not an answer. A round trip run under asyncio.wait_for times out the
    same calls; this keeps the timer that replaced it from missing one.
    101 header lines are one past MAX_HEADER_COUNT."""
    server, port = await start_peer(answer)
    try:
        start = asyncio.get_running_loop().time()
        with pytest.raises(RpcTransportError) as err:
            await http_post("127.0.0.1", port, "/", b"x", timeout=0.3)
        assert error in str(err.value)
        assert asyncio.get_running_loop().time() - start < 1.0
    finally:
        server.close()
        await server.wait_closed()


async def test_dial_hook_observes_traffic():
    dials = []

    async def dial(host, port):
        dials.append((host, port))
        return await asyncio.open_connection(host, port)

    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, echo_dispatch)
    try:
        client = XmlRpcClient("http://127.0.0.1:%d/" % port, dial=dial)
        assert await client.call("hello", []) == MethodSuccess(["hello", "/", []])
        assert dials == [("127.0.0.1", port)]
    finally:
        server.close()
        await server.wait_closed()


async def test_response_body_is_bounded():
    """A response with no Content-Length is read to EOF, but no further
    than MAX_MESSAGE_BYTES; a declared length past it is refused unread."""
    sizes = iter((MAX_MESSAGE_BYTES, MAX_MESSAGE_BYTES + 1, None))

    async def on_conn(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        size = next(sizes)
        if size is None:
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                         % (MAX_MESSAGE_BYTES + 1))
        else:
            writer.write(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n")
            writer.write(b"x" * size)
        try:
            await writer.drain()
        except ConnectionError:
            pass  # the client hung up once it had read past the limit
        writer.close()

    port = free_port()
    server = await asyncio.start_server(on_conn, "127.0.0.1", port)
    try:
        body = await http_post("127.0.0.1", port, "/", b"x", timeout=10.0)
        assert len(body) == MAX_MESSAGE_BYTES
        for _ in range(2):
            with pytest.raises(RpcTransportError) as err:
                await http_post("127.0.0.1", port, "/", b"x", timeout=10.0)
            assert "over %d bytes" % MAX_MESSAGE_BYTES in str(err.value)
    finally:
        server.close()
        await server.wait_closed()


# -- the pool of kept-alive client connections ------------------------


def recording_pool():
    dials = []

    async def dial(host, port):
        dials.append((host, port))
        return await asyncio.open_connection(host, port)

    return ConnectionPool(dial), dials


async def test_pool_reuses_a_kept_alive_connection():
    peer = await KeepAlivePeer().start()
    pool, dials = recording_pool()
    try:
        for n in range(3):
            body = b"call %d" % n
            assert await http_post("127.0.0.1", peer.port, "/", body, pool=pool) == body
        assert dials == [("127.0.0.1", peer.port)]
        assert pool.idle_count() == 1
        assert not any(b"connection: close" in head.lower() for head in peer.heads)
    finally:
        await pool.close()
        await peer.stop()


async def test_warm_pooled_calls_make_no_task():
    """A call over an idle pooled connection awaits its round trip in the
    caller's task. A round trip under asyncio.wait_for makes one task per
    call on Python 3.10 and 3.11 (20 here), none on 3.12 and later."""
    peer = await KeepAlivePeer().start()
    pool, dials = recording_pool()
    loop = asyncio.get_running_loop()
    made = []

    def counting_factory(loop, coro, **kwargs):
        made.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    try:
        assert await http_post("127.0.0.1", peer.port, "/", b"warm-up", pool=pool) == b"warm-up"
        loop.set_task_factory(counting_factory)
        for n in range(20):
            body = b"call %d" % n
            assert await http_post("127.0.0.1", peer.port, "/", body, pool=pool) == body
        assert made == []
        assert dials == [("127.0.0.1", peer.port)]
    finally:
        loop.set_task_factory(None)
        await pool.close()
        await peer.stop()


async def test_http10_peer_is_never_pooled():
    """stdlib xmlrpc.server (rosmaster, rospy) answers HTTP/1.0 and closes."""
    server = xmlrpc.server.SimpleXMLRPCServer(("127.0.0.1", 0), logRequests=False)
    server.register_function(lambda caller_id: [1, "", 4242], "getPid")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    pool, dials = recording_pool()
    try:
        uri = "http://127.0.0.1:%d/" % server.server_address[1]
        client = XmlRpcClient(uri, pool=pool)
        for _ in range(3):
            assert await client.call("getPid", ["/probe"]) == MethodSuccess([1, "", 4242])
            assert pool.idle_count() == 0
        assert len(dials) == 3
    finally:
        await asyncio.get_running_loop().run_in_executor(None, server.shutdown)
        thread.join(5.0)
        server.server_close()


async def test_connection_the_peer_closed_while_idle_is_replaced():
    peer = await KeepAlivePeer().start()
    pool, dials = recording_pool()
    try:
        assert await http_post("127.0.0.1", peer.port, "/", b"first", pool=pool) == b"first"
        assert pool.idle_count() == 1
        peer.hang_up_all()
        await poll_until(lambda: peer.closed == 1, timeout=2.0)
        await asyncio.sleep(0.05)  # the client's loop sees the close too
        assert await http_post("127.0.0.1", peer.port, "/", b"second", pool=pool) == b"second"
        assert len(dials) == 2
        assert pool.idle_count() == 1
    finally:
        await pool.close()
        await peer.stop()


@pytest.mark.parametrize("interruption", ["timeout", "cancel", "trailer"])
async def test_interrupted_answer_never_returns_its_connection(interruption):
    peer = await KeepAlivePeer(trailer=b"stray" if interruption == "trailer" else b"").start()
    pool, dials = recording_pool()
    try:
        if interruption == "timeout":
            with pytest.raises(RpcTransportError):
                await http_post("127.0.0.1", peer.port, "/", b"stall", timeout=0.3, pool=pool)
        elif interruption == "cancel":
            call = asyncio.ensure_future(
                http_post("127.0.0.1", peer.port, "/", b"stall", pool=pool)
            )
            await asyncio.wait_for(peer.stalled.wait(), 2.0)
            await asyncio.sleep(0.05)  # the half answer reaches the client
            call.cancel()
            with pytest.raises(asyncio.CancelledError):
                await call
        else:
            assert await http_post("127.0.0.1", peer.port, "/", b"first", pool=pool) == b"first"
        assert pool.idle_count() == 0
        await poll_until(lambda: peer.eofs == 1, timeout=2.0)
        assert await http_post("127.0.0.1", peer.port, "/", b"own answer", pool=pool) == b"own answer"
        assert len(dials) == 2
    finally:
        await pool.close()
        await peer.stop()


async def test_pool_keeps_idle_connections_within_its_bounds(monkeypatch):
    monkeypatch.setattr(http11, "IDLE_PER_TARGET", 2)
    monkeypatch.setattr(http11, "IDLE_TOTAL", 5)
    peers = [await KeepAlivePeer().start() for _ in range(6)]  # one per node URI
    pool, dials = recording_pool()
    try:
        for peer in peers:
            # three calls at once need three connections; two stay idle
            await asyncio.gather(*(
                http_post("127.0.0.1", peer.port, "/", b"x", pool=pool) for _ in range(3)
            ))
            assert pool.idle_count() <= 5
            assert all(len(stack) <= 2 for stack in pool._idle.values())
        assert pool.idle_count() == 5
        # the evicted ones were closed: each peer holds open only what is idle
        open_at = lambda peer: len(peer.connections) - peer.closed
        await poll_until(lambda: sum(map(open_at, peers)) == 5, timeout=2.0)
        # the least recently used target lost its connections first
        assert [open_at(peer) for peer in peers] == [0, 0, 0, 1, 2, 2]
        assert len(dials) == 18
    finally:
        await pool.close()
        for peer in peers:
            await peer.stop()
