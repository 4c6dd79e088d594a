"""HTTP/XML-RPC transport tests: server dispatch, client round trips,
error statuses, keep-alive, the dial hook and the response size bound."""

import asyncio

import pytest

from rosproxy.http11 import (
    BindFailed,
    RpcTransportError,
    XmlRpcClient,
    XmlRpcFaultError,
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

from helpers import free_port


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
        client = XmlRpcClient("http://127.0.0.1:%d/" % port)
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
        client = XmlRpcClient("http://127.0.0.1:%d/" % port)
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
