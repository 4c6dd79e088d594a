"""Relay tests: identity forwarding, half-close request/response pattern,
bytes sent before the target answers, backpressure from a slow reader,
refused targets, concurrent connections, and close behaviour."""

import asyncio
import hashlib
import socket
import struct

import pytest

from rosproxy.http11 import BindFailed
from rosproxy.ports import PortLease, PURPOSE_TCPROS
from rosproxy.relay import RelayHandle, close_relay, open_relay

from helpers import free_port, make_rng, poll_refused, poll_until


def lease_for(port):
    return PortLease(port=port, purpose=PURPOSE_TCPROS, target="t", owner="/n")


async def start_echo_server(host="127.0.0.1"):
    """Echo until client EOF, then close. Returns (server, port)."""

    async def on_conn(reader, writer):
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    port = free_port(host)
    server = await asyncio.start_server(on_conn, host, port)
    return server, port


async def start_sink_then_reply(reply: bytes, host="127.0.0.1"):
    """Read everything until EOF, then send reply and close (service shape)."""
    received = []

    async def on_conn(reader, writer):
        received.append(await reader.read())
        writer.write(reply)
        await writer.drain()
        writer.close()

    port = free_port(host)
    server = await asyncio.start_server(on_conn, host, port)
    return server, port, received


async def slow_dial(host, port):
    """A dialer that takes 50 ms, so the client's first bytes arrive first."""
    await asyncio.sleep(0.05)
    return await asyncio.open_connection(host, port)


async def test_identity_forwarding_both_directions():
    echo, echo_port = await start_echo_server()
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", echo_port)
    try:
        rng = make_rng(0x51A7)
        blob = bytes(rng.getrandbits(8) for _ in range(256 * 1024))
        reader, writer = await asyncio.open_connection("127.0.0.1", relay_port)
        writer.write(blob)
        await writer.drain()
        writer.write_eof()
        back = await reader.read()
        writer.close()
        await writer.wait_closed()
        assert hashlib.sha256(back).hexdigest() == hashlib.sha256(blob).hexdigest()
        assert handle.bytes_in == len(blob)
        assert handle.bytes_out == len(blob)
        assert handle.accepted_total == 1
    finally:
        await close_relay(handle)
        echo.close()
        await echo.wait_closed()


async def test_half_close_lets_response_flow_back():
    # Client sends request, half-closes; server replies only after seeing EOF.
    server, port, received = await start_sink_then_reply(b"the-answer")
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", port)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", relay_port)
        writer.write(b"the-question")
        await writer.drain()
        writer.write_eof()
        reply = await asyncio.wait_for(reader.read(), 5.0)
        assert reply == b"the-answer"
        assert received == [b"the-question"]
        writer.close()
        await writer.wait_closed()
    finally:
        await close_relay(handle)
        server.close()
        await server.wait_closed()


async def test_bytes_and_eof_sent_before_the_dial_completes_arrive_in_order():
    # The client's request and half-close reach the relay while it is
    # still dialing; they must be handed to the target intact, then EOF.
    server, port, received = await start_sink_then_reply(b"the-answer")

    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", port,
                              dial=slow_dial)
    try:
        request = make_rng(0xEA21).randbytes(4096)
        reader, writer = await asyncio.open_connection("127.0.0.1", relay_port)
        writer.write(request)
        await writer.drain()
        writer.write_eof()
        reply = await asyncio.wait_for(reader.read(), 5.0)
        assert reply == b"the-answer"
        assert received == [request]
        assert (handle.bytes_in, handle.bytes_out) == (len(request), len(reply))
        writer.close()
        await writer.wait_closed()
    finally:
        await close_relay(handle)
        server.close()
        await server.wait_closed()


async def test_client_reset_during_the_dial_ends_the_connection():
    server, port, _ = await start_sink_then_reply(b"unheard")

    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", port,
                              dial=slow_dial)
    try:
        _, writer = await asyncio.open_connection("127.0.0.1", relay_port)
        writer.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        writer.transport.abort()  # RST while the relay is still dialing
        await poll_until(lambda: handle.accepted_total == 1 and handle.connection_count() == 0,
                         timeout=2.0)
    finally:
        await close_relay(handle)
        server.close()
        await server.wait_closed()


async def test_slow_reader_stalls_the_target_and_loses_nothing():
    # A client that does not read must stop the relay reading from the
    # target, so the relay holds a bounded amount, not the whole flood.
    flood = make_rng(0xF100D).randbytes(8 << 20)

    async def on_conn(reader, writer):
        writer.write(flood)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()

    target_port = free_port()
    target = await asyncio.start_server(on_conn, "127.0.0.1", target_port)
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", target_port)
    try:
        sock = socket.socket()
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", relay_port))
        reader, writer = await asyncio.open_connection(sock=sock)
        stalled_at, still = -1, 0
        for _ in range(200):
            await asyncio.sleep(0.02)
            still = still + 1 if handle.bytes_out == stalled_at else 0
            stalled_at = handle.bytes_out
            if still == 10:
                break
        assert still == 10, "bytes_out never stopped growing"
        # Without backpressure the relay reads all 8 MiB. With it, what it
        # has read is its own 64 KiB high-water mark plus the kernel's
        # buffers toward the client: a small receive buffer here, and a
        # send buffer that loopback grows to tcp_wmem's maximum (4 MiB by
        # default), so it stalls near 4.3 MiB.
        assert 0 < stalled_at < len(flood) * 3 // 4, stalled_at
        writer.write_eof()
        back = await asyncio.wait_for(reader.read(), 10.0)
        assert hashlib.sha256(back).digest() == hashlib.sha256(flood).digest()
        assert handle.bytes_out == len(flood)
        writer.close()
        await writer.wait_closed()
    finally:
        await close_relay(handle)
        target.close()
        await target.wait_closed()


async def test_refused_target_closes_client_promptly():
    dead_port = free_port()  # nothing listening there
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", dead_port)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", relay_port)
        data = await asyncio.wait_for(reader.read(), 2.0)
        assert data == b""  # hung up without payload
        writer.close()
        await writer.wait_closed()
        assert handle.accepted_total == 1
    finally:
        await close_relay(handle)


async def test_concurrent_connections_are_independent():
    echo, echo_port = await start_echo_server()
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", echo_port)

    async def one_client(tag: int):
        payload = ("client-%d-" % tag).encode() * 1000
        reader, writer = await asyncio.open_connection("127.0.0.1", relay_port)
        writer.write(payload)
        await writer.drain()
        writer.write_eof()
        back = await reader.read()
        writer.close()
        await writer.wait_closed()
        return back == payload

    try:
        results = await asyncio.gather(*(one_client(i) for i in range(16)))
        assert all(results)
        assert handle.accepted_total == 16
        await poll_until(lambda: handle.connection_count() == 0, timeout=2.0)
    finally:
        await close_relay(handle)
        echo.close()
        await echo.wait_closed()


async def test_close_refuses_new_connections():
    echo, echo_port = await start_echo_server()
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", echo_port)
    await close_relay(handle)
    waited = await poll_refused("127.0.0.1", relay_port, timeout=2.0)
    assert waited < 2.0
    echo.close()
    await echo.wait_closed()


async def test_close_kills_inflight_connection_quickly():
    # Target accepts and then sits silent until EOF; the client connection
    # should die promptly when the relay is closed.
    async def on_conn(reader, writer):
        try:
            await reader.read()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    sink_port = free_port()
    sink = await asyncio.start_server(on_conn, "127.0.0.1", sink_port)
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", sink_port)
    reader, writer = await asyncio.open_connection("127.0.0.1", relay_port)
    writer.write(b"stuck")
    await writer.drain()
    await asyncio.sleep(0.1)  # let the relay pick the connection up
    assert handle.connection_count() == 1

    loop = asyncio.get_event_loop()
    started = loop.time()
    await close_relay(handle)
    data = await asyncio.wait_for(reader.read(), 2.0)
    elapsed = loop.time() - started
    assert data == b""
    assert elapsed < 1.5
    assert handle.connection_count() == 0
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    sink.close()
    await sink.wait_closed()


async def test_close_is_idempotent():
    echo, echo_port = await start_echo_server()
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", echo_port)
    await close_relay(handle)
    await close_relay(handle)  # second close is a no-op
    echo.close()
    await echo.wait_closed()


async def test_bind_conflict_raises_bindfailed():
    echo, echo_port = await start_echo_server()
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", echo_port)
    try:
        with pytest.raises(BindFailed):
            await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", echo_port)
    finally:
        await close_relay(handle)
        echo.close()
        await echo.wait_closed()


async def test_no_connection_leak_after_many_sessions():
    echo, echo_port = await start_echo_server()
    relay_port = free_port()
    handle = await open_relay(lease_for(relay_port), "127.0.0.1", "127.0.0.1", echo_port)
    try:
        for n in range(50):
            reader, writer = await asyncio.open_connection("127.0.0.1", relay_port)
            writer.write(b"x" * 128)
            await writer.drain()
            writer.write_eof()
            await reader.read()
            writer.close()
            await writer.wait_closed()
        for _ in range(100):
            if handle.connection_count() == 0:
                break
            await asyncio.sleep(0.02)
        assert handle.connection_count() == 0
        assert handle.accepted_total == 50
    finally:
        await close_relay(handle)
        echo.close()
        await echo.wait_closed()
