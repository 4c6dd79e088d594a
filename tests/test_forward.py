"""The one forward path: every way a relayed round trip can fail reaches
the master gateway, a slave gateway and the pinger the same way, and
the connections it keeps alive to a node end with the node's record."""

import asyncio

import pytest

from rosproxy.xmlrpc_codec import (
    FAULT_TRANSPORT,
    MethodCall,
    MethodFault,
    MethodSuccess,
    encode_response,
)

from helpers import KeepAlivePeer, free_port, poll_until
from test_master_gateway import build_gateway

FAILURES = ("refused", "timeout", "status", "unparseable")
PATHS = ("master", "slave", "ping")
RPC_TIMEOUT = 0.3


async def start_broken_peer(failure):
    """An XML-RPC endpoint that fails one way; returns (server, uri)."""
    port = free_port()
    uri = "http://127.0.0.1:%d/" % port
    if failure == "refused":
        return None, uri

    async def on_conn(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        if failure == "timeout":
            await reader.read()  # never answer; wait for the client to give up
        elif failure == "status":
            writer.write(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n")
        else:
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\nnot xml")
        writer.close()

    return await asyncio.start_server(on_conn, "127.0.0.1", port), uri


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("failure", FAILURES)
async def test_transport_failure_takes_the_one_forward_path(failure, path):
    server, uri = await start_broken_peer(failure)
    gateway, registry, manager, allocator = build_gateway(uri, request_timeout=RPC_TIMEOUT)
    try:
        if path == "master":
            response = await gateway.handle_master_call(
                MethodCall("getSystemState", ["/probe"]), None
            )
            assert isinstance(response, MethodFault)
            assert response.code == FAULT_TRANSPORT
            assert response.message.startswith("upstream master unreachable: ")
        else:
            record = await registry.ensure_node("/n", uri)
            if path == "slave":
                response = await manager.handle_slave_call(
                    record, MethodCall("getPid", ["/probe"])
                )
                assert isinstance(response, MethodFault)
                assert response.code == FAULT_TRANSPORT
                assert response.message.startswith("node /n unreachable: ")
            else:
                assert await registry.ping_cycle() == [("/n", "failed")]
                assert record.ping_failures == 1
    finally:
        await registry.purge_all()
        if server is not None:
            server.close()
            await server.wait_closed()
    assert allocator.live_leases() == []


async def test_a_pid_answer_that_does_not_decode_fails_the_ping():
    """A getPid answer in a success envelope is decoded only when the
    pinger reads it; one that does not decode is a failed ping, while
    the slave gateway hands the same bytes back undecoded."""
    pid = (b"<?xml version='1.0'?>\n<methodResponse><params><param><value><array><data>"
           b"<value><i4>1</i4></value><value></value><value><i8>4242</i8></value>"
           b"</data></array></value></param></params></methodResponse>\n")
    peer = await KeepAlivePeer(lambda body: pid).start()
    uri = "http://127.0.0.1:%d/" % peer.port
    gateway, registry, manager, allocator = build_gateway(uri, request_timeout=RPC_TIMEOUT)
    try:
        record = await registry.ensure_node("/n", uri)
        assert await registry.ping_cycle() == [("/n", "failed")]
        assert record.ping_failures == 1
        response = await manager.handle_slave_call(record, MethodCall("getPid", ["/probe"]))
        assert isinstance(response, MethodSuccess) and encode_response(response) == pid
    finally:
        await registry.purge_all()
        await peer.stop()
    assert allocator.live_leases() == []


async def test_purge_closes_the_nodes_pooled_connections():
    pid = encode_response(MethodSuccess([1, "", 4242]))
    peers = {name: await KeepAlivePeer(lambda body: pid).start() for name in ("/a", "/b")}
    gateway, registry, manager, allocator = build_gateway("")
    try:
        for name, peer in peers.items():
            record = await registry.ensure_node(name, "http://127.0.0.1:%d/" % peer.port)
            response = await manager.handle_slave_call(record, MethodCall("getPid", ["/probe"]))
            assert response == MethodSuccess([1, "", 4242])
        assert registry.pool.idle_count() == 2
        await registry.purge_record(registry.get("/a"))
        await poll_until(lambda: peers["/a"].eofs == 1, timeout=2.0)
        assert registry.pool.idle_count() == 1
        assert peers["/b"].closed == 0
        # the other node's connection is still the one its calls use
        await manager.handle_slave_call(registry.get("/b"), MethodCall("getPid", ["/probe"]))
        assert len(peers["/b"].connections) == 1
    finally:
        await registry.purge_all()
        await registry.pool.close()
        for peer in peers.values():
            await peer.stop()
    assert allocator.live_leases() == []


async def test_restart_purge_awaits_no_pooled_close_under_the_lock():
    """A restart purges the node's old record under the registry lock. Its
    idle pooled connection is aborted there: its wait_closed, awaited
    with the lock held, would stall every registry change behind it."""
    pid = encode_response(MethodSuccess([1, "", 4242]))
    peer = await KeepAlivePeer(lambda body: pid).start()
    gateway, registry, manager, allocator = build_gateway("")
    waits_under_lock = []
    try:
        record = await registry.ensure_node("/a", "http://127.0.0.1:%d/" % peer.port)
        await manager.handle_slave_call(record, MethodCall("getPid", ["/probe"]))
        [(_, writer)] = registry.pool._idle["127.0.0.1", peer.port]
        wait_closed = writer.wait_closed

        async def recording_wait_closed():
            waits_under_lock.append(registry._lock.locked())
            await wait_closed()

        writer.wait_closed = recording_wait_closed
        await registry.ensure_node("/a", "http://127.0.0.1:%d/" % free_port())
        await poll_until(lambda: peer.eofs == 1, timeout=2.0)
        assert registry.pool.idle_count() == 0
        assert True not in waits_under_lock
    finally:
        await registry.purge_all()
        await peer.stop()
    assert allocator.live_leases() == []
