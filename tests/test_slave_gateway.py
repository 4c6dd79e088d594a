"""Slave gateway tests: passthrough fidelity, requestTopic rewriting,
relay reuse, and the advertised-URI construction."""

import asyncio

from rosproxy.app import ProxyApp
from rosproxy.harness.rpc import RosClient
from rosproxy.http11 import close_server, serve_xmlrpc
from rosproxy.ports import PortLease, PURPOSE_SLAVE_API
from rosproxy.registry import NodeRecord
from rosproxy.xmlrpc_codec import (
    FAULT_TRANSPORT,
    MethodCall,
    MethodFault,
    MethodSuccess,
    RosResult,
)

from helpers import free_port, make_config, make_rng, random_rpc_value


def build_parts(**settings):
    app = ProxyApp(make_config(**settings))
    return app.registry, app.slave_gateways, app.registry.allocator


async def start_node_stub(tcpros_port, pid=4242):
    """A pretend node slave API: getPid, requestTopic, and echo for the rest."""

    async def dispatch(path, call, peer):
        if call.method_name == "getPid":
            return MethodSuccess([1, "pid", pid])
        if call.method_name == "requestTopic":
            return MethodSuccess(
                RosResult(
                    1,
                    "ready on 127.0.0.1:%d" % tcpros_port,
                    ["TCPROS", "127.0.0.1", tcpros_port],
                ).to_value()
            )
        return MethodSuccess(["echo", call.method_name, call.params])

    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, dispatch)
    return server, "http://127.0.0.1:%d/" % port


async def start_greeting_socket(greeting=b"tcpros-bytes"):
    """Raw TCP endpoint standing in for a node's topic socket."""

    async def on_conn(reader, writer):
        writer.write(greeting)
        await writer.drain()
        writer.close()

    port = free_port()
    server = await asyncio.start_server(on_conn, "127.0.0.1", port)
    return server, port


async def test_gateway_forwards_getpid():
    registry, manager, _ = build_parts()
    node, uri = await start_node_stub(tcpros_port=1, pid=777)
    try:
        record = await registry.ensure_node("/talker", uri)
        client = RosClient("http://127.0.0.1:%d/" % record.gateway_port)
        result = await client.call_ros("getPid", ["/someone"])
        assert result.value == 777
    finally:
        await close_server(node)
        await registry.purge_all()


async def test_request_topic_rewritten_and_relay_carries_bytes():
    sock, tcpros_port = await start_greeting_socket(b"through-the-relay")
    registry, manager, allocator = build_parts()
    node, uri = await start_node_stub(tcpros_port)
    try:
        record = await registry.ensure_node("/talker", uri)
        client = RosClient("http://127.0.0.1:%d/" % record.gateway_port)
        result = await client.call_ros(
            "requestTopic", ["/listener", "/chat", [["TCPROS"]]]
        )
        assert result.code == 1
        proto, host, port = result.value
        assert proto == "TCPROS"
        assert host == "127.0.0.1"
        assert port != tcpros_port  # a relay port, not the node's own socket
        assert ("127.0.0.1", tcpros_port) in record.tcpros_relays

        reader, writer = await asyncio.open_connection(host, port)
        data = await asyncio.wait_for(reader.read(), 2.0)
        assert data == b"through-the-relay"
        writer.close()
        await writer.wait_closed()
    finally:
        await close_server(node)
        sock.close()
        await sock.wait_closed()
        await registry.purge_all()
        assert allocator.live_leases() == []


async def test_request_topic_relay_deduped_across_subscribers():
    registry, manager, allocator = build_parts()
    node, uri = await start_node_stub(tcpros_port=55001)
    try:
        record = await registry.ensure_node("/talker", uri)
        client = RosClient("http://127.0.0.1:%d/" % record.gateway_port)
        first = await client.call_ros("requestTopic", ["/sub1", "/chat", [["TCPROS"]]])
        second = await client.call_ros("requestTopic", ["/sub2", "/chat", [["TCPROS"]]])
        assert first.value == second.value
        assert len(record.tcpros_relays) == 1
        assert len(allocator.live_leases()) == 2  # gateway + one relay
    finally:
        await close_server(node)
        await registry.purge_all()


async def test_non_tcpros_and_failed_answers_pass_through():
    registry, manager, _ = build_parts()

    async def dispatch(path, call, peer):
        if call.params and call.params[1] == "/udp":
            return MethodSuccess([1, "ok", ["UDPROS", "127.0.0.1", 1, 2, 3]])
        return MethodSuccess([0, "no publishers", []])

    port = free_port()
    node = await serve_xmlrpc("127.0.0.1", port, dispatch)
    try:
        record = await registry.ensure_node("/talker", "http://127.0.0.1:%d/" % port)
        client = RosClient("http://127.0.0.1:%d/" % record.gateway_port)
        udp = await client.call("requestTopic", ["/s", "/udp", [["UDPROS"]]])
        assert udp == MethodSuccess([1, "ok", ["UDPROS", "127.0.0.1", 1, 2, 3]])
        failed = await client.call("requestTopic", ["/s", "/nope", [["TCPROS"]]])
        assert failed == MethodSuccess([0, "no publishers", []])
        assert record.tcpros_relays == {}
    finally:
        await close_server(node)
        await registry.purge_all()


async def test_passthrough_is_method_complete():
    registry, manager, _ = build_parts()
    node, uri = await start_node_stub(tcpros_port=1)
    rng = make_rng(0xC0DE)
    try:
        record = await registry.ensure_node("/talker", uri)
        client = RosClient("http://127.0.0.1:%d/" % record.gateway_port)
        for n in range(25):
            method = "method_%d" % n
            params = [random_rpc_value(rng, 0, max_depth=3) for _ in range(rng.randrange(3))]
            direct = await RosClient(uri).call(method, params)
            proxied = await client.call(method, params)
            assert proxied == direct == MethodSuccess(["echo", method, params])
    finally:
        await close_server(node)
        await registry.purge_all()


async def test_unreachable_node_yields_transport_fault():
    registry, manager, _ = build_parts()
    dead_uri = "http://127.0.0.1:%d/" % free_port()
    record = await registry.ensure_node("/gone", dead_uri)
    try:
        client = RosClient("http://127.0.0.1:%d/" % record.gateway_port)
        response = await client.call("getPid", ["/x"])
        assert isinstance(response, MethodFault)
        assert response.code == FAULT_TRANSPORT
        assert "/gone" in response.message
    finally:
        await registry.purge_all()


async def test_protocol_params_shapes():
    """Only a (TCPROS, str host, int port in 1-65535) triple is rewritten;
    every other shape comes back as the node sent it, with no relay leased."""
    foreign = (
        ["TCPROS", "h"],
        ["TCPROS", "h", "1"],
        ["TCPROS", "h", True],
        [1, "h", 2],
        "TCPROS",
        ["TCPROS", 7, 1],
        ["TCPROS", "h", 70000],
        ["TCPROS", "h", -1],
    )
    shapes = {"/good": ["TCPROS", "127.0.0.1", 55003]}
    shapes.update(("/foreign%d" % n, shape) for n, shape in enumerate(foreign))

    async def dispatch(path, call, peer):
        return MethodSuccess([1, "ok", shapes[call.params[1]]])

    registry, manager, _ = build_parts()
    port = free_port()
    node = await serve_xmlrpc("127.0.0.1", port, dispatch)
    try:
        record = await registry.ensure_node("/talker", "http://127.0.0.1:%d/" % port)
        for topic, shape in shapes.items():
            if topic == "/good":
                continue
            response = await manager.handle_slave_call(
                record, MethodCall("requestTopic", ["/s", topic, [["TCPROS"]]])
            )
            assert response == MethodSuccess([1, "ok", shape]), shape
        assert record.tcpros_relays == {}

        good = await manager.handle_slave_call(
            record, MethodCall("requestTopic", ["/s", "/good", [["TCPROS"]]])
        )
        relay = record.tcpros_relays[("127.0.0.1", 55003)]
        assert good == MethodSuccess([1, "ok", ["TCPROS", "127.0.0.1", relay.port]])
    finally:
        await close_server(node)
        await registry.purge_all()


def test_advertised_uri_and_offset():
    registry, manager, _ = build_parts(advertised_host="hostA")
    lease = PortLease(port=30000, purpose=PURPOSE_SLAVE_API, target="u", owner="/n")
    record = NodeRecord(caller_id="/n", real_slave_uri="u", gateway_lease=lease)
    assert manager.advertised_uri(record) == "http://hostA:30000/"
    assert manager.advertised_rosrpc(30002) == "rosrpc://hostA:30002"

    _, shifted, _ = build_parts(advertised_host="192.0.2.10", host_port_offset=1000)
    assert shifted.advertised_uri(record) == "http://192.0.2.10:31000/"
    assert shifted.advertised_rosrpc(30002) == "rosrpc://192.0.2.10:31002"


async def test_offset_shifts_advertised_ports():
    registry, manager, _ = build_parts(advertised_host="192.0.2.10", host_port_offset=500)
    node, uri = await start_node_stub(tcpros_port=55002)
    try:
        record = await registry.ensure_node("/talker", uri)
        assert (
            manager.advertised_uri(record)
            == "http://192.0.2.10:%d/" % (record.gateway_port + 500)
        )
        response = await manager.handle_slave_call(
            record, MethodCall("requestTopic", ["/s", "/chat", [["TCPROS"]]])
        )
        result = RosResult.from_value(response.value)
        relay = record.tcpros_relays[("127.0.0.1", 55002)]
        assert result.value == ["TCPROS", "192.0.2.10", relay.port + 500]
    finally:
        await close_server(node)
        await registry.purge_all()
