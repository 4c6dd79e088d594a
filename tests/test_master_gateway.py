"""Master gateway tests: the five rewritten methods, passthrough
fidelity for everything else, and fault paths."""

import asyncio
import logging

import pytest

from rosproxy.app import ProxyApp
from rosproxy.harness.rpc import RosClient
from rosproxy.http11 import close_server, serve_xmlrpc
from rosproxy.master_gateway import BadSignature, REWRITE_RULES, _check_signature
from rosproxy.xmlrpc_codec import (
    FAULT_APP,
    FAULT_BAD_PARAMS,
    FAULT_TRANSPORT,
    MethodCall,
    MethodFault,
    MethodSuccess,
)

from helpers import (
    free_port,
    lock_waiters,
    make_config,
    make_rng,
    poll_refused,
    poll_until,
    random_rpc_value,
)

ADV = "127.0.0.1"  # advertised host for these tests


def test_rewrite_rule_table_shape():
    assert set(REWRITE_RULES) == {
        "registerService",
        "registerSubscriber",
        "unregisterSubscriber",
        "registerPublisher",
        "unregisterPublisher",
    }
    assert REWRITE_RULES["registerService"].service_api_index == 2
    assert REWRITE_RULES["registerPublisher"].caller_api_index == 3
    assert REWRITE_RULES["unregisterPublisher"].caller_api_index == 2
    assert REWRITE_RULES["unregisterPublisher"].param_count == 3


async def start_upstream_stub():
    """Records every call; answers in master-API shapes."""
    calls = []

    async def dispatch(path, call, peer):
        calls.append((call.method_name, call.params))
        if call.method_name == "registerSubscriber":
            return MethodSuccess([1, "Subscribed", ["http://pub-elsewhere:5555/"]])
        if call.method_name.startswith("register"):
            return MethodSuccess([1, "Registered", 1])
        if call.method_name.startswith("unregister"):
            return MethodSuccess([1, "Unregistered", 1])
        if call.method_name == "getSystemState":
            return MethodSuccess(
                [1, "state", [[["/chat", ["/talker"]]], [], []]]
            )
        return MethodSuccess([1, "echo", [call.method_name, call.params]])

    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, dispatch)
    return server, "http://127.0.0.1:%d/" % port, calls


def build_gateway(upstream_uri, **settings):
    app = ProxyApp(make_config(upstream_uri, advertised_host=ADV, **settings))
    return app.master_gateway, app.registry, app.slave_gateways, app.registry.allocator


async def test_register_publisher_rewrites_caller_api():
    upstream, uri, calls = await start_upstream_stub()
    gateway, registry, manager, _ = build_gateway(uri)
    try:
        call = MethodCall(
            "registerPublisher",
            ["/talker", "/chat", "std_msgs/String", "http://10.0.2.3:43231/"],
        )
        response = await gateway.handle_master_call(call, ("10.0.2.3", 1))
        assert response == MethodSuccess([1, "Registered", 1])
        record = registry.get("/talker")
        assert calls == [
            (
                "registerPublisher",
                ["/talker", "/chat", "std_msgs/String",
                 "http://%s:%d/" % (ADV, record.gateway_port)],
            )
        ]
        assert record.real_slave_uri == "http://10.0.2.3:43231/"
    finally:
        await close_server(upstream)
        await registry.purge_all()


async def test_register_subscriber_response_passes_back_unmodified():
    upstream, uri, calls = await start_upstream_stub()
    gateway, registry, _, _ = build_gateway(uri)
    try:
        response = await gateway.handle_master_call(
            MethodCall(
                "registerSubscriber",
                ["/listener", "/chat", "std_msgs/String", "http://10.0.2.4:43211/"],
            ),
            ("10.0.2.4", 1),
        )
        # publisher list untouched: subscribers dial publishers outbound
        assert response == MethodSuccess([1, "Subscribed", ["http://pub-elsewhere:5555/"]])
    finally:
        await close_server(upstream)
        await registry.purge_all()


async def test_unregister_uses_three_param_signature_and_keeps_the_node():
    upstream, uri, calls = await start_upstream_stub()
    gateway, registry, _, _ = build_gateway(uri)
    try:
        await gateway.handle_master_call(
            MethodCall(
                "registerSubscriber",
                ["/listener", "/chat", "std_msgs/String", "http://10.0.2.4:43211/"],
            ),
            None,
        )
        record = registry.get("/listener")
        await gateway.handle_master_call(
            MethodCall(
                "unregisterSubscriber",
                ["/listener", "/chat", "http://10.0.2.4:43211/"],
            ),
            None,
        )
        assert registry.get("/listener") is record
        assert calls[1] == (
            "unregisterSubscriber",
            ["/listener", "/chat", "http://%s:%d/" % (ADV, record.gateway_port)],
        )
    finally:
        await close_server(upstream)
        await registry.purge_all()


async def test_register_service_rewrites_both_apis_and_relays():
    async def service_socket(reader, writer):
        writer.write(b"service-bytes")
        await writer.drain()
        writer.close()

    srv_port = free_port()
    srv = await asyncio.start_server(service_socket, "127.0.0.1", srv_port)
    upstream, uri, calls = await start_upstream_stub()
    gateway, registry, _, allocator = build_gateway(uri)
    try:
        call = MethodCall(
            "registerService",
            ["/adder", "/add_two_ints", "rosrpc://127.0.0.1:%d" % srv_port,
             "http://10.0.2.5:43299/"],
        )
        response = await gateway.handle_master_call(call, None)
        assert response == MethodSuccess([1, "Registered", 1])
        record = registry.get("/adder")
        relay = record.tcpros_relays[("127.0.0.1", srv_port)]
        sent_method, sent_params = calls[0]
        assert sent_params == [
            "/adder",
            "/add_two_ints",
            "rosrpc://%s:%d" % (ADV, relay.port),
            "http://%s:%d/" % (ADV, record.gateway_port),
        ]

        reader, writer = await asyncio.open_connection(ADV, relay.port)
        assert await asyncio.wait_for(reader.read(), 2.0) == b"service-bytes"
        writer.close()
        await writer.wait_closed()

        # same endpoint re-registered -> relay reused, no extra lease
        before = len(allocator.live_leases())
        await gateway.handle_master_call(call, None)
        assert len(allocator.live_leases()) == before
        assert len(record.tcpros_relays) == 1
    finally:
        srv.close()
        await srv.wait_closed()
        await close_server(upstream)
        await registry.purge_all()


async def test_register_service_without_relay_port_keeps_the_node_and_its_gateway():
    """A registerService whose relay finds no free port faults, and nothing
    goes upstream. The node keeps its one gateway lease, as any node does
    until pings, a restart or shutdown purge it."""
    upstream, uri, calls = await start_upstream_stub()
    gateway, registry, _, allocator = build_gateway(uri, range_size=1)
    register_service = MethodCall(
        "registerService",
        ["/adder", "/add_two_ints", "rosrpc://127.0.0.1:1", "http://10.0.2.5:43299/"],
    )
    exhausted = MethodFault(
        FAULT_APP,
        "cannot provision node resources: port range %s exhausted (1 ports, all leased)"
        % allocator.port_range,
    )
    try:
        assert await gateway.handle_master_call(register_service, None) == exhausted
        record = registry.get("/adder")
        assert record.tcpros_relays == {}
        assert [lease.port for lease in allocator.live_leases()] == [record.gateway_port]
        assert calls == []

        register_publisher = MethodCall(
            "registerPublisher", ["/adder", "/sum", "std_msgs/Int32", "http://10.0.2.5:43299/"]
        )
        assert await gateway.handle_master_call(register_publisher, None) == MethodSuccess(
            [1, "Registered", 1]
        )
        assert await gateway.handle_master_call(register_service, None) == exhausted
        assert registry.get("/adder") is record
        assert len(allocator.live_leases()) == 1
        assert [method for method, _ in calls] == ["registerPublisher"]
    finally:
        await close_server(upstream)
        await registry.purge_all()


async def test_registration_for_a_node_purged_meanwhile_gets_the_vanished_fault(caplog):
    """A registration that waits for the registry lock, with a purge of its
    node queued behind it, finds the node gone when it resumes: the node
    gets the "node vanished" fault, and nothing logs an error."""
    upstream, uri, calls = await start_upstream_stub()
    app = ProxyApp(make_config(uri, advertised_host=ADV))
    registry = app.registry
    node_uri = "http://10.0.2.3:43231/"
    await app.start()
    try:
        await registry.ensure_node("/talker", node_uri)
        client = RosClient("http://127.0.0.1:%d/" % app.config.main_port, timeout=2.0)
        await registry._lock.acquire()
        register = asyncio.ensure_future(client.call(
            "registerPublisher", ["/talker", "/chat", "std_msgs/String", node_uri]
        ))
        await poll_until(lambda: lock_waiters(registry) == 1, timeout=2.0)
        purge = asyncio.ensure_future(registry.purge_record(registry.get("/talker")))
        await poll_until(lambda: lock_waiters(registry) == 2, timeout=2.0)
        registry._lock.release()
        assert await register == MethodFault(
            FAULT_APP, "node vanished during handling: /talker"
        )
        await purge
        assert calls == []
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
    finally:
        await app.stop()
        await close_server(upstream)


BAD_SIGNATURES = (
    MethodCall("registerPublisher", ["/n", "/chat"]),
    MethodCall("unregisterPublisher", ["/n", "/chat", "http://h:1/", "extra"]),
    MethodCall("registerPublisher", [7, "/chat", "std_msgs/String", "http://h:1/"]),
    MethodCall("registerSubscriber", ["/n", 7, "std_msgs/String", "http://h:1/"]),
    MethodCall("unregisterSubscriber", ["/n", "/chat", 7]),
    MethodCall("registerPublisher", ["/n", "/chat", "std_msgs/String", "nota uri"]),
    MethodCall("registerPublisher", ["/n", "/chat", "std_msgs/String", "rosrpc://h:1"]),
    MethodCall("registerService", ["/n", "/srv", 5, "http://h:1/"]),
    MethodCall("registerService", ["/n", "/srv", "10.0.2.3:51234", "http://10.0.2.3:1/"]),
    MethodCall("registerService", ["/n", "/s", "http://wrong-scheme:1/", "http://h:1/"]),
    MethodCall("registerService", ["/n", "/s", "rosrpc://h", "http://h:1/"]),
)


def test_rewrite_helpers_raise_bad_signature_directly():
    assert "getPid" not in REWRITE_RULES  # passes upstream unchecked
    for call in BAD_SIGNATURES:
        with pytest.raises(BadSignature):
            _check_signature(call, REWRITE_RULES[call.method_name])
    good = MethodCall(
        "registerService", ["/n", "/s", "rosrpc://10.0.2.3:51234", "http://10.0.2.3:1/"]
    )
    assert _check_signature(good, REWRITE_RULES["registerService"]) == ("10.0.2.3", 51234)
    publisher = MethodCall("registerPublisher", ["/n", "/chat", "std_msgs/String", "http://h:1/"])
    assert _check_signature(publisher, REWRITE_RULES["registerPublisher"]) is None


async def test_bad_signatures_become_param_faults():
    upstream, uri, calls = await start_upstream_stub()
    gateway, registry, _, allocator = build_gateway(uri)
    try:
        for call in BAD_SIGNATURES:
            response = await gateway.handle_master_call(call, None)
            assert isinstance(response, MethodFault), call
            assert response.code == FAULT_BAD_PARAMS, call

        assert calls == []  # nothing malformed reached upstream
        assert registry.nodes == {}  # ...nor provisioned anything
        assert allocator.live_leases() == []
    finally:
        await close_server(upstream)
        await registry.purge_all()


async def test_non_intercepted_methods_pass_through_semantically():
    upstream, uri, calls = await start_upstream_stub()
    gateway, registry, _, _ = build_gateway(uri)
    rng = make_rng(0xA571)
    try:
        state = await gateway.handle_master_call(
            MethodCall("getSystemState", ["/probe"]), None
        )
        assert state == MethodSuccess([1, "state", [[["/chat", ["/talker"]]], [], []]])

        for n in range(25):
            method = "lookupThing%d" % n
            params = [random_rpc_value(rng, 0, max_depth=3) for _ in range(rng.randrange(4))]
            response = await gateway.handle_master_call(MethodCall(method, params), None)
            assert response == MethodSuccess([1, "echo", [method, params]])
            assert calls[-1] == (method, params)
        assert registry.nodes == {}  # passthrough never creates records
    finally:
        await close_server(upstream)
        await registry.purge_all()


async def test_unreachable_upstream_is_transport_fault():
    dead_uri = "http://127.0.0.1:%d/" % free_port()
    gateway, registry, _, _ = build_gateway(dead_uri)
    try:
        response = await gateway.handle_master_call(
            MethodCall(
                "registerPublisher",
                ["/talker", "/chat", "std_msgs/String", "http://10.0.2.3:1/"],
            ),
            None,
        )
        assert isinstance(response, MethodFault)
        assert response.code == FAULT_TRANSPORT
        # the node keeps its gateway; liveness pinging owns the cleanup
        assert "/talker" in registry.nodes
    finally:
        await registry.purge_all()


# -- what purges a node: pings, a restart or shutdown, never a fault or
# an unregistration. Each test runs a whole ProxyApp, pinging fast.


async def start_pid_node():
    """A slave API that answers getPid."""

    async def dispatch(path, call, peer):
        return MethodSuccess([1, "pid", 4242])

    port = free_port()
    return await serve_xmlrpc("127.0.0.1", port, dispatch), "http://127.0.0.1:%d/" % port


def fast_pinging_app(upstream_uri):
    app = ProxyApp(make_config(
        upstream_uri, advertised_host=ADV, ping_interval=0.05, ping_failure_threshold=2
    ))
    cycles = []
    ping_cycle = app.registry.ping_cycle

    async def counted_ping_cycle():
        cycles.append(await ping_cycle())
        return cycles[-1]

    app.registry.ping_cycle = counted_ping_cycle
    return app, cycles


async def test_upstream_down_faults_registrations_and_the_node_keeps_its_gateway():
    node, node_uri = await start_pid_node()
    app, cycles = fast_pinging_app("http://127.0.0.1:%d/" % free_port())  # refuses
    registry, allocator = app.registry, app.registry.allocator
    await app.start()
    try:
        client = RosClient("http://127.0.0.1:%d/" % app.config.main_port, timeout=2.0)
        registered = await client.call(
            "registerPublisher", ["/talker", "/chat", "std_msgs/String", node_uri]
        )
        assert isinstance(registered, MethodFault) and registered.code == FAULT_TRANSPORT
        record = registry.get("/talker")
        assert [lease.port for lease in allocator.live_leases()] == [record.gateway_port]

        unregistered = await client.call("unregisterPublisher", ["/talker", "/chat", node_uri])
        assert isinstance(unregistered, MethodFault) and unregistered.code == FAULT_TRANSPORT
        seen = len(cycles)
        await poll_until(lambda: len(cycles) >= seen + 3, timeout=5.0)
        gateway = RosClient("http://127.0.0.1:%d/" % record.gateway_port, timeout=2.0)
        assert (await gateway.call_ros("getPid", ["/probe"])).value == 4242
        assert registry.get("/talker") is record
        assert [lease.port for lease in allocator.live_leases()] == [record.gateway_port]
    finally:
        await app.stop()
        await close_server(node)


async def test_a_node_that_unregistered_everything_is_purged_only_by_pings():
    upstream, uri, _ = await start_upstream_stub()
    node, node_uri = await start_pid_node()
    app, cycles = fast_pinging_app(uri)
    registry, allocator = app.registry, app.registry.allocator
    await app.start()
    try:
        client = RosClient("http://127.0.0.1:%d/" % app.config.main_port, timeout=2.0)
        await client.call_ros("registerPublisher", ["/talker", "/chat", "std_msgs/String", node_uri])
        await client.call_ros("unregisterPublisher", ["/talker", "/chat", node_uri])
        record = registry.get("/talker")
        gateway = RosClient("http://127.0.0.1:%d/" % record.gateway_port, timeout=2.0)

        seen = len(cycles)
        await poll_until(lambda: len(cycles) >= seen + 3, timeout=5.0)
        assert all(cycle == [("/talker", "ok")] for cycle in cycles[seen:])
        assert (await gateway.call_ros("getPid", ["/probe"])).value == 4242
        assert registry.get("/talker") is record

        await close_server(node)
        await poll_until(lambda: [("/talker", "purged")] in cycles, timeout=5.0)
        assert "/talker" not in registry.nodes
        await poll_refused("127.0.0.1", record.gateway_port, timeout=2.0)
        assert allocator.live_leases() == []
    finally:
        await app.stop()
        await close_server(node)
        await close_server(upstream)


async def test_reregistration_is_idempotent_incl_advertised_uri_echo():
    upstream, uri, calls = await start_upstream_stub()
    gateway, registry, manager, allocator = build_gateway(uri)
    try:
        call = MethodCall(
            "registerPublisher",
            ["/talker", "/chat", "std_msgs/String", "http://10.0.2.3:43231/"],
        )
        await gateway.handle_master_call(call, None)
        record = registry.get("/talker")
        port_before = record.gateway_port

        await gateway.handle_master_call(call, None)  # plain re-registration
        assert registry.get("/talker") is record

        # re-registration whose caller_api is the advertised URI itself
        echoed = MethodCall(
            "registerPublisher",
            ["/talker", "/chat", "std_msgs/String", manager.advertised_uri(record)],
        )
        await gateway.handle_master_call(echoed, None)
        again = registry.get("/talker")
        assert again is record
        assert again.gateway_port == port_before
        slave_leases = [
            l for l in allocator.live_leases() if l.owner == "/talker" and l.purpose == "slave_api_gateway"
        ]
        assert len(slave_leases) == 1
        # every upstream copy carried the same advertised caller_api
        sent_apis = {params[3] for _, params in calls}
        assert sent_apis == {manager.advertised_uri(record)}
    finally:
        await close_server(upstream)
        await registry.purge_all()


async def test_http_ingress_and_node_alias_routing():
    upstream, uri, _ = await start_upstream_stub()
    gateway, registry, manager, _ = build_gateway(uri)
    main_port = registry.config.main_port

    async def node_dispatch(path, call, peer):
        return MethodSuccess([1, "pid", 31337])

    node_port = free_port()
    node = await serve_xmlrpc("127.0.0.1", node_port, node_dispatch)
    await gateway.start()
    try:
        master_client = RosClient("http://127.0.0.1:%d/" % main_port)
        await master_client.call_ros(
            "registerPublisher",
            ["/talker", "/chat", "std_msgs/String", "http://127.0.0.1:%d/" % node_port],
        )
        alias_client = RosClient("http://127.0.0.1:%d/node/%%2Ftalker" % main_port)
        result = await alias_client.call_ros("getPid", ["/probe"])
        assert result.value == 31337

        ghost = RosClient("http://127.0.0.1:%d/node/%%2Fghost" % main_port)
        response = await ghost.call("getPid", ["/probe"])
        assert isinstance(response, MethodFault)
    finally:
        await gateway.stop()
        await close_server(node)
        await close_server(upstream)
        await registry.purge_all()
