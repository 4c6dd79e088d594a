"""Registry tests: node lifecycle, refcounts, grace purge, relay
ownership, ping-driven purge, a restart that keeps its gateway port, and
the no-leak resource invariant."""

import asyncio
import logging

import pytest

from rosproxy.app import ProxyApp
from rosproxy.http11 import (
    BindFailed, RpcTransportError, XmlRpcClient, close_server, serve_xmlrpc,
)
from rosproxy.ports import PURPOSE_SLAVE_API, PURPOSE_TCPROS, Exhausted
from rosproxy.registry import (
    KIND_PUB,
    KIND_SERVICE,
    KIND_SUB,
    NodeRecord,
    Registry,
    UnknownNode,
)
from rosproxy.xmlrpc_codec import MethodFault, MethodSuccess

from helpers import free_port, lock_waiters, make_config, make_rng, poll_refused, poll_until


async def stub_gateway(record: NodeRecord):
    async def on_conn(reader, writer):
        writer.close()

    return await asyncio.start_server(on_conn, "127.0.0.1", record.gateway_lease.port)


def make_registry(gateway_factory=stub_gateway, **settings):
    registry = Registry(make_config(**settings), gateway_factory, dial=asyncio.open_connection)
    return registry, registry.allocator


async def test_ensure_node_is_idempotent_for_same_uri():
    registry, allocator = make_registry()
    a = await registry.ensure_node("/talker", "http://127.0.0.1:1234/")
    b = await registry.ensure_node("/talker", "http://127.0.0.1:1234/")
    assert a is b
    assert a.gateway_port == b.gateway_port
    assert len(allocator.live_leases()) == 1
    await registry.purge_all()


async def test_uri_change_recycles_resources():
    registry, allocator = make_registry()
    # occupy the lowest port with another node, then free it, so the
    # restarted node demonstrably lands on a different port than before
    await registry.ensure_node("/first", "http://127.0.0.1:1000/")
    moved = await registry.ensure_node("/mover", "http://127.0.0.1:2000/")
    old_port = moved.gateway_port
    old_server = moved.gateway_server
    await registry.purge_record(registry.get("/first"))  # frees a port below old_port

    fresh = await registry.ensure_node("/mover", "http://127.0.0.1:2001/")
    assert fresh is not moved
    assert fresh.real_slave_uri == "http://127.0.0.1:2001/"
    assert fresh.gateway_port != old_port
    assert not old_server.is_serving()
    await poll_refused("127.0.0.1", old_port, timeout=2.0)
    assert len(allocator.live_leases()) == 1
    await registry.purge_all()


async def test_exhausted_leaves_no_partial_record():
    registry, allocator = make_registry(range_size=1)
    await registry.ensure_node("/only", "http://127.0.0.1:1/")
    with pytest.raises(Exhausted):
        await registry.ensure_node("/second", "http://127.0.0.1:2/")
    assert "/second" not in registry.nodes
    assert len(allocator.live_leases()) == 1  # first node untouched
    await registry.purge_all()
    assert allocator.live_leases() == []


async def test_gateway_start_failure_releases_lease():
    async def broken_factory(record):
        raise BindFailed("synthetic")

    registry, allocator = make_registry(broken_factory, range_size=4)
    with pytest.raises(BindFailed):
        await registry.ensure_node("/x", "http://127.0.0.1:1/")
    assert allocator.live_leases() == []
    assert registry.nodes == {}


async def test_refcounts_use_set_semantics():
    registry, _ = make_registry()
    await registry.ensure_node("/n", "http://127.0.0.1:1/")
    assert registry.add_registration("/n", KIND_PUB, "/chat") == 1
    assert registry.add_registration("/n", KIND_PUB, "/chat") == 1  # no double count
    assert registry.add_registration("/n", KIND_SUB, "/other") == 2
    assert registry.add_registration("/n", KIND_SERVICE, "/srv") == 3
    assert registry.remove_registration("/n", KIND_PUB, "/chat") == 2
    assert registry.remove_registration("/n", KIND_PUB, "/chat") == 2  # absent: unchanged
    with pytest.raises(UnknownNode):
        registry.add_registration("/ghost", KIND_PUB, "/chat")
    with pytest.raises(ValueError):
        registry.add_registration("/n", "bogus", "/chat")
    await registry.purge_all()


async def test_zero_refcount_purges_after_grace():
    registry, allocator = make_registry(purge_grace=0.15)
    record = await registry.ensure_node("/n", "http://127.0.0.1:1/")
    port = record.gateway_port
    registry.add_registration("/n", KIND_PUB, "/chat")
    assert registry.remove_registration("/n", KIND_PUB, "/chat") == 0
    assert "/n" in registry.nodes  # not yet: grace running
    await poll_until(lambda: "/n" not in registry.nodes, timeout=2.0)
    await poll_refused("127.0.0.1", port, timeout=2.0)
    assert allocator.live_leases() == []


async def test_reregistration_within_grace_cancels_purge():
    registry, allocator = make_registry(purge_grace=0.15)
    await registry.ensure_node("/n", "http://127.0.0.1:1/")
    registry.add_registration("/n", KIND_SUB, "/chat")
    registry.remove_registration("/n", KIND_SUB, "/chat")
    registry.add_registration("/n", KIND_SUB, "/chat")  # back within grace
    await asyncio.sleep(0.4)
    assert "/n" in registry.nodes
    assert len(allocator.live_leases()) == 1
    await registry.purge_all()


async def test_lease_relay_dedups_by_target():
    registry, allocator = make_registry()
    await registry.ensure_node("/n", "http://127.0.0.1:1/")
    a = await registry.lease_relay("/n", "127.0.0.1", 50001)
    b = await registry.lease_relay("/n", "127.0.0.1", 50001)
    c = await registry.lease_relay("/n", "127.0.0.1", 50002)
    assert a is b
    assert c is not a
    assert len(allocator.live_leases()) == 3  # gateway + two relays
    record = registry.get("/n")
    assert set(record.tcpros_relays) == {("127.0.0.1", 50001), ("127.0.0.1", 50002)}
    await registry.purge_all()
    assert not a.server.is_serving() and not c.server.is_serving()
    assert allocator.live_leases() == []


async def test_purge_closes_gateway_port_first_and_frees_everything():
    registry, allocator = make_registry()
    record = await registry.ensure_node("/n", "http://127.0.0.1:1/")
    await registry.lease_relay("/n", "127.0.0.1", 50001)
    gateway_port = record.gateway_port
    await registry.purge_record(registry.get("/n"))
    await poll_refused("127.0.0.1", gateway_port, timeout=2.0)
    assert allocator.live_leases() == []
    assert "/n" not in registry.nodes
    with pytest.raises(UnknownNode):
        await registry.purge_record(registry.get("/n"))


async def test_purge_then_ensure_same_id_gives_fresh_state():
    registry, _ = make_registry()
    await registry.ensure_node("/n", "http://127.0.0.1:1/")
    registry.add_registration("/n", KIND_PUB, "/chat")
    await registry.lease_relay("/n", "127.0.0.1", 50001)
    await registry.purge_record(registry.get("/n"))
    fresh = await registry.ensure_node("/n", "http://127.0.0.1:1/")
    assert fresh.refcount() == 0
    assert fresh.tcpros_relays == {}
    await registry.purge_all()


# -- a restart that gets its gateway port back ------------------------


def proxy_registry(**settings):
    """A registry whose gateways are the proxy's own slave gateways."""
    return ProxyApp(make_config(**settings)).registry


async def start_node(pid, arrived=None, gate=None):
    """A slave API answering getPid with pid. With gate, it sets arrived
    when a call comes in and answers only once gate is set."""

    async def dispatch(path, call, peer):
        if gate is not None:
            arrived.set()
            await gate.wait()
        return MethodSuccess([1, "", pid])

    port = free_port()
    return await serve_xmlrpc("127.0.0.1", port, dispatch), "http://127.0.0.1:%d/" % port


async def test_same_port_restart_keeps_the_listener(caplog):
    registry = proxy_registry()
    old = await registry.ensure_node("/n", "http://127.0.0.1:1/")
    server = old.gateway_server
    filenos = [sock.fileno() for sock in server.sockets]
    with caplog.at_level(logging.INFO, logger="rosproxy.registry"):
        fresh = await registry.ensure_node("/n", "http://127.0.0.1:2/")
    assert fresh.gateway_port == old.gateway_port
    assert fresh.gateway_server is server and server.is_serving()
    assert [sock.fileno() for sock in server.sockets] == filenos
    assert [r.getMessage() for r in caplog.records if r.name == "rosproxy.registry"] == [
        "node /n moved http://127.0.0.1:1/ -> http://127.0.0.1:2/; gateway port %d kept"
        % fresh.gateway_port
    ]
    await registry.purge_all()
    assert not server.is_serving()
    await poll_refused("127.0.0.1", fresh.gateway_port, timeout=2.0)


async def test_restart_leases_as_before():
    registry = proxy_registry()
    low = registry.config.port_range.low
    await registry.ensure_node("/n", "http://127.0.0.1:1/")
    await registry.lease_relay("/n", "127.0.0.1", 50001)
    await registry.ensure_node("/n", "http://127.0.0.1:2/")
    await registry.lease_relay("/n", "127.0.0.1", 50001)
    await registry.purge_record(registry.get("/n"))
    assert list(registry.allocator.history) == [
        (low, PURPOSE_SLAVE_API, "/n"),
        (low + 1, PURPOSE_TCPROS, "/n"),
        (low, PURPOSE_SLAVE_API, "/n"),
        (low + 1, PURPOSE_TCPROS, "/n"),
    ]
    assert registry.allocator.live_leases() == []


async def test_restart_aborts_a_gateway_call_in_flight():
    arrived, gate = asyncio.Event(), asyncio.Event()
    node, uri = await start_node(1, arrived, gate)
    registry = proxy_registry()
    try:
        record = await registry.ensure_node("/n", uri)
        gateway = XmlRpcClient("http://127.0.0.1:%d/" % record.gateway_port, timeout=5.0)
        call = asyncio.ensure_future(gateway.call("getPid", ["/probe"]))
        await asyncio.wait_for(arrived.wait(), 2.0)
        fresh = await registry.ensure_node("/n", "http://127.0.0.1:%d/" % free_port())
        assert fresh.gateway_server is record.gateway_server
        with pytest.raises(RpcTransportError):
            await asyncio.wait_for(call, 2.0)
    finally:
        gate.set()
        await registry.purge_all()
        await close_server(node)


async def test_call_after_restart_reaches_the_new_node_on_the_same_port():
    (old_node, old_uri), (new_node, new_uri) = await start_node(1), await start_node(2)
    registry = proxy_registry()
    try:
        record = await registry.ensure_node("/n", old_uri)
        gateway = XmlRpcClient("http://127.0.0.1:%d/" % record.gateway_port, timeout=2.0)
        assert await gateway.call("getPid", ["/probe"]) == MethodSuccess([1, "", 1])
        fresh = await registry.ensure_node("/n", new_uri)
        assert fresh.gateway_port == record.gateway_port
        assert await gateway.call("getPid", ["/probe"]) == MethodSuccess([1, "", 2])
    finally:
        await registry.purge_all()
        for node in (old_node, new_node):
            await close_server(node)


# -- pinging ---------------------------------------------------------


async def start_slave_stub(behaviour="ok"):
    """A one-method slave API: getPid answering per `behaviour`."""

    async def dispatch(path, call, peer):
        if behaviour == "fault":
            return MethodFault(-32000, "pretend breakage")
        if behaviour == "bad-code":
            return MethodSuccess([0, "unwell", 0])
        return MethodSuccess([1, "pid", 4242])

    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, dispatch)
    return server, "http://127.0.0.1:%d/" % port


async def test_ping_ok_resets_failures():
    registry, _ = make_registry()
    server, uri = await start_slave_stub("ok")
    try:
        record = await registry.ensure_node("/n", uri)
        record.ping_failures = 2  # pretend earlier trouble
        report = await registry.ping_cycle()
        assert report == [("/n", "ok")]
        assert record.ping_failures == 0
    finally:
        await close_server(server)
        await registry.purge_all()


async def test_ping_fault_counts_as_failure():
    registry, _ = make_registry()
    server, uri = await start_slave_stub("fault")
    try:
        record = await registry.ensure_node("/n", uri)
        report = await registry.ping_cycle()
        assert report == [("/n", "failed")]
        assert record.ping_failures == 1
    finally:
        await close_server(server)
        await registry.purge_all()


async def test_ping_bad_result_code_counts_as_failure():
    registry, _ = make_registry()
    server, uri = await start_slave_stub("bad-code")
    try:
        await registry.ensure_node("/n", uri)
        report = await registry.ping_cycle()
        assert report == [("/n", "failed")]
    finally:
        await close_server(server)
        await registry.purge_all()


async def test_dead_node_purged_at_threshold():
    registry, allocator = make_registry(
        request_timeout=1.0, ping_interval=0.5, ping_failure_threshold=3
    )
    server, uri = await start_slave_stub("ok")
    record = await registry.ensure_node("/n", uri)
    gateway_port = record.gateway_port
    assert await registry.ping_cycle() == [("/n", "ok")]

    await close_server(server)  # a dead node also drops the kept-alive ping connection

    assert await registry.ping_cycle() == [("/n", "failed")]
    assert await registry.ping_cycle() == [("/n", "failed")]
    assert await registry.ping_cycle() == [("/n", "purged")]
    assert "/n" not in registry.nodes
    await poll_refused("127.0.0.1", gateway_port, timeout=2.0)
    assert allocator.live_leases() == []


async def test_ping_loop_purges_dead_node_within_budget():
    # interval 0.2s, threshold 3: a freshly killed node should be gone
    # within roughly 3 intervals (+ slack)
    registry, allocator = make_registry(
        request_timeout=1.0, ping_interval=0.2, ping_failure_threshold=3
    )
    server, uri = await start_slave_stub("ok")
    await registry.ensure_node("/n", uri)
    loop_task = asyncio.ensure_future(registry.run_ping_loop())
    try:
        await close_server(server)
        started = asyncio.get_event_loop().time()
        await poll_until(lambda: "/n" not in registry.nodes, timeout=3.0)
        elapsed = asyncio.get_event_loop().time() - started
        assert elapsed <= 1.5  # 3 * 0.2s + generous slack
        assert allocator.live_leases() == []
    finally:
        loop_task.cancel()
        try:
            await loop_task
        except asyncio.CancelledError:
            pass


# -- a stale purge and a restart of the same caller_id ----------------
# The registry lock is held by hand, standing in for any other registry
# change in progress, so the restart and the stale purge queue on it in
# a known order.


async def test_stale_ping_purge_spares_the_restarted_record():
    registry, allocator = make_registry(ping_failure_threshold=1)
    await registry.ensure_node("/n", "http://127.0.0.1:%d/" % free_port())  # refuses
    new_uri = "http://127.0.0.1:%d/" % free_port()
    await registry._lock.acquire()
    restart = asyncio.ensure_future(registry.ensure_node("/n", new_uri))
    await poll_until(lambda: lock_waiters(registry) == 1, timeout=2.0)
    ping = asyncio.ensure_future(registry.ping_cycle())
    await poll_until(lambda: lock_waiters(registry) == 2, timeout=2.0)
    registry._lock.release()
    fresh = await restart
    assert await ping == []  # the stale ping purged nothing
    assert registry.nodes.get("/n") is fresh
    assert fresh.real_slave_uri == new_uri
    assert registry.add_registration("/n", KIND_PUB, "/chat") == 1
    assert len(allocator.live_leases()) == 1
    await registry.purge_all()


async def test_stale_grace_purge_spares_the_restarted_record():
    registry, allocator = make_registry(purge_grace=0.05)
    old = await registry.ensure_node("/n", "http://127.0.0.1:1/")
    registry.add_registration("/n", KIND_PUB, "/chat")
    new_uri = "http://127.0.0.1:2/"
    await registry._lock.acquire()
    assert registry.remove_registration("/n", KIND_PUB, "/chat") == 0  # grace starts
    restart = asyncio.ensure_future(registry.ensure_node("/n", new_uri))
    await poll_until(lambda: lock_waiters(registry) == 1, timeout=2.0)
    # the old record's timer fires and its purge queues behind the restart
    await poll_until(lambda: lock_waiters(registry) == 2, timeout=2.0)
    assert old._grace_timer is None
    registry._lock.release()
    fresh = await restart
    await asyncio.gather(*registry._grace_tasks)
    assert registry.nodes.get("/n") is fresh
    assert registry.add_registration("/n", KIND_PUB, "/chat") == 1
    assert len(allocator.live_leases()) == 1
    await registry.purge_all()


# -- resource conservation (small randomized version) -----------------


async def test_randomized_walk_conserves_resources():
    for seed in (11, 23, 47):
        registry, allocator = make_registry(range_size=16, purge_grace=60.0)
        rng = make_rng(seed)
        ids = ["/n%d" % i for i in range(4)]
        topics = ["/t%d" % i for i in range(5)]
        for _ in range(200):
            action = rng.choice(["ensure", "add", "remove", "relay", "purge", "check"])
            node = rng.choice(ids)
            try:
                if action == "ensure":
                    await registry.ensure_node(node, "http://127.0.0.1:1/")
                elif action == "add":
                    registry.add_registration(
                        node, rng.choice([KIND_PUB, KIND_SUB]), rng.choice(topics)
                    )
                elif action == "remove":
                    registry.remove_registration(
                        node, rng.choice([KIND_PUB, KIND_SUB]), rng.choice(topics)
                    )
                elif action == "relay":
                    await registry.lease_relay(node, "127.0.0.1", rng.randint(50000, 50003))
                elif action == "purge":
                    await registry.purge_record(registry.get(node))
            except (UnknownNode, Exhausted):
                pass
            if action == "check":
                expected = sum(
                    1 + len(r.tcpros_relays)
                    for r in registry.nodes.values()
                    if not r.purged
                )
                assert len(allocator.live_leases()) == expected
        await registry.purge_all()
        assert registry.nodes == {}
        assert allocator.live_leases() == []
