"""Acceptance gate: the nine end-to-end properties the proxy must hold.

Each test prints (and registers for the terminal summary) one verdict
line, so a full run ends with a per-criterion PASS/FAIL table. The
criteria lean on independent oracles where possible: payload digests,
recorded dials, master-state snapshots, allocator journals, wall-clock
timing — not on the proxy's own logs.
"""

import asyncio
import functools
import hashlib
import inspect
import time

import pytest

import conftest
from rosproxy.app import ProxyApp
from rosproxy.harness.dial import DialLog
from rosproxy.harness.master import MiniMaster
from rosproxy.harness.nodes import Listener, ServiceNode, Talker
from rosproxy.harness.scenarios import (
    ADVERTISED_HOST,
    EXTERNAL_HOST,
    INTERNAL_NODE_HOST,
    ScenarioReport,
    scenario_pubsub,
    scenario_service,
    scenario_stale,
    segment,
)
from rosproxy.harness.rpc import RosClient
from rosproxy.http11 import close_server, serve_xmlrpc, split_http_uri, split_rosrpc_uri
from rosproxy.master_gateway import REWRITE_RULES
from rosproxy.ports import Exhausted, PortAllocator, PortRange
from rosproxy.relay import close_relay, open_relay
from rosproxy.xmlrpc_codec import (
    CodecError,
    MethodCall,
    MethodFault,
    MethodSuccess,
    encode_call,
    encode_response,
    parse_call,
    parse_response,
)

from helpers import free_port, free_range, make_config, make_rng, random_rpc_value, same_value


def criterion(number, label):
    """Record one PASS/FAIL line per criterion, then let pytest judge."""

    def decorate(fn):
        def record(verdict):
            line = "criterion %d %-28s %s" % (number, label, verdict)
            print(line)
            conftest.ACCEPTANCE_LINES.append(line)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    record("FAIL")
                    raise
                record("PASS")
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    record("FAIL")
                    raise
                record("PASS")
                return result

        return wrapper

    return decorate


# -- 1: end-to-end proxied pubsub ---------------------------------------


@criterion(1, "proxied-pubsub-e2e")
async def test_criterion_1_proxied_pubsub():
    report = await scenario_pubsub("proxied", payload_count=12)
    assert report.ok, report.lines()
    assert report.details["delivered"] == "true"
    assert float(report.details["duration_s"]) < 10.0
    assert report.details["dial_violations"] == "0"
    assert report.details["leases_final"] == "0"


# -- 2: registry hygiene ------------------------------------------------


@criterion(2, "registry-hygiene")
async def test_criterion_2_registry_hygiene():
    report = ScenarioReport("hygiene", "proxied")
    async with segment(report) as seg:
        master, proxy = seg.master, seg.proxy
        talker = seg.adopt(Talker("/talker", seg.internal_master_uri, "/chat", [b"x"],
                                  host=INTERNAL_NODE_HOST, dial_log=seg.dial_log))
        service = seg.adopt(ServiceNode("/echoer", seg.internal_master_uri, "/echo",
                                        host=INTERNAL_NODE_HOST, dial_log=seg.dial_log))
        listener = seg.adopt(Listener("/listener", master.uri, "/chat", 1,
                                      host=EXTERNAL_HOST, dial_log=seg.dial_log))
        await talker.start()
        await service.start()
        await listener.start()

        low = proxy.port_range.low + proxy.config.host_port_offset
        high = proxy.port_range.high + proxy.config.host_port_offset
        violations = []
        checked = 0
        for name in ("/talker", "/echoer"):
            uris = master.state.uris_of(name)
            assert uris, "%s has no registration at the master" % name
            for uri in uris:
                checked += 1
                if uri.startswith("rosrpc://"):
                    host, port = split_rosrpc_uri(uri)
                else:
                    host, port, _ = split_http_uri(uri)
                if host != ADVERTISED_HOST or not (low <= port <= high):
                    violations.append("%s -> %s" % (name, uri))
        assert checked >= 3  # talker api, service api, service rosrpc
        assert violations == [], violations

        # external registrations stay untouched
        listener_uris = master.state.uris_of("/listener")
        assert listener_uris == {listener.slave_uri}
        assert all(EXTERNAL_HOST in u for u in listener_uris)
    # segment records a lease left after the proxy stops in the report
    assert report.ok, report.failures


# -- 3: rewrite completeness --------------------------------------------


@criterion(3, "rewrite-completeness")
async def test_criterion_3_rewrite_completeness():
    recorded = []

    async def upstream_dispatch(path, call, peer):
        recorded.append((call.method_name, list(call.params)))
        return MethodSuccess([1, "ok", 1])

    upstream_port = free_port()
    upstream = await serve_xmlrpc("127.0.0.1", upstream_port, upstream_dispatch)

    config = make_config("http://127.0.0.1:%d/" % upstream_port, bind_host="",
                         advertised_host=ADVERTISED_HOST)
    low, high = config.port_range.low, config.port_range.high
    app = ProxyApp(config)
    registry, gateway = app.registry, app.master_gateway

    # a real internal slave so requestTopic has something to answer it
    data_port = free_port(INTERNAL_NODE_HOST)

    async def slave_dispatch(path, call, peer):
        assert call.method_name == "requestTopic"
        return MethodSuccess([1, "ready", ["TCPROS", INTERNAL_NODE_HOST, data_port]])

    slave = await serve_xmlrpc(INTERNAL_NODE_HOST, 0, slave_dispatch)
    slave_port = slave.sockets[0].getsockname()[1]
    slave_uri = "http://%s:%d/" % (INTERNAL_NODE_HOST, slave_port)

    try:
        calls = {
            "registerPublisher": ["/pnode", "/chat", "std_msgs/String", slave_uri],
            "unregisterPublisher": ["/pnode", "/chat", slave_uri],
            "registerSubscriber": ["/snode", "/chat", "std_msgs/String", slave_uri],
            "unregisterSubscriber": ["/snode", "/chat", slave_uri],
            "registerService": ["/vnode", "/echo",
                                "rosrpc://%s:7501" % INTERNAL_NODE_HOST, slave_uri],
        }
        for method, params in calls.items():
            rule = REWRITE_RULES[method]
            recorded.clear()
            response = await gateway.handle_master_call(
                MethodCall(method, list(params)), (INTERNAL_NODE_HOST, 1)
            )
            assert response == MethodSuccess([1, "ok", 1])
            assert len(recorded) == 1
            got_method, got_params = recorded[0]
            assert got_method == method

            rewritten = {rule.caller_api_index}
            if rule.service_api_index is not None:
                rewritten.add(rule.service_api_index)
            for idx, (before, after) in enumerate(zip(params, got_params)):
                if idx in rewritten:
                    assert before != after, "%s[%d] was not rewritten" % (method, idx)
                else:
                    assert same_value(before, after), \
                        "%s[%d] changed: %r -> %r" % (method, idx, before, after)

            api_host, api_port, _ = split_http_uri(got_params[rule.caller_api_index])
            assert api_host == ADVERTISED_HOST
            assert low <= api_port <= high
            if rule.service_api_index is not None:
                srv_host, srv_port = split_rosrpc_uri(got_params[rule.service_api_index])
                assert srv_host == ADVERTISED_HOST
                assert low <= srv_port <= high

        # requestTopic: same answer frame, only transport host:port move
        record = registry.get("/pnode")
        direct = await RosClient(slave_uri).call_ros(
            "requestTopic", ["/sub", "/chat", [["TCPROS"]]]
        )
        proxied = await RosClient(
            "http://%s:%d/" % (ADVERTISED_HOST, record.gateway_port)
        ).call_ros("requestTopic", ["/sub", "/chat", [["TCPROS"]]])

        assert proxied.code == direct.code == 1
        assert proxied.status_message == direct.status_message
        assert direct.value == ["TCPROS", INTERNAL_NODE_HOST, data_port]
        assert proxied.value[0] == "TCPROS"
        assert proxied.value[1] == ADVERTISED_HOST
        assert low <= proxied.value[2] <= high
        assert proxied.value[2] != direct.value[2]
    finally:
        await close_server(upstream)
        await close_server(slave)
        await registry.purge_all()
    assert registry.allocator.live_leases() == []


# -- 4: relay transparency ----------------------------------------------

MIB = 1024 * 1024
BULK_BYTES = 64 * MIB


@criterion(4, "relay-transparency")
async def test_criterion_4_relay_transparency():
    rng = make_rng(404)
    buf = rng.randbytes(BULK_BYTES)
    want = hashlib.sha256(buf).hexdigest()

    server_state = {}
    phase_a_done = asyncio.Event()

    async def bulk_server(reader, writer):
        h = hashlib.sha256()
        while True:
            chunk = await reader.read(256 * 1024)
            if not chunk:
                break
            h.update(chunk)
        server_state["digest"] = h.hexdigest()
        server_state["received_at"] = time.monotonic()
        phase_a_done.set()
        view = memoryview(buf)
        for off in range(0, len(view), 256 * 1024):
            writer.write(view[off:off + 256 * 1024])
            await writer.drain()
        writer.close()

    target = await asyncio.start_server(bulk_server, "127.0.0.1", 0)
    target_port = target.sockets[0].getsockname()[1]

    low, high = free_range(4)
    allocator = PortAllocator(PortRange(low, high))
    lease = allocator.lease("tcpros_relay", ("127.0.0.1", target_port), "/bulk")
    relay = await open_relay(lease, "127.0.0.1", "127.0.0.1", target_port)

    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", relay.port)
        started = time.monotonic()
        view = memoryview(buf)
        for off in range(0, len(view), 256 * 1024):
            writer.write(view[off:off + 256 * 1024])
            await writer.drain()
        writer.write_eof()
        await asyncio.wait_for(phase_a_done.wait(), 30)
        upload_seconds = server_state["received_at"] - started

        h = hashlib.sha256()
        reply_started = time.monotonic()
        while True:
            chunk = await reader.read(256 * 1024)
            if not chunk:
                break
            h.update(chunk)
        download_seconds = time.monotonic() - reply_started
        writer.close()

        assert server_state["digest"] == want, "upload corrupted in transit"
        assert h.hexdigest() == want, "download corrupted in transit"
        up_rate = BULK_BYTES / MIB / upload_seconds
        down_rate = BULK_BYTES / MIB / download_seconds
        print("relay throughput: %.0f MiB/s up, %.0f MiB/s down" % (up_rate, down_rate))
        assert up_rate >= 50.0, "upload %.1f MiB/s below floor" % up_rate
        assert down_rate >= 50.0, "download %.1f MiB/s below floor" % down_rate
    finally:
        await close_relay(relay)
        allocator.release(lease)
        target.close()
        await target.wait_closed()

    # 16 concurrent independent streams through one relay, echoed back
    async def echo_server(reader, writer):
        while True:
            chunk = await reader.read(64 * 1024)
            if not chunk:
                break
            writer.write(chunk)
            await writer.drain()
        try:
            writer.write_eof()
        except OSError:
            pass
        writer.close()

    echo = await asyncio.start_server(echo_server, "127.0.0.1", 0)
    echo_port = echo.sockets[0].getsockname()[1]
    lease2 = allocator.lease("tcpros_relay", ("127.0.0.1", echo_port), "/echo")
    relay2 = await open_relay(lease2, "127.0.0.1", "127.0.0.1", echo_port)

    blocks = [rng.randbytes(MIB) for _ in range(16)]

    async def one_client(block):
        reader, writer = await asyncio.open_connection("127.0.0.1", relay2.port)
        async def send():
            view = memoryview(block)
            for off in range(0, len(view), 64 * 1024):
                writer.write(view[off:off + 64 * 1024])
                await writer.drain()
            writer.write_eof()
        async def receive():
            h = hashlib.sha256()
            while True:
                chunk = await reader.read(64 * 1024)
                if not chunk:
                    return h.hexdigest()
                h.update(chunk)
        _, got = await asyncio.gather(send(), receive())
        writer.close()
        return got

    try:
        digests = await asyncio.gather(*(one_client(b) for b in blocks))
        assert digests == [hashlib.sha256(b).hexdigest() for b in blocks]
        assert relay2.accepted_total == 16
    finally:
        await close_relay(relay2)
        allocator.release(lease2)
        echo.close()
        await echo.wait_closed()
    assert allocator.live_leases() == []


# -- 5: stale node lifecycle --------------------------------------------


@criterion(5, "stale-node-lifecycle")
async def test_criterion_5_stale_lifecycle():
    report = await scenario_stale("proxied", ping_interval=1.0, ping_failures=3)
    assert report.ok, report.lines()
    refusal = float(report.details["refusal_after_s"])
    released = float(report.details["leases_released_after_s"])
    # third failed ping lands ~3s after the kill; one ping of slack each way
    assert 2.0 <= refusal <= 4.0, "gateway refusal at %.2fs" % refusal
    assert 2.0 <= released <= 4.5, "lease release at %.2fs" % released
    assert "/talker" in report.details["cleanup_removed"]
    assert report.details["master_clean"] == "true"
    assert report.details["leases_final"] == "0"


# -- 6: resource conservation -------------------------------------------


@criterion(6, "resource-conservation")
async def test_criterion_6_resource_conservation():
    master = MiniMaster("127.0.0.1", free_port())
    await master.start()

    app = ProxyApp(make_config(master.uri, range_size=56, advertised_host=ADVERTISED_HOST))
    registry, gateway, allocator = app.registry, app.master_gateway, app.registry.allocator

    rng = make_rng(606)
    node_count = 12
    apis = {
        "/walker%d" % i: "http://127.0.9.1:%d/" % (6000 + i)
        for i in range(node_count)
    }
    # node -> {"regs": {(kind, name)}, "relays": {target}}
    model = {}

    def expectation():
        return sum(1 + len(entry["relays"]) for entry in model.values())

    def model_node(name):
        return model.setdefault(name, {"regs": set(), "relays": set()})

    async def send(method, params):
        response = await gateway.handle_master_call(
            MethodCall(method, params), ("127.0.9.1", 1)
        )
        assert isinstance(response, MethodSuccess), response

    events = 0
    try:
        while events < 1200:
            events += 1
            name = "/walker%d" % rng.randrange(node_count)
            api = apis[name]
            roll = rng.random()
            if roll < 0.22:
                topic = "/t%d" % rng.randrange(3)
                await send("registerPublisher", [name, topic, "std_msgs/String", api])
                model_node(name)["regs"].add(("pub", topic))
            elif roll < 0.42:
                topic = "/t%d" % rng.randrange(3)
                await send("registerSubscriber", [name, topic, "std_msgs/String", api])
                model_node(name)["regs"].add(("sub", topic))
            elif roll < 0.60:
                svc = rng.randrange(3)
                target_port = 7000 + int(name[7:]) * 8 + svc
                await send("registerService",
                           [name, "/s%d" % svc, "rosrpc://127.0.9.1:%d" % target_port, api])
                entry = model_node(name)
                entry["regs"].add(("service", "/s%d" % svc))
                entry["relays"].add(("127.0.9.1", target_port))
            elif roll < 0.80:
                entry = model.get(name)
                regs = [r for r in (entry["regs"] if entry else ())
                        if r[0] in ("pub", "sub")]
                if regs:
                    kind, topic = rng.choice(sorted(regs))
                    method = "unregisterPublisher" if kind == "pub" else "unregisterSubscriber"
                    await send(method, [name, topic, api])
                    entry["regs"].discard((kind, topic))
                else:
                    # unregister of something never registered still goes out
                    await send("unregisterPublisher", [name, "/t0", api])
                    model_node(name)
            elif roll < 0.88:
                await send("unregisterSubscriber", [name, "/phantom", api])
                model_node(name)
            elif model:
                victim = rng.choice(sorted(model))
                await registry.purge_record(registry.get(victim))
                model.pop(victim)
            else:
                await send("registerPublisher", [name, "/t0", "std_msgs/String", api])
                model_node(name)["regs"].add(("pub", "/t0"))

            live = len(allocator.live_leases())
            assert live == expectation(), (
                "event %d: %d leases live, model expects %d"
                % (events, live, expectation())
            )

        assert events >= 1000
        assert len({n for n in model}) >= 8 or node_count >= 8
    finally:
        await registry.purge_all()
        await master.stop()
    assert allocator.live_leases() == [], "leases leaked after teardown"
    assert registry.nodes == {}


# -- 7: port determinism and exhaustion ----------------------------------


@criterion(7, "port-determinism")
async def test_criterion_7_port_determinism_and_exhaustion():
    # one deployment, replayed by two fresh proxies
    config = make_config(advertised_host=ADVERTISED_HOST)

    async def scripted_run():
        registry = ProxyApp(config).registry
        allocator = registry.allocator
        a = await registry.ensure_node("/a", "http://127.0.9.1:6001/")
        b = await registry.ensure_node("/b", "http://127.0.9.1:6002/")
        b_port = b.gateway_port
        await registry.lease_relay("/a", "127.0.9.1", 7101)
        await registry.ensure_node("/c", "http://127.0.9.1:6003/")
        await registry.purge_record(registry.get("/b"))
        d = await registry.ensure_node("/d", "http://127.0.9.1:6004/")
        await registry.lease_relay("/d", "127.0.9.1", 7102)
        await registry.lease_relay("/a", "127.0.9.1", 7101)  # dedup, no new lease
        reused = d.gateway_port == b_port
        journal = list(allocator.history)
        await registry.purge_all()
        assert allocator.live_leases() == []
        return journal, reused, a.gateway_port

    first_journal, first_reused, _ = await scripted_run()
    second_journal, second_reused, _ = await scripted_run()

    assert first_journal == second_journal, "replay produced different ports"
    assert first_reused and second_reused, "freed port was not reused lowest-first"
    assert len(first_journal) == 6  # 4 gateways + 2 relays; dedup adds nothing

    # exhaustion: two ports cannot carry three nodes, and the error says so
    config = make_config(range_size=2, advertised_host=ADVERTISED_HOST)
    registry = ProxyApp(config).registry
    try:
        await registry.ensure_node("/one", "http://127.0.9.1:6001/")
        await registry.ensure_node("/two", "http://127.0.9.1:6002/")
        with pytest.raises(Exhausted) as caught:
            await registry.ensure_node("/three", "http://127.0.9.1:6003/")
        assert str(config.port_range) in str(caught.value)
    finally:
        await registry.purge_all()
    assert registry.allocator.live_leases() == []


# -- 8: codec round-trip volume ------------------------------------------


@criterion(8, "codec-round-trip")
def test_criterion_8_codec_round_trip_and_fuzz():
    rng = make_rng(808)
    failures = []

    for i in range(10_000):
        shape = i % 3
        if shape == 0:
            call = MethodCall(
                "m%d" % rng.randrange(100),
                [random_rpc_value(rng, 0, 8) for _ in range(rng.randrange(3))],
            )
            back = parse_call(encode_call(call))
            if back.method_name != call.method_name or not same_value(
                back.params, call.params
            ):
                failures.append(("call", i))
        elif shape == 1:
            resp = MethodSuccess(random_rpc_value(rng, 0, 8))
            back = parse_response(encode_response(resp))
            if not (isinstance(back, MethodSuccess) and same_value(back.value, resp.value)):
                failures.append(("success", i))
        else:
            fault = MethodFault(rng.randint(-40000, 40000), "f%d" % i)
            back = parse_response(encode_response(fault))
            if back != fault:
                failures.append(("fault", i))
    assert failures == [], "round-trip mismatches: %r" % failures[:5]

    # mutation fuzz: parser, and a deferred decode, must answer with
    # CodecError, never anything else
    seed_docs = [
        encode_call(MethodCall("requestTopic", ["/n", "/t", [["TCPROS"]]])),
        encode_response(MethodSuccess([1, "ok", ["TCPROS", "h", 1]])),
        encode_response(MethodFault(-32000, "boom")),
    ]
    crashes = []
    for i in range(3_000):
        doc = bytearray(rng.choice(seed_docs))
        for _ in range(rng.randrange(1, 8)):
            op = rng.randrange(3)
            pos = rng.randrange(len(doc)) if doc else 0
            if op == 0 and doc:
                doc[pos] = rng.randrange(256)
            elif op == 1 and doc:
                del doc[pos]
            else:
                doc.insert(pos, rng.randrange(256))
        for parser in (parse_call, parse_response):
            try:
                parsed = parser(bytes(doc))
                if isinstance(parsed, MethodSuccess):
                    parsed.value  # the decode parse_response defers
            except CodecError:
                pass
            except Exception as exc:  # noqa: BLE001 - the point of the fuzz
                crashes.append((i, parser.__name__, repr(exc)))
    for i in range(1_000):
        blob = rng.randbytes(rng.randrange(200))
        for parser in (parse_call, parse_response):
            try:
                parsed = parser(blob)
                if isinstance(parsed, MethodSuccess):
                    parsed.value  # the decode parse_response defers
            except CodecError:
                pass
            except Exception as exc:  # noqa: BLE001
                crashes.append((i, parser.__name__, repr(exc)))
    assert crashes == [], "parser crashed: %r" % crashes[:5]


# -- 9: transparency equivalence ------------------------------------------


@criterion(9, "transparency-equivalence")
async def test_criterion_9_direct_vs_proxied_equivalence():
    for listener_first in (False, True):
        direct = await scenario_pubsub("direct", listener_first=listener_first)
        proxied = await scenario_pubsub("proxied", listener_first=listener_first)
        assert direct.ok, direct.lines()
        assert proxied.ok, proxied.lines()
        assert (
            direct.details["payload_sha256"] == proxied.details["payload_sha256"]
        ), "payload stream diverged between modes"
        assert direct.details["payloads_received"] == proxied.details["payloads_received"]

    direct = await scenario_service("direct")
    proxied = await scenario_service("proxied")
    assert direct.ok and proxied.ok
    assert direct.details["echo_ok"] == proxied.details["echo_ok"] == "true"

    direct = await scenario_stale("direct")
    proxied = await scenario_stale("proxied", ping_interval=0.25)
    assert direct.ok, direct.lines()
    assert proxied.ok, proxied.lines()
    assert direct.details["master_clean"] == proxied.details["master_clean"] == "true"
