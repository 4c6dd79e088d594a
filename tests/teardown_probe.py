"""Teardown under held connections, standard library only.

Holds peers on three kinds of port of a running ProxyApp: an idle
keep-alive client on the main port, one on a node's gateway, and on a
relay an idle client plus one that stops reading while the target floods
it. The upstream master and the node answer on kept-alive connections,
so the proxy also holds idle pooled connections to both. Then it
restarts the node's caller_id with a new URI, purges the node, and stops
the app, timing each step. The restart gets its gateway port back, so it
must keep that port's listening sockets. It reports the pooled
connections at the start of teardown and after stop, and the leases,
tasks and file descriptors left behind. It also closes a port 0 to 6
loop turns after a client connects to it: each time, the connection
must end with the port and leave no handler. The proxy binds every
interface (bind host ""), and after it has started no listener may
submit a job (a getaddrinfo) to the loop's default executor.

Run as a script (``PYTHONPATH=src python tests/teardown_probe.py``), it
prints the report as JSON and exits 1 if any check failed, so any
installed interpreter can run it without pytest.
"""

import asyncio
import json
import os
import socket
import sys
import time

from rosproxy.app import ProxyApp
from rosproxy.harness.rpc import RosClient
from rosproxy.http11 import close_server, connection_tasks, listen, serve_xmlrpc
from rosproxy.xmlrpc_codec import MethodCall, MethodSuccess, encode_call

from helpers import CountingExecutor, free_port, make_config

STEP_LIMIT_S = 0.5  # each teardown step must finish within this
STUCK_S = 3.0  # a step still running after this is reported as stuck
HOST = "127.0.0.1"
CALLER_ID = "/flooder"


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def pending_tasks() -> list:
    current = asyncio.current_task()
    return sorted(repr(t) for t in asyncio.all_tasks() if t is not current and not t.done())


async def settle(predicate, timeout=1.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        await asyncio.sleep(interval)
    return True


async def idle_keep_alive_peer(port: int):
    """Make one keep-alive call on port, then hold the connection idle."""
    reader, writer = await asyncio.open_connection(HOST, port)
    body = encode_call(MethodCall("getPid", [CALLER_ID]))
    writer.write(b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
    await writer.drain()
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    await reader.readexactly(length)
    return writer


async def start_stubs(live_targets: set):
    """Upstream master, the node's slave API, and its TCPROS target, which
    keeps its open connections in live_targets."""

    async def upstream(path, call, peer):
        return MethodSuccess([1, "ok", []])

    async def target(reader, writer):
        # "flood\n" asks for bytes without end; anything else gets silence
        live_targets.add(writer)
        try:
            if await reader.readline() == b"flood\n":
                while True:
                    writer.write(b"x" * 65536)
                    await writer.drain()
            await reader.read()
        except (ConnectionError, OSError):
            pass
        finally:
            live_targets.discard(writer)
            writer.close()

    target_server = await asyncio.start_server(target, HOST, 0)
    target_port = target_server.sockets[0].getsockname()[1]

    async def node(path, call, peer):
        if call.method_name == "requestTopic":
            return MethodSuccess([1, "ready", ["TCPROS", HOST, target_port]])
        return MethodSuccess([1, "ok", 0])

    upstream_port, node_port = free_port(), free_port()
    servers = [
        target_server,
        await serve_xmlrpc(HOST, upstream_port, upstream),
        await serve_xmlrpc(HOST, node_port, node),
    ]
    return servers, upstream_port, node_port


async def late_accepts() -> list:
    """The loop turns (0 to 6) between a connect and its port's close
    after which the connection did not end, or left a handler behind."""
    loop = asyncio.get_running_loop()
    failed = []
    for turns in range(7):
        server = await listen(HOST, 0, lambda reader, writer: reader.read())
        client = socket.create_connection(server.sockets[0].getsockname()[:2])
        client.setblocking(False)
        try:
            for _ in range(turns):
                await asyncio.sleep(0)
            closed = await timed(close_server(server)) < STEP_LIMIT_S
            for _ in range(6):
                await asyncio.sleep(0)
            try:
                ended = await asyncio.wait_for(loop.sock_recv(client, 1), STUCK_S) == b""
            except ConnectionResetError:
                ended = True
            except asyncio.TimeoutError:
                ended = False
            if not (closed and ended) or connection_tasks[server]:
                failed.append(turns)
        finally:
            client.close()
    return failed


async def timed(step) -> float:
    started = time.monotonic()
    try:
        await asyncio.wait_for(step, STUCK_S)
    except asyncio.TimeoutError:
        return float("inf")
    return round(time.monotonic() - started, 4)


async def probe() -> dict:
    executor = CountingExecutor()
    asyncio.get_running_loop().set_default_executor(executor)
    fds_before = open_fds()
    live_targets = set()
    servers, upstream_port, node_port = await start_stubs(live_targets)
    config = make_config(
        "http://%s:%d/" % (HOST, upstream_port), range_size=6, bind_host="", advertised_host=HOST
    ).validate()
    app = ProxyApp(config)
    await app.start()
    jobs_at_start = executor.jobs
    master = RosClient("http://%s:%d/" % (HOST, config.main_port), timeout=2.0)

    async def register(node_uri):
        result = await master.call_ros(
            "registerPublisher", [CALLER_ID, "/chat", "std_msgs/String", node_uri]
        )
        assert result.code == 1, result

    await register("http://%s:%d/" % (HOST, node_port))
    record = app.registry.get(CALLER_ID)
    peers = [
        await idle_keep_alive_peer(config.main_port),
        await idle_keep_alive_peer(record.gateway_port),
    ]
    gateway = RosClient("http://%s:%d/" % (HOST, record.gateway_port), timeout=2.0)
    topic = await gateway.call_ros("requestTopic", ["/sub", "/chat", [["TCPROS"]]])
    relay_port = topic.value[2]
    (relay,) = record.tcpros_relays.values()
    for request in (b"", b"flood\n"):
        _, writer = await asyncio.open_connection(HOST, relay_port)
        writer.write(request)
        peers.append(writer)
    # the flood has filled every buffer once bytes_out stops growing
    seen = [-1]

    def flood_stalled():
        stalled = relay.bytes_out > 0 and relay.bytes_out == seen[0]
        seen[0] = relay.bytes_out
        return stalled

    await settle(lambda: relay.connection_count() == 2, timeout=STUCK_S)
    await settle(flood_stalled, timeout=STUCK_S, interval=0.05)

    report = {"python": sys.version.split()[0], "relay_bytes_out": relay.bytes_out}
    report["pooled_at_start"] = app.registry.pool.idle_count()
    listener = record.gateway_server
    filenos = [sock.fileno() for sock in listener.sockets]
    report["restart_s"] = await timed(register("http://%s:%d/restarted" % (HOST, node_port)))
    fresh = app.registry.get(CALLER_ID)
    report["gateway_kept"] = (
        fresh.gateway_server is listener
        and listener.is_serving()
        and [sock.fileno() for sock in listener.sockets] == filenos
    )
    peers.append(await idle_keep_alive_peer(fresh.gateway_port))
    report["purge_s"] = await timed(app.registry.purge_record(app.registry.get(CALLER_ID)))
    report["stop_s"] = await timed(app.stop())
    report["pooled_after_stop"] = app.registry.pool.idle_count()
    report["executor_jobs_after_start"] = executor.jobs - jobs_at_start
    report["leases"] = [repr(lease) for lease in app.registry.allocator.live_leases()]
    # the relay aborted the connections it dialed, so the target saw them end
    await settle(lambda: not live_targets)
    report["target_connections"] = len(live_targets)

    report["late_accept_failed_turns"] = await late_accepts()

    for writer in peers:
        writer.transport.abort()
    for server in servers:
        server.close()
    await timed(asyncio.gather(*(server.wait_closed() for server in servers)))
    report["pending_tasks"] = pending_tasks()
    await settle(lambda: open_fds() == fds_before)
    report["fds"] = [fds_before, open_fds()]
    report["ok"] = (
        all(report[k] < STEP_LIMIT_S for k in ("restart_s", "purge_s", "stop_s"))
        and report["gateway_kept"]
        and not report["late_accept_failed_turns"]
        and report["pooled_at_start"] > 0
        and report["pooled_after_stop"] == 0
        and report["executor_jobs_after_start"] == 0
        and not report["leases"]
        and not report["target_connections"]
        and not report["pending_tasks"]
        and fds_before == open_fds()
    )
    return report


def main() -> int:
    report = asyncio.run(probe())
    print(json.dumps(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
