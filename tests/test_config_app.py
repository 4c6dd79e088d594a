"""Configuration parsing/validation and whole-app lifecycle tests."""

import ast
import asyncio
import dataclasses
import logging
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from rosproxy.app import EXIT_CONFIG, EXIT_FATAL, EXIT_OK, ProxyApp, run
from rosproxy.config import SETTINGS, ConfigError, ProxyConfig, load_config
from rosproxy.harness.rpc import RosClient
from rosproxy.http11 import RpcTransportError, close_server, serve_xmlrpc
from rosproxy.ports import PortRange
from rosproxy.registry import KIND_PUB
from rosproxy.xmlrpc_codec import MethodSuccess

from helpers import CountingExecutor, free_port, make_config, poll_until


def test_env_parsing_and_defaults():
    cfg = load_config(
        {
            "ROSPROXY_MASTER_URI": "http://10.0.0.1:11311/",
            "ROSPROXY_ADVERTISED_HOST": "hostA",
            "ROSPROXY_PORT_RANGE": "30000-30010",
        },
        [],
    )
    assert cfg.port_range == PortRange(30000, 30010)
    assert cfg.main_port == 11311
    assert cfg.ping_interval == 10.0
    assert cfg.ping_failure_threshold == 3
    assert cfg.purge_grace == 30.0
    assert cfg.log_level == "info"


def test_flags_override_env():
    cfg = load_config(
        {
            "ROSPROXY_MASTER_URI": "http://10.0.0.1:11311/",
            "ROSPROXY_ADVERTISED_HOST": "hostA",
            "ROSPROXY_PORT": "22311",
            "ROSPROXY_PING_INTERVAL": "7",
        },
        ["--port", "23311", "--ping-failures", "5"],
    )
    assert cfg.main_port == 23311  # flag beat env
    assert cfg.ping_interval == 7.0  # env beat default
    assert cfg.ping_failure_threshold == 5


@pytest.mark.parametrize(
    "env_update, argv, needle",
    [
        ({}, [], "ROSPROXY_MASTER_URI"),
        ({"ROSPROXY_MASTER_URI": "http://h:1/"}, [], "ADVERTISED_HOST"),
        ({"ROSPROXY_PORT_RANGE": "30010-30000"}, [], "PORT_RANGE"),
        ({"ROSPROXY_PORT_RANGE": "oops"}, [], "PORT_RANGE"),
        ({"ROSPROXY_PORT_RANGE": "30000-30000"}, [], "at least 2"),
        ({"ROSPROXY_PORT": "30005", "ROSPROXY_PORT_RANGE": "30000-30010"}, [], "inside the leased range"),
        ({"ROSPROXY_HOST_PORT_OFFSET": "40000"}, [], "HOST_PORT_OFFSET"),
        ({"ROSPROXY_PING_INTERVAL": "0"}, [], "PING_INTERVAL"),
        ({"ROSPROXY_PING_FAILURES": "0"}, [], "PING_FAILURES"),
        ({"ROSPROXY_LOG_LEVEL": "chatty"}, [], "LOG_LEVEL"),
        ({"ROSPROXY_MASTER_URI": "rosrpc://h:1"}, [], "MASTER_URI"),
    ],
)
def test_config_errors_name_the_key(env_update, argv, needle):
    env = {
        "ROSPROXY_MASTER_URI": "http://10.0.0.1:11311/",
        "ROSPROXY_ADVERTISED_HOST": "hostA",
    }
    env.update(env_update)
    if needle == "ROSPROXY_MASTER_URI":
        env.pop("ROSPROXY_MASTER_URI")
    if needle == "ADVERTISED_HOST":
        env.pop("ROSPROXY_ADVERTISED_HOST", None)
    with pytest.raises(ConfigError) as err:
        load_config(env, argv)
    assert needle in str(err.value)


def test_echo_lines_are_key_value():
    cfg = load_config(
        {
            "ROSPROXY_MASTER_URI": "http://10.0.0.1:11311/",
            "ROSPROXY_ADVERTISED_HOST": "hostA",
        },
        [],
    )
    lines = cfg.echo_lines()
    assert all("=" in line and " = " not in line for line in lines)
    as_map = dict(line.split("=", 1) for line in lines)
    assert as_map["advertised_host"] == "hostA"
    assert as_map["port_range"] == "30000-30099"


def test_readme_settings_table_matches_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = [line.split("|")[1:4] for line in readme.splitlines() if line.startswith("| `--")]
    assert [tuple(cell.strip().strip("`") for cell in row) for row in rows] == [
        ("--" + s.flag, s.env, s.default or "— (required)") for s in SETTINGS
    ]


# The parts ProxyApp builds; each reads its settings from ProxyConfig.
CONFIGURED_PARTS = {"Registry", "SlaveGatewayManager", "MasterGateway"}


def _defaulted(args: ast.arguments) -> list:
    positional = args.posonlyargs + args.args
    return positional[len(positional) - len(args.defaults):] + [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]


def test_no_second_copy_of_a_setting():
    """Outside config.py no parameter named after a ProxyConfig field (or
    an old alias of one) has a default, and the parts take none at all."""
    names = {f.name for f in dataclasses.fields(ProxyConfig)} | {"grace_period", "rpc_timeout"}
    src = Path(__file__).resolve().parent.parent / "src" / "rosproxy"
    copies, parts = [], set()
    for path in sorted(src.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                copies += ["%s:%d default for %s" % (path.name, arg.lineno, arg.arg)
                           for arg in _defaulted(node.args) if arg.arg in names]
            if isinstance(node, ast.ClassDef) and node.name in CONFIGURED_PARTS:
                parts.add(node.name)
                for init in node.body:
                    if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                        args = init.args
                        copies += ["%s:%d %s takes %s" % (path.name, arg.lineno, node.name, arg.arg)
                                   for arg in args.posonlyargs + args.args + args.kwonlyargs
                                   if arg.arg in names]
    assert parts == CONFIGURED_PARTS
    assert copies == []


async def start_upstream():
    async def dispatch(path, call, peer):
        return MethodSuccess([1, "ok", 1])

    port = free_port()
    server = await serve_xmlrpc("127.0.0.1", port, dispatch)
    return server, "http://127.0.0.1:%d/" % port


async def test_app_start_serve_stop_releases_everything():
    upstream, uri = await start_upstream()
    cfg = make_config(uri).validate()
    app = ProxyApp(cfg)
    await app.start()
    try:
        client = RosClient("http://127.0.0.1:%d/" % cfg.main_port, timeout=2.0)
        result = await client.call_ros(
            "registerPublisher",
            ["/talker", "/chat", "std_msgs/String", "http://127.0.0.1:1/"],
        )
        assert result.code == 1
        assert len(app.registry.allocator.live_leases()) == 1
    finally:
        await app.stop()
        await close_server(upstream)
    assert app.registry.allocator.live_leases() == []
    # every port is bindable again after shutdown (SO_REUSEADDR, as any
    # restarted asyncio server would have: only TIME_WAIT remnants remain)
    for port in [cfg.main_port] + list(range(cfg.port_range.low, cfg.port_range.high + 1)):
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))


async def test_stop_during_grace_purge_leaves_no_task_or_lease():
    """A grace purge that fires while stop() waits for the registry lock
    is finished by stop(), not left pending behind it."""
    upstream, uri = await start_upstream()
    app = ProxyApp(make_config(uri, purge_grace=0.01).validate())
    await app.start()
    registry = app.registry
    record = await registry.ensure_node("/talker", "http://127.0.0.1:1/")
    registry.add_registration("/talker", KIND_PUB, "/chat")

    async def hold_lock_until_grace_fires():
        async with registry._lock:
            # stop() queues on the lock right after closing the main port
            while app.master_gateway._server is not None:
                await asyncio.sleep(0.005)
            registry.remove_registration("/talker", KIND_PUB, "/chat")
            while record._grace_timer is not None:
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.05)  # the grace purge queues behind stop()

    holder = asyncio.ensure_future(hold_lock_until_grace_fires())
    await asyncio.sleep(0)
    try:
        await app.stop()
    finally:
        await close_server(upstream)
    assert holder.done()
    assert [t for t in asyncio.all_tasks() if t is not asyncio.current_task()] == []
    assert app.registry.allocator.live_leases() == []


async def test_stop_during_registration_leaves_no_lease():
    """stop() cancels the main port's in-flight calls; a registration
    that was provisioning its gateway still completes, and is purged."""
    upstream, uri = await start_upstream()
    app = ProxyApp(make_config(uri).validate())
    start_gateway = app.registry.gateway_factory

    async def slow_gateway(record):
        await asyncio.sleep(0.2)
        return await start_gateway(record)

    app.registry.gateway_factory = slow_gateway
    await app.start()
    client = RosClient("http://127.0.0.1:%d/" % app.config.main_port, timeout=2.0)
    call = asyncio.ensure_future(client.call_ros(
        "registerPublisher", ["/talker", "/chat", "std_msgs/String", "http://127.0.0.1:1/"]
    ))
    await poll_until(lambda: app.registry.allocator.live_leases())
    try:
        await app.stop()
    finally:
        await close_server(upstream)
    with pytest.raises(RpcTransportError):
        await call
    assert app.registry.allocator.live_leases() == []
    assert app.registry.nodes == {}
    assert [t for t in asyncio.all_tasks() if t is not asyncio.current_task()] == []


async def test_one_dialer_reaches_every_outbound_connection():
    """The dialer ProxyApp is given opens the upstream forward, a slave
    gateway's forward, a ping and a relay's connection to its target."""
    upstream, uri = await start_upstream()
    data_port = free_port()

    async def publisher_socket(reader, writer):
        writer.write(b"frame")
        await writer.drain()
        writer.close()

    data = await asyncio.start_server(publisher_socket, "127.0.0.1", data_port)

    async def node_dispatch(path, call, peer):
        if call.method_name == "requestTopic":
            return MethodSuccess([1, "ready", ["TCPROS", "127.0.0.1", data_port]])
        return MethodSuccess([1, "", 4242])

    node_port = free_port()
    node = await serve_xmlrpc("127.0.0.1", node_port, node_dispatch)
    dials = []

    async def recording_dial(host, port):
        dials.append(port)
        return await asyncio.open_connection(host, port)

    app = ProxyApp(make_config(uri).validate(), dial=recording_dial)
    await app.start()
    try:
        master = RosClient("http://127.0.0.1:%d/" % app.config.main_port, timeout=2.0)
        await master.call_ros("registerPublisher", [
            "/talker", "/chat", "std_msgs/String", "http://127.0.0.1:%d/" % node_port,
        ])
        upstream_port = upstream.sockets[0].getsockname()[1]
        assert dials == [upstream_port]

        record = app.registry.get("/talker")
        gateway = RosClient("http://127.0.0.1:%d/" % record.gateway_port, timeout=2.0)
        result = await gateway.call_ros("requestTopic", ["/listener", "/chat", [["TCPROS"]]])
        assert dials == [upstream_port, node_port]

        # the ping reuses the gateway forward's kept-alive connection ...
        assert await app.registry.ping_cycle() == [("/talker", "ok")]
        assert dials == [upstream_port, node_port]
        # ... and, with none idle, dials its own
        app.registry.pool.drop("127.0.0.1", node_port)
        assert await app.registry.ping_cycle() == [("/talker", "ok")]
        assert dials == [upstream_port, node_port, node_port]

        reader, writer = await asyncio.open_connection("127.0.0.1", result.value[2])
        assert await asyncio.wait_for(reader.read(), 2.0) == b"frame"
        writer.close()
        await writer.wait_closed()
        assert dials == [upstream_port, node_port, node_port, data_port]
    finally:
        await app.stop()
        for server in (upstream, node, data):
            server.close()
            await server.wait_closed()


async def test_app_occupied_main_port_is_fatal_exit():
    upstream, uri = await start_upstream()
    cfg = make_config(uri).validate()
    squatter = await asyncio.start_server(
        lambda r, w: w.close(), "127.0.0.1", cfg.main_port
    )
    try:
        code = await run(cfg)
        assert code == EXIT_FATAL
    finally:
        squatter.close()
        await squatter.wait_closed()
        await close_server(upstream)


@pytest.mark.parametrize("cause", ["unbindable", "unresolvable"])
async def test_app_bad_bind_host_is_fatal_exit(cause, caplog, monkeypatch):
    """A bind host that cannot be bound (192.0.2.1 is on no interface
    here) or looked up ends run with a logged error and no traceback."""
    upstream, uri = await start_upstream()
    cfg = dataclasses.replace(make_config(uri).validate(), bind_host="192.0.2.1")
    if cause == "unresolvable":
        def no_such_host(*args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        cfg = dataclasses.replace(cfg, bind_host="no-such-host.invalid")
        monkeypatch.setattr(socket, "getaddrinfo", no_such_host)
    try:
        assert await run(cfg) == EXIT_FATAL
    finally:
        monkeypatch.undo()
        await close_server(upstream)
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert [r.getMessage().split(":")[0] for r in errors] == ["startup failed"]
    assert all(r.exc_info is None for r in caplog.records)


async def test_listeners_bind_the_addresses_resolved_at_start():
    """With the bind host "" (every interface) a new node, a relay and a
    restart open their listeners without a getaddrinfo job in the loop's
    executor, and bind the families of the passive lookup."""
    executor = CountingExecutor()
    asyncio.get_running_loop().set_default_executor(executor)
    upstream, uri = await start_upstream()
    app = ProxyApp(make_config(uri, bind_host="").validate())
    await app.start()
    try:
        before = executor.jobs
        record = await app.registry.ensure_node("/talker", "http://127.0.0.1:1/")
        relay = await app.registry.lease_relay("/talker", "127.0.0.1", 1)
        bound = [sorted(s.family for s in server.sockets)
                 for server in (record.gateway_server, relay.server)]
        await app.registry.ensure_node("/talker", "http://127.0.0.1:2/")
        assert executor.jobs - before == 0
        passive = socket.getaddrinfo(None, 0, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE)
        assert bound == [sorted({info[0] for info in passive})] * 2
    finally:
        await app.stop()
        await close_server(upstream)


def test_import_loads_no_url_or_mail_package():
    """Importing the proxy pulls in none of urllib.request, http.client or
    email (xml.sax.saxutils would bring all three)."""
    code = (
        "import sys; before = set(sys.modules); import rosproxy.cli, rosproxy.app; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] == 'email' or m in ('urllib.request', 'http.client')))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


async def test_run_exits_cleanly_on_sigterm():
    upstream, uri = await start_upstream()
    cfg = make_config(uri).validate()
    task = asyncio.ensure_future(run(cfg))
    await asyncio.sleep(0.2)  # let it bind and install handlers
    os.kill(os.getpid(), signal.SIGTERM)
    code = await asyncio.wait_for(task, 5.0)
    assert code == EXIT_OK
    await close_server(upstream)


def test_cli_config_error_exit_code(monkeypatch):
    from rosproxy.cli import main

    monkeypatch.delenv("ROSPROXY_MASTER_URI", raising=False)
    monkeypatch.delenv("ROSPROXY_ADVERTISED_HOST", raising=False)
    assert main([]) == 1


FLOAT_SETTINGS = [s for s in SETTINGS if isinstance(s.parse(s.default or "", s.key), float)]


@pytest.mark.parametrize("by", ["flag", "env"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("setting", FLOAT_SETTINGS, ids=lambda s: s.flag)
def test_cli_refuses_a_non_finite_number(setting, text, by, monkeypatch, capsys):
    """A nan or infinite interval, grace or timeout is a config error
    naming its setting: as a deadline, nan fires at once."""
    from rosproxy import cli

    async def serve_nothing(config):
        return EXIT_OK

    monkeypatch.setattr(cli, "run", serve_nothing)  # a config that loads exits 0
    assert [s.flag for s in FLOAT_SETTINGS] == ["ping-interval", "purge-grace", "request-timeout"]
    monkeypatch.setenv("ROSPROXY_MASTER_URI", "http://10.0.0.1:11311/")
    monkeypatch.setenv("ROSPROXY_ADVERTISED_HOST", "hostA")
    argv = []
    if by == "flag":
        argv = ["--%s=%s" % (setting.flag, text)]
    else:
        monkeypatch.setenv(setting.env, text)
    assert cli.main(argv) == EXIT_CONFIG
    assert setting.key in capsys.readouterr().err
