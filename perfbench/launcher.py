"""Traced proxy launcher: ``rosproxy.app.run`` with spans around each layer.

Usage (from the repository root, ``src`` on ``PYTHONPATH``):

    python3 perfbench/launcher.py --spans OUT.json [rosproxy flags...]

The flags are rosproxy's own and mean the same. Before the app is built,
the public functions of each layer are wrapped at every name their callers
resolve (``http11`` imports ``parse_call`` by name, so the wrapper must
replace ``rosproxy.http11.parse_call``, not only the codec's attribute).
``ProxyApp`` is swapped for a subclass that times ``start()``, dials through
a counting dialer and replaces ``Registry._lock`` with a lock that times
waiting and holding. Spans stay in memory; they are written to OUT after
``app.stop()`` has run on SIGTERM.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import os
import sys
import time

import rosproxy.app as app_mod
import rosproxy.http11 as http11
import rosproxy.master_gateway as master_gateway
import rosproxy.ports as ports
import rosproxy.registry as registry
import rosproxy.relay as relay
import rosproxy.slave_gateway as slave_gateway
from rosproxy.config import ConfigError, load_config
from rosproxy.xmlrpc_codec import MethodFault

# (current span id, request id); each connection task has its own copy
_current = contextvars.ContextVar("perfbench_span", default=(0, 0))


class Tracer:
    def __init__(self):
        self.spans = []      # (id, parent, request, name, start_ns, end_ns, info, error)
        self.dials = []      # (span id at dial time, host, port)
        self.relays = []
        self.lock_wait_ns = []
        self.lock_hold_ns = []
        self.app_start_ms = None
        self._ids = itertools.count(1)

    def _open(self):
        parent, request = _current.get()
        span_id = next(self._ids)
        token = _current.set((span_id, request or span_id))
        return span_id, parent, request or span_id, token

    def wrap(self, name, fn, info=None):
        """Wrap a sync or async callable; info(args, result) annotates."""
        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                span_id, parent, request, token = self._open()
                start, result, error = time.perf_counter_ns(), None, 1
                try:
                    result = await fn(*args, **kwargs)
                    error = int(isinstance(result, MethodFault))
                    return result
                finally:
                    end = time.perf_counter_ns()
                    _current.reset(token)
                    self.spans.append((span_id, parent, request, name, start, end,
                                       info(args, result) if info else None, error))
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span_id, parent, request, token = self._open()
                start, result, error = time.perf_counter_ns(), None, 1
                try:
                    result = fn(*args, **kwargs)
                    error = 0
                    return result
                finally:
                    end = time.perf_counter_ns()
                    _current.reset(token)
                    self.spans.append((span_id, parent, request, name, start, end,
                                       info(args, result) if info else None, error))
        return traced

    async def dial(self, host, port):
        self.dials.append((_current.get()[0], host, port))
        return await asyncio.open_connection(host, port)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({
                "spans": self.spans,
                "dials": self.dials,
                "relays": [{"bytes_in": h.bytes_in, "bytes_out": h.bytes_out,
                            "accepted_total": h.accepted_total} for h in self.relays],
                "lock_wait_ns": self.lock_wait_ns,
                "lock_hold_ns": self.lock_hold_ns,
                "app_start_ms": self.app_start_ms,
            }, f)


def patch_everywhere(original, replacement):
    """Replace original at every rosproxy module attribute bound to it."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if name != "rosproxy" and not name.startswith("rosproxy."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError("no rosproxy module refers to %r" % original)


def _size_in(args, result):
    return len(args[0])


def _size_out(args, result):
    return len(result)


def _master_kind(args, result):
    method = args[1].method_name
    kind = "rewrite" if method in master_gateway.REWRITE_RULES else "passthrough"
    return "%s:%s" % (kind, method)


def install(tracer: Tracer) -> None:
    for module, name, span, info in (
        (http11, "parse_call", "xmlrpc_codec.parse_call", _size_in),
        (http11, "parse_response", "xmlrpc_codec.parse_response", _size_in),
        (http11, "encode_call", "xmlrpc_codec.encode_call", _size_out),
        (http11, "encode_response", "xmlrpc_codec.encode_response", _size_out),
        (http11, "http_post", "http11.http_post", None),
        (registry, "close_relay", "relay.close_relay", None),
    ):
        original = getattr(module, name)
        patch_everywhere(original, tracer.wrap(span, original, info))

    original_open = relay.open_relay

    async def open_relay(*args, **kwargs):
        handle = await original_open(*args, **kwargs)
        tracer.relays.append(handle)  # byte counters are read at exit
        return handle

    patch_everywhere(original_open, tracer.wrap("relay.open_relay", open_relay))

    for cls, name, span, info in (
        (http11.XmlRpcClient, "call", "http11.XmlRpcClient.call", lambda a, r: a[1]),
        (master_gateway.MasterGateway, "handle_master_call", "master_gateway.handle_master_call", _master_kind),
        (slave_gateway.SlaveGatewayManager, "handle_slave_call", "slave_gateway.handle_slave_call",
         lambda a, r: a[2].method_name),
        (slave_gateway.SlaveGatewayManager, "start_gateway", "slave_gateway.start_gateway", None),
        (registry.Registry, "ensure_node", "registry.ensure_node", None),
        (registry.Registry, "lease_relay", "registry.lease_relay", None),
        (ports.PortAllocator, "lease", "ports.lease", None),
        (ports.PortAllocator, "release", "ports.release", None),
    ):
        setattr(cls, name, tracer.wrap(span, getattr(cls, name), info))

    # Every request enters through the handler serve_http is given. A root
    # span there starts the request id its layer spans share; the context
    # is cleared first because a listener's connection tasks inherit the
    # context of whoever started the listener.
    original_serve = http11.serve_http

    def serve_http(host, port, handler, **kwargs):
        traced_handler = tracer.wrap("http11.request", handler, lambda a, r: a[0])

        async def root(path, body, peer):
            _current.set((0, 0))
            return await traced_handler(path, body, peer)

        return original_serve(host, port, root, **kwargs)

    patch_everywhere(original_serve, serve_http)


class TimedLock(asyncio.Lock):
    """Registry lock that records how long each acquirer waited and held it."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer
        self._acquired_ns = 0

    async def acquire(self):
        start = time.perf_counter_ns()
        await super().acquire()
        self._acquired_ns = time.perf_counter_ns()
        self._tracer.lock_wait_ns.append(self._acquired_ns - start)
        return True

    def release(self):
        self._tracer.lock_hold_ns.append(time.perf_counter_ns() - self._acquired_ns)
        super().release()


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launcher.py --spans OUT.json [rosproxy flags]", file=sys.stderr)
        return app_mod.EXIT_CONFIG
    out, flags = argv[1], argv[2:]
    try:
        config = load_config(os.environ, flags)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return app_mod.EXIT_CONFIG
    app_mod.setup_logging(config.log_level)
    tracer = Tracer()
    install(tracer)
    base = app_mod.ProxyApp

    class TracedApp(base):
        def __init__(self, config, *, dial=None):
            super().__init__(config, dial=tracer.dial)
            self.registry._lock = TimedLock(tracer)

        async def start(self):
            start = time.perf_counter_ns()
            await super().start()
            tracer.app_start_ms = (time.perf_counter_ns() - start) / 1e6

    app_mod.ProxyApp = TracedApp
    code = asyncio.run(app_mod.run(config))
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
