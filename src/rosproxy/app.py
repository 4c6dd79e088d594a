"""Wiring and process lifecycle: build the proxy from a config, run it,
shut it down without leaking a socket or a lease."""

from __future__ import annotations

import asyncio
import logging
import signal
from typing import Optional

from .config import ProxyConfig
from .http11 import BindFailed, Dialer
from .master_gateway import MasterGateway
from .registry import Registry
from .slave_gateway import SlaveGatewayManager

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FATAL = 2


class ProxyApp:
    """All the moving parts, assembled and started/stopped together."""

    def __init__(self, config: ProxyConfig, *, dial: Dialer = asyncio.open_connection):
        self.config = config
        self.registry = Registry(
            config, lambda record: self.slave_gateways.start_gateway(record), dial=dial
        )
        self.slave_gateways = SlaveGatewayManager(self.registry)
        self.master_gateway = MasterGateway(self.registry, self.slave_gateways)
        self._ping_task: Optional[asyncio.Task] = None
        self._started = False

    async def start(self) -> None:
        await self.master_gateway.start()
        self._ping_task = asyncio.ensure_future(self.registry.run_ping_loop())
        self._started = True

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self._ping_task is not None:
            self._ping_task.cancel()
            try:
                await self._ping_task
            except asyncio.CancelledError:
                pass
            self._ping_task = None
        await self.master_gateway.stop()
        await self.registry.purge_all()


async def run(config: ProxyConfig) -> int:
    """Serve until SIGINT/SIGTERM; returns a process exit code."""
    for line in config.echo_lines():
        log.info("config %s", line)

    try:
        app = ProxyApp(config)  # resolves the bind host
        await app.start()
    except BindFailed as exc:
        log.error("startup failed: %s", exc)
        return EXIT_FATAL

    stop_event = asyncio.Event()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(sig, lambda *_: stop_event.set())

    log.info("proxy up: master gateway :%d, leases %s",
             config.main_port, config.port_range)
    await stop_event.wait()
    log.info("shutting down")
    await app.stop()
    leaked = app.registry.allocator.live_leases()
    if leaked:  # pragma: no cover - invariant guard
        log.error("leases leaked at shutdown: %r", leaked)
        return EXIT_FATAL
    return EXIT_OK


def setup_logging(level_name: str) -> None:
    logging.basicConfig(
        level=getattr(logging, level_name.upper(), logging.INFO),
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
    )
