"""Per-node proxy state: endpoint records, registration refcounts,
liveness pinging, and resource teardown.

Every node that registers through the proxy gets one record holding its
leased gateway port, its open TCP relays, and the set of names it has
registered. When the last registration goes away a grace timer starts;
when the node stops answering pings it is purged outright. Purging
closes the gateway listener *first* so the advertised port refuses
connections before any other state is torn down — outside observers
never see a port that accepts while the record is already gone.

A restart (same caller_id, new URI) recycles the old record the same
way, except that its listener stays open: only its connections are
aborted. First-fit leasing usually hands the restarted node the port it
had, and then the new record takes over the open listener; a call that
reaches it before the new record is in place is answered "node … is
gone". On any other port the old listener is closed and a new one
started.

The proxy never unregisters a purged node at the upstream master; the
refusing port is exactly what standard cleanup probes look for, and
silently deleting registrations behind an operator's back is worse than
leaving a probe-ably dead entry.
"""

from __future__ import annotations

import asyncio
import functools
import logging
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from .config import ProxyConfig
from .http11 import (
    ConnectionPool, Dialer, abort_connections, bind_addresses, close_server, forward,
    split_http_uri,
)
from .ports import PortAllocator, PortLease, PURPOSE_SLAVE_API, PURPOSE_TCPROS
from .relay import RelayHandle, close_relay, open_relay
from .xmlrpc_codec import MethodCall, MethodSuccess, RosResult

log = logging.getLogger(__name__)

PING_CALLER_ID = "/rosproxy"

KIND_PUB = "pub"
KIND_SUB = "sub"
KIND_SERVICE = "service"
_KIND_ATTR = {KIND_PUB: "publications", KIND_SUB: "subscriptions", KIND_SERVICE: "services"}


class UnknownNode(Exception):
    """Operation on a caller_id the registry does not know (or just purged)."""


@dataclass
class NodeRecord:
    caller_id: str
    real_slave_uri: str
    gateway_lease: PortLease
    gateway_server: asyncio.AbstractServer = field(repr=False, default=None)
    publications: Set[str] = field(default_factory=set)
    subscriptions: Set[str] = field(default_factory=set)
    services: Set[str] = field(default_factory=set)
    tcpros_relays: Dict[Tuple[str, int], RelayHandle] = field(default_factory=dict)
    ping_failures: int = 0
    purged: bool = False
    _grace_timer: object = field(repr=False, default=None)

    @property
    def gateway_port(self) -> int:
        return self.gateway_lease.port

    def refcount(self) -> int:
        return len(self.publications) + len(self.subscriptions) + len(self.services)


# async (record) -> listening server bound to the record's gateway port
GatewayFactory = Callable[[NodeRecord], Awaitable[asyncio.AbstractServer]]


def _shielded(change):
    """Run a registry change to the end even if its caller is cancelled, as
    a closing port's handlers are, so no change is left half done."""
    async def run(*args, **kwargs):
        return await asyncio.shield(change(*args, **kwargs))
    return functools.wraps(change)(run)


class Registry:
    """The shared node map; all mutation goes through one lock.

    It also owns what every part of the proxy shares: the config, the port
    allocator over config.port_range, the dialer, the pool of kept-alive
    connections that forwarded calls take from it, and bind_addresses,
    the numeric addresses that config.bind_host resolved to when the
    registry was built. Every port binds those, so opening a gateway or a
    relay under the lock waits on no resolver. The gateways read them
    from here. Raises BindFailed if the bind host does not resolve.
    """

    def __init__(self, config: ProxyConfig, gateway_factory: GatewayFactory, *, dial: Dialer):
        self.config = config
        self.allocator = PortAllocator(config.port_range)
        self.gateway_factory = gateway_factory
        self.dial = dial
        self.pool = ConnectionPool(dial)
        self.bind_addresses = bind_addresses(config.bind_host)
        self.nodes: Dict[str, NodeRecord] = {}
        self._lock = asyncio.Lock()
        self._grace_tasks: Set[asyncio.Task] = set()

    # -- lookup ------------------------------------------------------

    def get(self, caller_id: str) -> NodeRecord:
        record = self.nodes.get(caller_id)
        if record is None or record.purged:
            raise UnknownNode(caller_id)
        return record

    # -- lifecycle ---------------------------------------------------

    @_shielded
    async def ensure_node(self, caller_id: str, real_slave_uri: str) -> NodeRecord:
        """Get-or-create the record for caller_id.

        Same id + same URI is idempotent. Same id with a different URI
        means the node restarted: the old resources are purged and a
        fresh record is built, which keeps the old gateway listener if
        it gets the old port back. Raises Exhausted (no ports) or
        BindFailed with no partial record left behind.
        """
        async with self._lock:
            old = self.nodes.get(caller_id)  # under the lock, never a purged record
            if old is not None and old.real_slave_uri == real_slave_uri:
                return old
            if old is not None:
                await self._purge_locked(old, keep_listener=True)
            lease = self.allocator.lease(PURPOSE_SLAVE_API, real_slave_uri, caller_id)
            record = NodeRecord(caller_id=caller_id, real_slave_uri=real_slave_uri, gateway_lease=lease)
            kept = old is not None and old.gateway_port == lease.port
            if kept:
                record.gateway_server = old.gateway_server
            else:
                if old is not None:
                    await close_server(old.gateway_server)
                try:
                    record.gateway_server = await self.gateway_factory(record)
                except Exception:
                    self.allocator.release(lease)
                    raise
            self.nodes[caller_id] = record
            if old is None:
                log.info("node %s (%s) -> gateway port %d", caller_id, real_slave_uri, lease.port)
            else:
                log.info("node %s moved %s -> %s; gateway port %s",
                         caller_id, old.real_slave_uri, real_slave_uri,
                         "%d kept" % lease.port if kept
                         else "%d moved to %d" % (old.gateway_port, lease.port))
            return record

    def add_registration(self, caller_id: str, kind: str, name: str) -> int:
        """Record a pub/sub/service name; returns the new refcount."""
        record = self.get(caller_id)
        getattr(record, _kind_attr(kind)).add(name)
        self._cancel_grace(record)
        return record.refcount()

    def remove_registration(self, caller_id: str, kind: str, name: str) -> int:
        """Drop a name; at refcount 0 the purge grace timer starts."""
        record = self.get(caller_id)
        getattr(record, _kind_attr(kind)).discard(name)
        remaining = record.refcount()
        if remaining == 0:
            self._start_grace(record)
        return remaining

    @_shielded
    async def lease_relay(self, caller_id: str, target_host: str, target_port: int) -> RelayHandle:
        """Open (or reuse) a relay owned by caller_id toward target."""
        async with self._lock:
            record = self.get(caller_id)
            key = (target_host, target_port)
            handle = record.tcpros_relays.get(key)
            if handle is not None:
                return handle
            lease = self.allocator.lease(
                PURPOSE_TCPROS, "%s:%d" % (target_host, target_port), caller_id
            )
            try:
                handle = await open_relay(
                    lease, self.bind_addresses, target_host, target_port, dial=self.dial
                )
            except Exception:
                self.allocator.release(lease)
                raise
            record.tcpros_relays[key] = handle
            return handle

    @_shielded
    async def purge_record(self, record: NodeRecord, *, only_if_idle: bool = False) -> bool:
        """Purge record if it is still its caller_id's: a restart may have
        replaced it while this waited for the lock. With only_if_idle, also
        only if it holds no registration and no grace timer is running for
        it: when its grace timer has fired, or when a registration failed
        after the record was built. Returns whether it purged."""
        async with self._lock:
            if self.nodes.get(record.caller_id) is not record:
                return False
            if only_if_idle and (record.refcount() or record._grace_timer is not None):
                return False
            await self._purge_locked(record)
            return True

    async def purge_all(self) -> None:
        """Purge every node, then close the pooled connections left, such
        as those to the upstream master."""
        async with self._lock:
            for record in list(self.nodes.values()):
                if not record.purged:
                    await self._purge_locked(record)
        # a grace purge that fired meanwhile finds its node gone; let it
        # finish rather than leave it pending past shutdown
        await asyncio.gather(*self._grace_tasks, return_exceptions=True)
        await self.pool.close()

    async def _purge_locked(self, record: NodeRecord, *, keep_listener: bool = False) -> None:
        # Order matters: the gateway port must refuse before anything
        # else is released, and the record leaves the map last. A restart
        # (keep_listener) only aborts the port's connections, and
        # ensure_node hands the listener on or closes it.
        record.purged = True
        self._cancel_grace(record)
        await (abort_connections if keep_listener else close_server)(record.gateway_server)
        for handle in list(record.tcpros_relays.values()):
            await close_relay(handle)
            self.allocator.release(handle.lease)
        record.tcpros_relays.clear()
        self.pool.drop(*split_http_uri(record.real_slave_uri)[:2])
        self.allocator.release(record.gateway_lease)
        self.nodes.pop(record.caller_id, None)
        if not keep_listener:
            log.info("node %s purged (gateway port %d released)",
                     record.caller_id, record.gateway_lease.port)

    # -- refcount grace timer ----------------------------------------

    def _start_grace(self, record: NodeRecord) -> None:
        self._cancel_grace(record)
        loop = asyncio.get_event_loop()

        def fire():
            record._grace_timer = None
            task = asyncio.ensure_future(self.purge_record(record, only_if_idle=True))
            self._grace_tasks.add(task)
            task.add_done_callback(self._grace_tasks.discard)

        record._grace_timer = loop.call_later(self.config.purge_grace, fire)
        log.debug("node %s refcount 0; purge in %.1fs unless it re-registers",
                  record.caller_id, self.config.purge_grace)

    def _cancel_grace(self, record: NodeRecord) -> None:
        if record._grace_timer is not None:
            record._grace_timer.cancel()
            record._grace_timer = None

    # -- liveness ----------------------------------------------------

    async def ping_cycle(self) -> list:
        """One liveness pass. Returns [(caller_id, outcome)] where outcome
        is 'ok', 'failed', or 'purged' (this ping hit the threshold). A
        record that was purged or replaced meanwhile is left out."""

        async def ping_one(record: NodeRecord):
            response = await forward(
                record.real_slave_uri, MethodCall("getPid", [PING_CALLER_ID]),
                timeout=self.config.request_timeout, pool=self.pool,
                target="node %s" % record.caller_id,
            )
            try:
                ok = (
                    isinstance(response, MethodSuccess)
                    and RosResult.from_value(response.value).code == 1
                )
            except ValueError:
                ok = False
            if record.purged:
                return None
            if ok:
                record.ping_failures = 0
                return record.caller_id, "ok"
            record.ping_failures += 1
            log.warning("ping of %s (%s) failed (%d/%d)",
                        record.caller_id, record.real_slave_uri,
                        record.ping_failures, self.config.ping_failure_threshold)
            if record.ping_failures >= self.config.ping_failure_threshold:
                if not await self.purge_record(record):
                    return None  # a restart replaced it meanwhile
                return record.caller_id, "purged"
            return record.caller_id, "failed"

        snapshot = [r for r in self.nodes.values() if not r.purged]
        results = await asyncio.gather(*(ping_one(r) for r in snapshot))
        return [r for r in results if r is not None]

    async def run_ping_loop(self) -> None:
        """Ping forever at config.ping_interval (cancel to stop)."""
        while True:
            await asyncio.sleep(self.config.ping_interval)
            try:
                await self.ping_cycle()
            except Exception:  # pragma: no cover - keep the loop alive
                log.exception("ping cycle blew up; continuing")


def _kind_attr(kind: str) -> str:
    try:
        return _KIND_ATTR[kind]
    except KeyError:
        raise ValueError("unknown registration kind %r (expected pub/sub/service)" % kind)
