"""Scripted end-to-end scenarios, runnable direct or proxied.

Topology is rendered on loopback: internal actors live on 127.0.1.x,
external ones on 127.0.2.x. "Internal" nodes are given a master URI and
nothing else — in direct mode it points at the mini master, in proxied
mode at the proxy — and the node code cannot tell the difference. Every
actor dials through a recording dialer, and each proxied scenario
asserts that external actors only ever dialed external addresses.

Every scenario runs inside one segment(): a mini master and, proxied, a
proxy in front of it. Leaving the segment kills the actors the scenario
adopted, stops the proxy and fails the report on any lease it still
holds.

Each scenario returns a ScenarioReport: key=value details plus a list
of failures (empty means pass). Reports deliberately carry their
evidence — digests, snapshots, timings, lease counts — so a failed run
is diagnosable from its printout.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import random
import socket
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Optional

from ..app import ProxyApp
from ..config import ProxyConfig
from ..http11 import hang_up, split_http_uri, split_rosrpc_uri
from ..ports import PortRange
from .cleanup import cleanup_stale_registrations
from .dial import PURPOSE_TCPROS, DialLog, make_dialer
from .master import MiniMaster
from .nodes import Listener, ServiceNode, Talker, call_service

INTERNAL_NODE_HOST = "127.0.1.1"
PROXY_INTERNAL_HOST = "127.0.1.2"
EXTERNAL_HOST = "127.0.2.1"
ADVERTISED_HOST = "127.0.2.2"

INTERNAL_PREFIXES = ("127.0.1.",)
EXTERNAL_PREFIXES = ("127.0.2.",)

EXTERNAL_ACTORS = ("master", "listener", "client", "cleanup", "probe")

SEED = 20260817  # of the pubsub payloads and the service request
REQUEST_SIZE = 4096  # bytes the service scenario sends to be echoed
DELIVER_TIMEOUT = 8.0  # seconds the pubsub listener has for every payload
RANGE_SIZE = 12  # ports the proxy under test leases from
REQUEST_TIMEOUT = 3.0  # seconds per call the proxy under test forwards


@dataclass
class ScenarioReport:
    scenario: str
    mode: str
    details: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def put(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = "%.3f" % value
        self.details[key] = str(value)

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition

    def lines(self) -> List[str]:
        out = [
            "scenario=%s" % self.scenario,
            "mode=%s" % self.mode,
            "ok=%s" % ("true" if self.ok else "false"),
        ]
        out.extend("%s=%s" % (k, v) for k, v in self.details.items())
        out.extend("failure=%s" % f for f in self.failures)
        return out


# -- port scouting ----------------------------------------------------


def free_port(host: str) -> int:
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def free_port_range(size: int) -> PortRange:
    """A contiguous block currently bindable on every interface."""
    picker = random.Random()
    for _ in range(200):
        base = picker.randrange(20000, 60000 - size)
        socks = []
        try:
            for p in range(base, base + size):
                socks.append(socket.socket())
                socks[-1].bind(("", p))
            return PortRange(base, base + size - 1)
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise RuntimeError("no free port range of size %d found" % size)


async def _poll_refused(host: str, port: int, timeout: float) -> float:
    start = time.monotonic()
    while True:
        try:
            _, writer = await asyncio.open_connection(host, port)
        except OSError:
            return time.monotonic() - start
        await hang_up(writer)
        if time.monotonic() - start > timeout:
            raise TimeoutError("%s:%d still accepting after %.1fs" % (host, port, timeout))
        await asyncio.sleep(0.02)


# -- the segment: mini master, proxy under test, adopted actors ---------


class ProxyUnderTest:
    """A ProxyApp on a free block of ports: the main port, then a lease
    range of RANGE_SIZE ports. Settings not given here keep ProxyConfig's
    defaults."""

    def __init__(
        self,
        upstream_master_uri: str,
        *,
        dial_log: Optional[DialLog] = None,
        ping_interval: float = ProxyConfig.ping_interval,
        ping_failures: int = ProxyConfig.ping_failure_threshold,
    ):
        block = free_port_range(RANGE_SIZE + 1)
        self.config = ProxyConfig(
            upstream_master_uri=upstream_master_uri,
            advertised_host=ADVERTISED_HOST,
            main_port=block.low,
            port_range=PortRange(block.low + 1, block.high),
            ping_interval=ping_interval,
            ping_failure_threshold=ping_failures,
            request_timeout=REQUEST_TIMEOUT,
        ).validate()
        self.app = ProxyApp(self.config, dial=make_dialer(dial_log, "proxy", "any"))

    @property
    def internal_master_uri(self) -> str:
        """What nodes behind the proxy get as their master URI."""
        return "http://%s:%d/" % (PROXY_INTERNAL_HOST, self.config.main_port)

    @property
    def port_range(self) -> PortRange:
        return self.config.port_range

    @property
    def allocator(self):
        return self.app.registry.allocator

    def port_assignments(self) -> str:
        """Range-relative lease layout, stable across replays."""
        low = self.port_range.low
        return ",".join(
            "%s:%d" % (lease.purpose, lease.port - low)
            for lease in self.allocator.live_leases()
        )

    async def start(self) -> None:
        await self.app.start()

    async def stop(self) -> None:
        await self.app.stop()


class Segment:
    """A mini master on the external segment, the proxy in front of it
    when proxied, their dial log, and the actors to kill at the end."""

    def __init__(self):
        self.dial_log = DialLog()
        self.master = MiniMaster(EXTERNAL_HOST, free_port(EXTERNAL_HOST), dial_log=self.dial_log)
        self.proxy: Optional[ProxyUnderTest] = None
        self.actors: list = []

    @property
    def internal_master_uri(self) -> str:
        """The master URI of nodes on the internal segment."""
        return self.master.uri if self.proxy is None else self.proxy.internal_master_uri

    def adopt(self, actor):
        self.actors.append(actor)
        return actor


@contextlib.asynccontextmanager
async def segment(
    report: ScenarioReport,
    *,
    ping_interval: float = ProxyConfig.ping_interval,
    ping_failures: int = ProxyConfig.ping_failure_threshold,
) -> AsyncIterator[Segment]:
    """Start the master and, if report.mode is proxied, a ProxyUnderTest
    with the given pings. On exit, kill the adopted actors (last first),
    stop the proxy, put leases_final and fail the report on a leaked
    lease, then stop the master."""
    seg = Segment()
    await seg.master.start()
    try:
        if report.mode == "proxied":
            seg.proxy = ProxyUnderTest(
                seg.master.uri, dial_log=seg.dial_log,
                ping_interval=ping_interval, ping_failures=ping_failures,
            )
            await seg.proxy.start()
        yield seg
    finally:
        for actor in reversed(seg.actors):
            await actor.kill()
        if seg.proxy is not None:
            await seg.proxy.stop()
            leases = seg.proxy.allocator.live_leases()
            report.put("leases_final", len(leases))
            report.check(not leases, "leases leaked after proxy shutdown: %r" % leases)
        await seg.master.stop()


# -- shared assertions -------------------------------------------------


def _advertised_port_window(proxy: ProxyUnderTest):
    offset = proxy.config.host_port_offset
    return proxy.port_range.low + offset, proxy.port_range.high + offset


def check_registry_hygiene(report: ScenarioReport, master: MiniMaster,
                           proxy: ProxyUnderTest, node_names: List[str]) -> None:
    """Criterion: proxied nodes appear at the master only under
    advertised-host URIs with ports inside the mapped range."""
    low, high = _advertised_port_window(proxy)
    seen = 0
    for name in node_names:
        for uri in sorted(master.state.uris_of(name)):
            seen += 1
            try:
                if uri.startswith("rosrpc://"):
                    host, port = split_rosrpc_uri(uri)
                else:
                    host, port, _ = split_http_uri(uri)
            except ValueError:
                report.check(False, "unparseable registered URI %r" % uri)
                continue
            report.check(
                host == ADVERTISED_HOST,
                "registered URI %s for %s leaks non-advertised host" % (uri, name),
            )
            report.check(
                low <= port <= high,
                "registered URI %s for %s uses port outside %d-%d" % (uri, name, low, high),
            )
    report.put("hygiene_uris_checked", seen)


def check_segmentation(report: ScenarioReport, dial_log: DialLog,
                       internal_actors: List[str]) -> None:
    """Criterion: external actors never dial internal addresses (and
    internal actors never dial around the proxy)."""
    violations = []
    for actor in EXTERNAL_ACTORS:
        violations.extend(dial_log.violations(actor, EXTERNAL_PREFIXES))
    for actor in internal_actors:
        violations.extend(dial_log.violations(actor, INTERNAL_PREFIXES))
    report.put("dials_recorded", len(dial_log.entries))
    report.put("dial_violations", len(violations))
    for v in violations:
        report.check(False, "segmentation violation: %s" % v)


def _payloads(count: int) -> List[bytes]:
    rng = random.Random(SEED)
    return [
        ("msg %05d %08x" % (i, rng.getrandbits(32))).encode()
        for i in range(count)
    ]


def _digest(blobs: List[bytes]) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(4, "little"))
        h.update(blob)
    return h.hexdigest()


# -- scenarios ---------------------------------------------------------


async def scenario_pubsub(
    mode: str, *, payload_count: int = 5, listener_first: bool = False
) -> ScenarioReport:
    """One talker, one listener, payloads must arrive byte-identical."""
    name = "pubsub-listener-first" if listener_first else "pubsub"
    report = ScenarioReport(name, mode)
    payloads = _payloads(payload_count)

    async with segment(report) as seg:
        master, proxy = seg.master, seg.proxy
        talker = seg.adopt(Talker(
            "/talker", seg.internal_master_uri, "/chat", payloads,
            host=INTERNAL_NODE_HOST, dial_log=seg.dial_log,
        ))
        listener = seg.adopt(Listener(
            "/listener", master.uri, "/chat", payload_count,
            host=EXTERNAL_HOST, dial_log=seg.dial_log,
        ))

        started = time.monotonic()
        order = (listener, talker) if listener_first else (talker, listener)
        for node in order:
            await node.start()
        try:
            received = await listener.wait_complete(DELIVER_TIMEOUT)
        except asyncio.TimeoutError:
            received = list(listener.received)
            report.check(False, "delivery timed out after %.1fs (%d/%d payloads)"
                         % (DELIVER_TIMEOUT, len(received), payload_count))
        duration = time.monotonic() - started

        report.put("payload_count", payload_count)
        report.put("payloads_received", len(received))
        report.put("payload_sha256", _digest(received))
        report.put("duration_s", duration)
        report.check(received == payloads, "received payloads differ from sent")
        report.put("delivered", received == payloads)

        if proxy is not None:
            check_registry_hygiene(report, master, proxy, ["/talker"])
            check_segmentation(report, seg.dial_log, internal_actors=["talker"])
            report.put("leases_active", len(proxy.allocator.live_leases()))
            report.put("port_assignments", proxy.port_assignments())
            report.check(
                len(proxy.allocator.live_leases()) == 2,
                "expected exactly gateway+relay leases while active",
            )

        await listener.stop()
        await talker.stop()
        report.put("master_empty_after", not master.state.node_names())
    return report


async def scenario_service(mode: str) -> ScenarioReport:
    """Echo service behind the proxy, called from outside via lookup."""
    report = ScenarioReport("service", mode)
    rng = random.Random(SEED)
    request = bytes(rng.getrandbits(8) for _ in range(REQUEST_SIZE))

    async with segment(report) as seg:
        master, proxy, dial_log = seg.master, seg.proxy, seg.dial_log
        service = seg.adopt(ServiceNode(
            "/echoer", seg.internal_master_uri, "/echo_bytes",
            host=INTERNAL_NODE_HOST, dial_log=dial_log,
        ))
        await service.start()

        registered_api = master.state.services["/echo_bytes"][2]
        report.put("service_api", registered_api)

        response = await call_service(
            master.uri, "/client", "/echo_bytes", request, dial_log=dial_log
        )
        report.put("request_bytes", len(request))
        report.put("echo_ok", response == request)
        report.check(response == request, "service response differs from request")

        if proxy is not None:
            check_registry_hygiene(report, master, proxy, ["/echoer"])
            report.put("leases_active", len(proxy.allocator.live_leases()))
            report.put("port_assignments", proxy.port_assignments())

        await service.stop()
        if proxy is not None:
            # unregisterService passes through untouched, so the node's
            # real service_api does not match the advertised one the
            # master holds; the entry lingers until a cleanup sweep
            # probes the (now dead) node and clears it.
            report.put("unregister_left_stale", bool(master.state.services))
            removed = await cleanup_stale_registrations(master.uri, dial_log=dial_log)
            report.put("cleanup_removed", ",".join(removed) or "-")
            check_segmentation(report, dial_log, internal_actors=["echoer"])
        report.put("master_empty_after", not master.state.services)
        report.check(not master.state.services, "service entry survived teardown")
    return report


async def scenario_stale(
    mode: str, *, ping_interval: float = 1.0, ping_failures: int = 3
) -> ScenarioReport:
    """Kill a registered node; its entries must become removable.

    Proxied: the proxy's pings notice the death, its gateway port starts
    refusing, leases are freed, and a cleanup sweep clears the master.
    Direct: the cleanup sweep probes the node's own (dead) endpoint.
    """
    report = ScenarioReport("stale", mode)

    async with segment(report, ping_interval=ping_interval,
                       ping_failures=ping_failures) as seg:
        master, proxy, dial_log = seg.master, seg.proxy, seg.dial_log
        talker = seg.adopt(Talker(
            "/talker", seg.internal_master_uri, "/chat", [b"x"],
            host=INTERNAL_NODE_HOST, dial_log=dial_log,
        ))
        await talker.start()
        report.put("registered", "/talker" in master.state.node_names())
        report.check("/talker" in master.state.node_names(), "registration missing")

        if proxy is not None:
            record = proxy.app.registry.get("/talker")
            gateway_port = record.gateway_port + proxy.config.host_port_offset
            # the advertised endpoint answers while the node lives
            probe = make_dialer(dial_log, "probe", PURPOSE_TCPROS)
            _, writer = await probe(ADVERTISED_HOST, gateway_port)
            await hang_up(writer)

        killed_at = time.monotonic()
        await talker.kill()

        if proxy is not None:
            budget = ping_interval * (ping_failures + 2)
            await _poll_refused(ADVERTISED_HOST, gateway_port, budget + 2.0)
            refusal_after = time.monotonic() - killed_at
            report.put("refusal_after_s", refusal_after)
            lo = ping_interval * (ping_failures - 1)
            hi = ping_interval * (ping_failures + 1)
            report.check(
                lo <= refusal_after <= hi,
                "gateway refusal after %.2fs, outside [%g, %g]" % (refusal_after, lo, hi),
            )
            deadline = time.monotonic() + 2.0
            while proxy.allocator.live_leases() and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            leases_released_after = time.monotonic() - killed_at
            report.put("leases_released_after_s", leases_released_after)
            report.check(
                not proxy.allocator.live_leases(),
                "leases still live after purge: %r" % proxy.allocator.live_leases(),
            )

        removed = await cleanup_stale_registrations(master.uri, dial_log=dial_log)
        report.put("cleanup_removed", ",".join(removed) or "-")
        report.check("/talker" in removed, "cleanup did not flag /talker")
        report.put("master_clean", "/talker" not in master.state.node_names())
        report.check(
            "/talker" not in master.state.node_names(),
            "stale registration survived cleanup",
        )

        if proxy is not None:
            check_segmentation(report, dial_log, internal_actors=["talker"])
    return report


SCENARIOS = {
    "pubsub": scenario_pubsub,
    "pubsub-listener-first": functools.partial(scenario_pubsub, listener_first=True),
    "service": scenario_service,
    "stale": scenario_stale,
}
