"""Deterministic port leasing from a configured range.

All communication endpoints the proxy exposes come out of one range that
deployment forwards to the host, so assignments must be predictable:
lease() always hands out the lowest free port (first-fit). State is owned
by the event loop; lease/release never await, so they are atomic with
respect to concurrent request handlers.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

HISTORY_LEN = 4096

PURPOSE_SLAVE_API = "slave_api_gateway"
PURPOSE_TCPROS = "tcpros_relay"


class Exhausted(Exception):
    """No free port left; the operator must widen the range."""


class DoubleRelease(Exception):
    """Release of a port that is not currently leased."""


@dataclass(frozen=True)
class PortRange:
    low: int
    high: int

    def __post_init__(self):
        if not 1024 <= self.low <= self.high <= 65535:
            raise ValueError(
                "invalid port range %d-%d (need 1024 <= low <= high <= 65535)"
                % (self.low, self.high)
            )

    def __contains__(self, port: int) -> bool:
        return self.low <= port <= self.high

    def __str__(self) -> str:
        return "%d-%d" % (self.low, self.high)

    @property
    def size(self) -> int:
        return self.high - self.low + 1


@dataclass(frozen=True)
class PortLease:
    port: int
    purpose: str
    target: str  # the internal real endpoint: a slave API URI, or a relay's host:port
    owner: str  # caller_id


@dataclass
class PortAllocator:
    port_range: PortRange
    _free: list = field(init=False)
    _live: dict = field(init=False, default_factory=dict)
    # journal of the newest HISTORY_LEN (port, purpose, owner) leases; lets
    # replayed runs be compared for identical assignments
    history: deque = field(init=False, default_factory=lambda: deque(maxlen=HISTORY_LEN))

    def __post_init__(self):
        self._free = list(range(self.port_range.low, self.port_range.high + 1))
        heapq.heapify(self._free)

    def lease(self, purpose: str, target: str, owner: str) -> PortLease:
        if not self._free:
            raise Exhausted(
                "port range %s exhausted (%d ports, all leased)"
                % (self.port_range, self.port_range.size)
            )
        port = heapq.heappop(self._free)
        lease = PortLease(port, purpose, target, owner)
        self._live[port] = lease
        self.history.append((port, purpose, owner))
        return lease

    def release(self, lease) -> None:
        port = lease.port if isinstance(lease, PortLease) else int(lease)
        if port not in self._live:
            raise DoubleRelease("port %d is not leased" % port)
        del self._live[port]
        heapq.heappush(self._free, port)

    def live_leases(self) -> list:
        return [self._live[port] for port in sorted(self._live)]
