"""Outbound-connection recording.

The harness renders network segmentation as an assertion discipline:
every actor makes outbound connections only through a recording dialer,
and scenarios then check that no external actor ever dialed an internal
address. Cheaper than namespaces, deterministic, and the violation list
reads like a firewall log.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, List, Optional

PURPOSE_XMLRPC = "xmlrpc"
PURPOSE_TCPROS = "tcpros"


@dataclass(frozen=True)
class Dial:
    actor: str
    host: str
    port: int
    purpose: str

    def __str__(self):
        return "%s -> %s:%d (%s)" % (self.actor, self.host, self.port, self.purpose)


class DialLog:
    """Append-only record of who connected where."""

    def __init__(self):
        self.entries: List[Dial] = []

    def record(self, actor: str, host: str, port: int, purpose: str) -> None:
        self.entries.append(Dial(actor, host, port, purpose))

    def by_actor(self, actor: str) -> List[Dial]:
        return [d for d in self.entries if d.actor == actor]

    def violations(
        self, actor: str, allowed_prefixes: tuple
    ) -> List[Dial]:
        """Dials by `actor` whose target host matches none of the prefixes."""
        return [
            d
            for d in self.by_actor(actor)
            if not any(d.host.startswith(p) for p in allowed_prefixes)
        ]


def make_dialer(
    log: Optional[DialLog], actor: str, purpose: str
) -> Callable:
    """An asyncio open_connection wrapper that records each dial in log,
    when there is one, before connecting."""

    async def dial(host: str, port: int):
        if log is not None:
            log.record(actor, host, port, purpose)
        return await asyncio.open_connection(host, port)

    return dial
