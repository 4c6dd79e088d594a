"""Stale-registration sweep, the way `rosnode cleanup` does it.

Walk the master's system state, probe every node's reported endpoint,
and unregister everything belonging to nodes that no longer answer.
The proxy deliberately leaves purged nodes' master entries in place;
their now-refusing gateway ports are precisely what this probe keys on.
"""

from __future__ import annotations

import logging
from typing import List, Optional

from ..http11 import RpcTransportError
from .dial import DialLog, PURPOSE_XMLRPC, make_dialer
from .rpc import RosClient, XmlRpcFaultError

log = logging.getLogger(__name__)

PROBE_CALLER_ID = "/cleanup"
PROBE_TIMEOUT = 1.5  # seconds a node has to answer getPid before it counts as dead


async def cleanup_stale_registrations(
    master_uri: str,
    *,
    dial_log: Optional[DialLog] = None,
) -> List[str]:
    """Remove registrations of unreachable nodes; returns their names."""
    dial = make_dialer(dial_log, "cleanup", PURPOSE_XMLRPC)
    master = RosClient(master_uri, timeout=5.0, dial=dial)

    state = await master.call_ros("getSystemState", [PROBE_CALLER_ID])
    publishers, subscribers, services = state.value

    node_names = set()
    for topic_list in (publishers, subscribers):
        for _, ids in topic_list:
            node_names.update(ids)
    for _, ids in services:
        node_names.update(ids)

    removed: List[str] = []
    for node in sorted(node_names):
        lookup = await master.call_ros("lookupNode", [PROBE_CALLER_ID, node])
        if lookup.code != 1:
            continue
        node_api = lookup.value
        if await _alive(node_api, dial):
            continue
        log.info("cleanup: %s at %s is dead; unregistering", node, node_api)
        removed.append(node)
        for topic, ids in publishers:
            if node in ids:
                await master.call_ros("unregisterPublisher", [node, topic, node_api])
        for topic, ids in subscribers:
            if node in ids:
                await master.call_ros("unregisterSubscriber", [node, topic, node_api])
        for service, ids in services:
            if node in ids:
                found = await master.call_ros("lookupService", [PROBE_CALLER_ID, service])
                if found.code == 1:
                    await master.call_ros(
                        "unregisterService", [node, service, found.value]
                    )
    return removed


async def _alive(node_api: str, dial) -> bool:
    client = RosClient(node_api, timeout=PROBE_TIMEOUT, dial=dial)
    try:
        result = await client.call_ros("getPid", [PROBE_CALLER_ID])
        return result.code == 1
    except (RpcTransportError, XmlRpcFaultError, ValueError):
        return False
