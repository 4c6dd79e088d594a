"""A miniature registration master.

Keeps the publisher/subscriber/service tables, answers the master-API
methods the scenarios need, and pushes publisherUpdate callbacks to
subscribers when a topic's publisher list changes — the behaviour the
proxy's rewrites are measured against. State is queryable as a snapshot
so tests can assert on exactly what registrations conveyed.
"""

from __future__ import annotations

import asyncio
import logging
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..http11 import RpcTransportError, XmlRpcClient, close_server, serve_xmlrpc
from ..xmlrpc_codec import FAULT_APP, MethodCall, MethodFault, MethodSuccess
from .dial import DialLog, PURPOSE_XMLRPC, make_dialer

log = logging.getLogger(__name__)


@dataclass
class MiniMasterState:
    publishers: Dict[str, Set[Tuple[str, str]]] = field(default_factory=dict)
    subscribers: Dict[str, Set[Tuple[str, str]]] = field(default_factory=dict)
    services: Dict[str, Tuple[str, str, str]] = field(default_factory=dict)

    def snapshot(self) -> dict:
        return {
            "publishers": {t: set(v) for t, v in self.publishers.items() if v},
            "subscribers": {t: set(v) for t, v in self.subscribers.items() if v},
            "services": dict(self.services),
        }

    def uris_of(self, caller_id: str) -> Set[str]:
        uris: Set[str] = set()
        for table in (self.publishers, self.subscribers):
            for pairs in table.values():
                uris.update(api for cid, api in pairs if cid == caller_id)
        for cid, caller_api, service_api in self.services.values():
            if cid == caller_id:
                uris.add(caller_api)
                uris.add(service_api)
        return uris

    def node_names(self) -> Set[str]:
        names: Set[str] = set()
        for table in (self.publishers, self.subscribers):
            for pairs in table.values():
                names.update(cid for cid, _ in pairs)
        names.update(cid for cid, _, _ in self.services.values())
        return names


class MiniMaster:
    def __init__(
        self,
        host: str,
        port: int,
        *,
        dial_log: Optional[DialLog] = None,
    ):
        self.host = host
        self.port = port
        self.state = MiniMasterState()
        self.uri = "http://%s:%d/" % (host, port)
        self._dial = make_dialer(dial_log, "master", PURPOSE_XMLRPC)
        self._server: Optional[asyncio.AbstractServer] = None
        self._update_tasks: Set[asyncio.Task] = set()

    async def start(self) -> None:
        self._server = await serve_xmlrpc(self.host, self.port, self._dispatch)

    async def stop(self) -> None:
        if self._server is not None:
            await close_server(self._server)
            self._server = None
        for task in list(self._update_tasks):
            task.cancel()
        if self._update_tasks:
            await asyncio.gather(*self._update_tasks, return_exceptions=True)

    # -- dispatch ------------------------------------------------------

    async def _dispatch(self, path, call: MethodCall, peer):
        handler = getattr(self, "_do_" + call.method_name, None)
        if handler is None:
            return MethodFault(FAULT_APP, "unknown method %r" % call.method_name)
        try:
            return MethodSuccess(handler(*call.params))
        except TypeError as exc:
            return MethodFault(FAULT_APP, "bad params for %s: %s" % (call.method_name, exc))

    # -- registration --------------------------------------------------

    def _do_registerPublisher(self, caller_id, topic, topic_type, caller_api):
        self.state.publishers.setdefault(topic, set()).add((caller_id, caller_api))
        log.debug("master: +pub %s %s %s", caller_id, topic, caller_api)
        self._notify_subscribers(topic)
        subscriber_apis = sorted(
            api for _, api in self.state.subscribers.get(topic, set())
        )
        return [1, "Registered [%s] as publisher of [%s]" % (caller_id, topic),
                subscriber_apis]

    def _do_registerSubscriber(self, caller_id, topic, topic_type, caller_api):
        self.state.subscribers.setdefault(topic, set()).add((caller_id, caller_api))
        log.debug("master: +sub %s %s %s", caller_id, topic, caller_api)
        publisher_apis = sorted(
            api for _, api in self.state.publishers.get(topic, set())
        )
        return [1, "Subscribed [%s] to [%s]" % (caller_id, topic), publisher_apis]

    def _do_unregisterPublisher(self, caller_id, topic, caller_api):
        entry = (caller_id, caller_api)
        holders = self.state.publishers.get(topic, set())
        if entry not in holders:
            return [0, "[%s] is not a publisher of [%s]" % (caller_id, topic), 0]
        holders.discard(entry)
        self._notify_subscribers(topic)
        return [1, "Unregistered [%s] from [%s]" % (caller_id, topic), 1]

    def _do_unregisterSubscriber(self, caller_id, topic, caller_api):
        entry = (caller_id, caller_api)
        holders = self.state.subscribers.get(topic, set())
        if entry not in holders:
            return [0, "[%s] is not a subscriber of [%s]" % (caller_id, topic), 0]
        holders.discard(entry)
        return [1, "Unregistered [%s] from [%s]" % (caller_id, topic), 1]

    def _do_registerService(self, caller_id, service, service_api, caller_api):
        self.state.services[service] = (caller_id, caller_api, service_api)
        log.debug("master: +srv %s %s %s", caller_id, service, service_api)
        return [1, "Registered [%s] as provider of [%s]" % (caller_id, service), 1]

    def _do_unregisterService(self, caller_id, service, service_api):
        current = self.state.services.get(service)
        if current is None or current[0] != caller_id or current[2] != service_api:
            return [0, "[%s] is not the provider of [%s]" % (caller_id, service), 0]
        del self.state.services[service]
        return [1, "Unregistered [%s] from [%s]" % (caller_id, service), 1]

    # -- lookups ---------------------------------------------------------

    def _do_lookupNode(self, caller_id, node_name):
        for table in (self.state.publishers, self.state.subscribers):
            for pairs in table.values():
                for cid, api in pairs:
                    if cid == node_name:
                        return [1, "node api", api]
        for cid, caller_api, _ in self.state.services.values():
            if cid == node_name:
                return [1, "node api", caller_api]
        return [-1, "unknown node [%s]" % node_name, ""]

    def _do_lookupService(self, caller_id, service):
        entry = self.state.services.get(service)
        if entry is None:
            return [-1, "no provider for [%s]" % service, ""]
        return [1, "rosrpc URI", entry[2]]

    def _do_getSystemState(self, caller_id):
        pubs = [
            [topic, sorted(cid for cid, _ in pairs)]
            for topic, pairs in sorted(self.state.publishers.items())
            if pairs
        ]
        subs = [
            [topic, sorted(cid for cid, _ in pairs)]
            for topic, pairs in sorted(self.state.subscribers.items())
            if pairs
        ]
        srvs = [
            [service, [entry[0]]]
            for service, entry in sorted(self.state.services.items())
        ]
        return [1, "current system state", [pubs, subs, srvs]]

    def _do_getPid(self, caller_id):
        return [1, "pid", os.getpid()]

    # -- publisherUpdate fan-out ----------------------------------------

    def _notify_subscribers(self, topic: str) -> None:
        publisher_apis = sorted(
            api for _, api in self.state.publishers.get(topic, set())
        )
        subscribers = list(self.state.subscribers.get(topic, set()))
        for _, sub_api in subscribers:
            task = asyncio.ensure_future(
                self._send_update(sub_api, topic, publisher_apis)
            )
            self._update_tasks.add(task)
            task.add_done_callback(self._update_tasks.discard)

    async def _send_update(self, sub_api: str, topic: str, publisher_apis) -> None:
        client = XmlRpcClient(sub_api, timeout=3.0, dial=self._dial)
        try:
            await client.call("publisherUpdate", ["/master", topic, publisher_apis])
        except (RpcTransportError, ValueError) as exc:
            log.debug("publisherUpdate to %s dropped: %s", sub_api, exc)
