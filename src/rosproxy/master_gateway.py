"""Master-API ingress: the address internal nodes use as their master.

Five registration methods carry the caller's XML-RPC endpoint (and, for
services, a rosrpc endpoint) — addresses that are meaningless outside
the internal segment. Those get intercepted: the proxy ensures per-node
resources exist, swaps the endpoints for advertised ones, keeps the
registration refcounts, and only then forwards upstream. Everything
else is forwarded unrewritten, both ways: subscriber lists, parameter
traffic, lookups. Nodes connect *outward* to addresses in responses on
their own, so responses never need rewriting. Every call and answer is
still decoded on its way through (http11.forward). A call is encoded
anew, so its whitespace and type tags (<i4> versus <int>) can change;
an answer goes back as the bytes it arrived in. An answer the codec
cannot read (<i8>, <nil/>) becomes a transport fault.

The same listener also serves /node/<percent-encoded caller_id> as a
diagnostic alias onto each node's gateway, which is handy when only the
main port is reachable from where you are debugging.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from typing import Optional
from urllib.parse import unquote

from .http11 import (
    close_server,
    forward,
    serve_xmlrpc,
    split_http_uri,
    split_rosrpc_uri,
)
from .registry import (
    KIND_PUB,
    KIND_SERVICE,
    KIND_SUB,
    NodeRecord,
    Registry,
    UnknownNode,
)
from .slave_gateway import SlaveGatewayManager
from .xmlrpc_codec import (
    FAULT_APP,
    FAULT_BAD_PARAMS,
    MethodCall,
    MethodFault,
    MethodResponse,
)

log = logging.getLogger(__name__)


class BadSignature(Exception):
    """Call params do not match the master-API signature for the method."""


@dataclass(frozen=True)
class RewriteRule:
    method: str
    param_count: int
    caller_api_index: int
    kind: str                 # registry refcount bucket
    registers: bool           # False → this is the unregister direction
    name_index: int = 1       # topic/service name position
    service_api_index: Optional[int] = None


REWRITE_RULES = {
    rule.method: rule
    for rule in (
        RewriteRule("registerService", 4, 3, KIND_SERVICE, True, service_api_index=2),
        RewriteRule("registerSubscriber", 4, 3, KIND_SUB, True),
        RewriteRule("unregisterSubscriber", 3, 2, KIND_SUB, False),
        RewriteRule("registerPublisher", 4, 3, KIND_PUB, True),
        RewriteRule("unregisterPublisher", 3, 2, KIND_PUB, False),
    )
}


def _check_signature(call: MethodCall, rule: RewriteRule) -> Optional[tuple]:
    """Raise BadSignature unless call fits rule; return the (host, port)
    of its rosrpc service_api, or None when the rule carries none."""
    if len(call.params) != rule.param_count:
        raise BadSignature(
            "%s takes %d params, got %d"
            % (call.method_name, rule.param_count, len(call.params))
        )
    for index in (0, rule.name_index, rule.caller_api_index):
        if not isinstance(call.params[index], str):
            raise BadSignature(
                "%s param %d must be a string" % (call.method_name, index)
            )
    try:
        split_http_uri(call.params[rule.caller_api_index])
    except ValueError as exc:
        raise BadSignature("caller_api: %s" % exc)
    if rule.service_api_index is None:
        return None
    service_api = call.params[rule.service_api_index]
    if not isinstance(service_api, str):
        raise BadSignature("service_api must be a string")
    try:
        return split_rosrpc_uri(service_api)
    except ValueError as exc:
        raise BadSignature(str(exc))


class MasterGateway:
    """The main port: rewrites registrations, forwards the rest upstream.

    Like the slave gateways, it reads its settings from registry.config:
    the upstream master, the main port and the timeout of a forwarded
    call. It binds registry.bind_addresses and forwards over registry.pool.
    """

    def __init__(self, registry: Registry, slave_gateways: SlaveGatewayManager):
        self.registry = registry
        self.slave_gateways = slave_gateways
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        config = self.registry.config
        self._server = await serve_xmlrpc(
            self.registry.bind_addresses, config.main_port, self._dispatch
        )
        log.info("master gateway listening on %s:%d, upstream %s",
                 config.bind_host or "*", config.main_port, config.upstream_master_uri)

    async def stop(self) -> None:
        if self._server is not None:
            await close_server(self._server)
            self._server = None

    async def _dispatch(self, path: str, call: MethodCall, peer) -> MethodResponse:
        if path.startswith("/node/"):
            caller_id = unquote(path[len("/node/"):])
            try:
                record = self.registry.get(caller_id)
            except UnknownNode:
                return MethodFault(FAULT_APP, "no proxied node %r" % caller_id)
            return await self.slave_gateways.handle_slave_call(record, call)
        return await self.handle_master_call(call, peer)

    # -- master-API handling -----------------------------------------

    async def handle_master_call(self, call: MethodCall, peer) -> MethodResponse:
        rule = REWRITE_RULES.get(call.method_name)
        if rule is not None:
            try:
                service_target = _check_signature(call, rule)
            except BadSignature as exc:
                return MethodFault(FAULT_BAD_PARAMS, str(exc))

            caller_id = call.params[0]
            params = list(call.params)
            record = None
            try:
                record = await self._node_for(caller_id, params[rule.caller_api_index])
                params[rule.caller_api_index] = self.slave_gateways.advertised_uri(record)
                if service_target is not None:
                    relay = await self.registry.lease_relay(caller_id, *service_target)
                    params[rule.service_api_index] = self.slave_gateways.advertised_rosrpc(
                        relay.port
                    )
                name = params[rule.name_index]
                if rule.registers:
                    self.registry.add_registration(caller_id, rule.kind, name)
                else:
                    remaining = self.registry.remove_registration(caller_id, rule.kind, name)
                    log.debug("%s %s %r: refcount now %d",
                              caller_id, call.method_name, name, remaining)
            except UnknownNode as exc:
                # purged while this waited for the lock
                return MethodFault(FAULT_APP, "node vanished during handling: %s" % exc)
            except Exception as exc:  # Exhausted, BindFailed
                log.error("cannot provision %s for %s: %s", call.method_name, caller_id, exc)
                if record is not None:  # else a new record keeps its lease
                    await self.registry.purge_record(record, only_if_idle=True)
                return MethodFault(FAULT_APP, "cannot provision node resources: %s" % exc)
            call = MethodCall(call.method_name, params)

        config = self.registry.config
        return await forward(
            config.upstream_master_uri, call, timeout=config.request_timeout,
            pool=self.registry.pool, target="upstream master",
        )

    async def _node_for(self, caller_id: str, caller_api: str) -> NodeRecord:
        """ensure_node, except a caller_api that is already the node's
        advertised URI (state replayed back through the proxy) must not
        read as a restart."""
        existing = self.registry.nodes.get(caller_id)
        if (
            existing is not None
            and not existing.purged
            and caller_api == self.slave_gateways.advertised_uri(existing)
        ):
            return existing
        return await self.registry.ensure_node(caller_id, caller_api)
