"""Per-node XML-RPC ingress on leased gateway ports.

Each proxied node gets its own HTTP listener. Every call arriving there
is forwarded to the node's real endpoint; the one interesting case is
requestTopic, whose successful answer names the node's TCPROS socket —
an address external peers cannot reach. For those we lease (or reuse) a
relay and hand out the advertised host and relay port instead. Every
other answer goes back as the bytes the node answered with, and only a
requestTopic answer is decoded here (http11.forward leaves a plain
success answer undecoded until its value is read). A requestTopic
answer with another protocol or shape, or one that does not decode,
goes back unrewritten too. A rewritten answer is a new MethodSuccess,
so none of the node's bytes go out with it.

A dedicated listener per node (rather than one shared server with
per-node paths) is what makes a purged node's port *refuse TCP
connections* — the signal that standard registration-cleanup probes
rely on.
"""

from __future__ import annotations

import asyncio
import logging

from .http11 import forward, serve_xmlrpc
from .registry import NodeRecord, Registry, UnknownNode
from .xmlrpc_codec import (
    FAULT_APP,
    MethodCall,
    MethodFault,
    MethodResponse,
    MethodSuccess,
    RosResult,
)

log = logging.getLogger(__name__)

TCPROS = "TCPROS"


class SlaveGatewayManager:
    """Starts per-node listeners and does the requestTopic rewrite.

    Its settings are the registry's: listeners bind registry.bind_addresses,
    forwards use the timeout of registry.config and go over registry.pool.
    """

    def __init__(self, registry: Registry):
        self.registry = registry

    def _advertised(self, port: int) -> tuple:
        """The (host, port) external peers reach a leased port under."""
        config = self.registry.config
        return config.advertised_host, port + config.host_port_offset

    def advertised_uri(self, record: NodeRecord) -> str:
        return "http://%s:%d/" % self._advertised(record.gateway_port)

    def advertised_rosrpc(self, relay_port: int) -> str:
        return "rosrpc://%s:%d" % self._advertised(relay_port)

    async def start_gateway(self, record: NodeRecord) -> asyncio.AbstractServer:
        """The registry's gateway factory: one XML-RPC listener per node."""
        caller_id = record.caller_id

        async def dispatch(path, call, peer):
            try:
                live = self.registry.get(caller_id)
            except UnknownNode:
                # listener is mid-teardown; in-flight calls get a fault
                return MethodFault(FAULT_APP, "node %s is gone" % caller_id)
            return await self.handle_slave_call(live, call)

        return await serve_xmlrpc(
            self.registry.bind_addresses, record.gateway_lease.port, dispatch
        )

    async def handle_slave_call(self, record: NodeRecord, call: MethodCall) -> MethodResponse:
        response = await forward(
            record.real_slave_uri, call, timeout=self.registry.config.request_timeout,
            pool=self.registry.pool, target="node %s" % record.caller_id,
        )
        if call.method_name == "requestTopic" and isinstance(response, MethodSuccess):
            try:
                return await self._rewrite_request_topic(record, response)
            except ValueError:
                return response  # not the shape we rewrite; hands off
        return response

    async def _rewrite_request_topic(
        self, record: NodeRecord, response: MethodSuccess
    ) -> MethodResponse:
        result = RosResult.from_value(response.value)  # ValueError if foreign shape
        if result.code != 1:
            return response
        # The (protocol, host, port) triple a TCPROS publisher answers with;
        # any other shape or protocol, or a port no socket can have, passes
        # through unrewritten.
        params = result.value
        if (
            not isinstance(params, list)
            or len(params) != 3
            or params[0] != TCPROS
            or not isinstance(params[1], str)
            or isinstance(params[2], bool)
            or not isinstance(params[2], int)
            or not 1 <= params[2] <= 65535
        ):
            return response
        _, host, port = params
        try:
            relay = await self.registry.lease_relay(record.caller_id, host, port)
        except UnknownNode:
            return MethodFault(FAULT_APP, "node %s is gone" % record.caller_id)
        except Exception as exc:  # Exhausted, BindFailed
            log.error("cannot relay %s:%d for %s: %s",
                      host, port, record.caller_id, exc)
            return MethodFault(FAULT_APP, "cannot allocate relay: %s" % exc)
        advertised_host, advertised_port = self._advertised(relay.port)
        log.debug("requestTopic for %s: %s:%d -> %s:%d",
                  record.caller_id, host, port, advertised_host, advertised_port)
        return MethodSuccess(
            RosResult(
                result.code, result.status_message,
                [TCPROS, advertised_host, advertised_port],
            ).to_value()
        )
