"""The harness's XML-RPC client for ROS APIs: call_ros unwraps the
(code, statusMessage, value) answer every master and slave API method
gives, so scenarios and tests read results instead of raw responses."""

from __future__ import annotations

from ..http11 import RpcTransportError, XmlRpcClient
from ..xmlrpc_codec import MethodFault, RosResult


class XmlRpcFaultError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__("fault %d: %s" % (code, message))
        self.code = code
        self.message = message


class RosClient(XmlRpcClient):
    async def call_ros(self, method: str, params: list) -> RosResult:
        """Call and unwrap the ROS (code, statusMessage, value) convention."""
        response = await self.call(method, params)
        if isinstance(response, MethodFault):
            raise XmlRpcFaultError(response.code, response.message)
        try:
            return RosResult.from_value(response.value)
        except ValueError as exc:
            raise RpcTransportError("response from %s is not a ROS result: %s" % (self.uri, exc)) from exc
