"""Mini nodes: a talker, a listener, and an echo service.

Each one speaks the real thing — XML-RPC registration against whatever
master URI it is given, a slave API served on its own port, and topic
or service bytes over length-prefixed connections. The node code never
knows whether its master URI points at a real master or at the proxy;
that indifference is the transparency property under test.

kill() tears a node down abruptly (no unregistration), which is how
scenarios manufacture stale registrations.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import os
from typing import List, Optional, Set

from ..http11 import (
    RpcTransportError,
    XmlRpcClient,
    close_server,
    hang_up,
    listen,
    serve_xmlrpc,
    split_rosrpc_uri,
)
from ..xmlrpc_codec import MethodSuccess, RosResult
from .dial import DialLog, PURPOSE_TCPROS, PURPOSE_XMLRPC, make_dialer
from .wire import read_frame, read_header, write_frame, write_header

log = logging.getLogger(__name__)


def type_md5(type_name: str) -> str:
    # a stable stand-in checksum; both ends derive it the same way
    return hashlib.md5(type_name.encode()).hexdigest()


def _server_port(server: asyncio.AbstractServer) -> int:
    return server.sockets[0].getsockname()[1]


class _NodeBase:
    def __init__(self, name: str, master_uri: str, host: str,
                 dial_log: Optional[DialLog]):
        self.name = name
        self.master_uri = master_uri
        self.host = host
        actor = name.strip("/")
        self.rpc_dial = make_dialer(dial_log, actor, PURPOSE_XMLRPC) if dial_log else None
        self.tcp_dial = make_dialer(dial_log, actor, PURPOSE_TCPROS) if dial_log else None
        self.slave_server: Optional[asyncio.AbstractServer] = None
        self.slave_uri = ""

    def master_client(self) -> XmlRpcClient:
        return XmlRpcClient(self.master_uri, timeout=5.0, dial=self.rpc_dial)

    async def _start_slave(self, dispatch) -> None:
        self.slave_server = await serve_xmlrpc(self.host, 0, dispatch)
        self.slave_uri = "http://%s:%d/" % (self.host, _server_port(self.slave_server))

    async def _close_server(self, server: Optional[asyncio.AbstractServer]) -> None:
        if server is not None:
            await close_server(server)


class Talker(_NodeBase):
    """Registers as publisher and streams its payload list to every
    subscriber connection."""

    def __init__(
        self,
        name: str,
        master_uri: str,
        topic: str,
        payloads: List[bytes],
        *,
        host: str = "127.0.0.1",
        topic_type: str = "std_msgs/String",
        send_interval: float = 0.02,
        dial_log: Optional[DialLog] = None,
    ):
        super().__init__(name, master_uri, host, dial_log)
        self.topic = topic
        self.payloads = list(payloads)
        self.topic_type = topic_type
        self.send_interval = send_interval
        self.data_server: Optional[asyncio.AbstractServer] = None
        self.data_port = 0
        self.connections_served = 0

    async def start(self) -> None:
        await self._start_slave(self._slave_dispatch)
        self.data_server = await listen(self.host, 0, self._serve_topic)
        self.data_port = _server_port(self.data_server)
        result = await self.master_client().call_ros(
            "registerPublisher", [self.name, self.topic, self.topic_type, self.slave_uri]
        )
        if result.code != 1:
            raise RuntimeError("publisher registration refused: %s" % result.status_message)
        log.debug("%s: slave %s, data port %d", self.name, self.slave_uri, self.data_port)

    async def _slave_dispatch(self, path, call, peer):
        if call.method_name == "getPid":
            return MethodSuccess([1, "pid", os.getpid()])
        if call.method_name == "publisherUpdate":
            return MethodSuccess([1, "ok", 0])
        if call.method_name == "requestTopic":
            _, topic = call.params[0], call.params[1]
            protocols = call.params[2]
            if topic != self.topic:
                return MethodSuccess([-1, "not a publisher of [%s]" % topic, []])
            if not any(p and p[0] == "TCPROS" for p in protocols):
                return MethodSuccess([0, "no supported protocol", []])
            return MethodSuccess(
                RosResult(
                    1,
                    "ready on %s:%d" % (self.host, self.data_port),
                    ["TCPROS", self.host, self.data_port],
                ).to_value()
            )
        return MethodSuccess([1, "ignored %s" % call.method_name, 0])

    async def _serve_topic(self, reader, writer) -> None:
        try:
            header = await read_header(reader)
            if "md5sum" not in header or header.get("topic") != self.topic:
                write_header(writer, {"error": "bad connection header"})
                await writer.drain()
                return
            write_header(
                writer,
                {
                    "callerid": self.name,
                    "topic": self.topic,
                    "type": self.topic_type,
                    "md5sum": type_md5(self.topic_type),
                },
            )
            await writer.drain()
            self.connections_served += 1
            for payload in self.payloads:
                write_frame(writer, payload)
                await writer.drain()
                if self.send_interval:
                    await asyncio.sleep(self.send_interval)
            await reader.read()  # hold the stream open until the peer leaves
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            await hang_up(writer)

    async def stop(self, unregister: bool = True) -> None:
        if unregister:
            try:
                await self.master_client().call_ros(
                    "unregisterPublisher", [self.name, self.topic, self.slave_uri]
                )
            except (RpcTransportError, ValueError) as exc:
                log.debug("%s: unregister failed: %s", self.name, exc)
        await self.kill()

    async def kill(self) -> None:
        """Die without telling anyone (stale-node material)."""
        await self._close_server(self.slave_server)
        await self._close_server(self.data_server)
        self.slave_server = None
        self.data_server = None


class Listener(_NodeBase):
    """Registers as subscriber, chases publishers, collects payloads."""

    def __init__(
        self,
        name: str,
        master_uri: str,
        topic: str,
        expect_count: int,
        *,
        host: str = "127.0.0.1",
        topic_type: str = "std_msgs/String",
        dial_log: Optional[DialLog] = None,
    ):
        super().__init__(name, master_uri, host, dial_log)
        self.topic = topic
        self.topic_type = topic_type
        self.expect_count = expect_count
        self.received: List[bytes] = []
        self._seen_publishers: Set[str] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._complete = asyncio.Event()

    async def start(self) -> None:
        await self._start_slave(self._slave_dispatch)
        result = await self.master_client().call_ros(
            "registerSubscriber", [self.name, self.topic, self.topic_type, self.slave_uri]
        )
        if result.code != 1:
            raise RuntimeError("subscriber registration refused: %s" % result.status_message)
        for api in result.value:
            self._chase_publisher(api)

    async def _slave_dispatch(self, path, call, peer):
        if call.method_name == "getPid":
            return MethodSuccess([1, "pid", os.getpid()])
        if call.method_name == "publisherUpdate":
            topic, publishers = call.params[1], call.params[2]
            if topic == self.topic:
                for api in publishers:
                    self._chase_publisher(api)
            return MethodSuccess([1, "ok", 0])
        return MethodSuccess([1, "ignored %s" % call.method_name, 0])

    def _chase_publisher(self, publisher_api: str) -> None:
        if publisher_api in self._seen_publishers:
            return
        self._seen_publishers.add(publisher_api)
        task = asyncio.ensure_future(self._consume(publisher_api))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _consume(self, publisher_api: str) -> None:
        try:
            client = XmlRpcClient(publisher_api, timeout=5.0, dial=self.rpc_dial)
            answer = await client.call_ros(
                "requestTopic", [self.name, self.topic, [["TCPROS"]]]
            )
            if answer.code != 1:
                log.debug("%s: %s declined: %s", self.name, publisher_api,
                          answer.status_message)
                return
            _, host, port = answer.value
            if self.tcp_dial is not None:
                reader, writer = await self.tcp_dial(host, port)
            else:
                reader, writer = await asyncio.open_connection(host, port)
            try:
                write_header(
                    writer,
                    {
                        "callerid": self.name,
                        "topic": self.topic,
                        "type": self.topic_type,
                        "md5sum": type_md5(self.topic_type),
                    },
                )
                await writer.drain()
                reply = await read_header(reader)
                if "error" in reply:
                    log.warning("%s: publisher rejected us: %s", self.name, reply["error"])
                    return
                while not self._complete.is_set():
                    payload = await read_frame(reader)
                    self.received.append(payload)
                    if len(self.received) >= self.expect_count:
                        self._complete.set()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        except (RpcTransportError, ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError) as exc:
            log.debug("%s: consuming %s failed: %s", self.name, publisher_api, exc)

    async def wait_complete(self, timeout: float) -> List[bytes]:
        await asyncio.wait_for(self._complete.wait(), timeout)
        return list(self.received)

    async def stop(self, unregister: bool = True) -> None:
        if unregister:
            try:
                await self.master_client().call_ros(
                    "unregisterSubscriber", [self.name, self.topic, self.slave_uri]
                )
            except (RpcTransportError, ValueError) as exc:
                log.debug("%s: unregister failed: %s", self.name, exc)
        await self.kill()

    async def kill(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        await self._close_server(self.slave_server)
        self.slave_server = None


class ServiceNode(_NodeBase):
    """Registers a service and answers one request per connection.

    The default behaviour echoes the request bytes back, which makes
    byte-level transparency trivial to assert.
    """

    def __init__(
        self,
        name: str,
        master_uri: str,
        service: str,
        *,
        host: str = "127.0.0.1",
        service_type: str = "test srv/Echo",
        transform=None,
        dial_log: Optional[DialLog] = None,
    ):
        super().__init__(name, master_uri, host, dial_log)
        self.service = service
        self.service_type = service_type
        self.transform = transform or (lambda data: data)
        self.data_server: Optional[asyncio.AbstractServer] = None
        self.data_port = 0
        self.calls_served = 0

    @property
    def service_api(self) -> str:
        return "rosrpc://%s:%d" % (self.host, self.data_port)

    async def start(self) -> None:
        await self._start_slave(self._slave_dispatch)
        self.data_server = await listen(self.host, 0, self._serve_call)
        self.data_port = _server_port(self.data_server)
        result = await self.master_client().call_ros(
            "registerService", [self.name, self.service, self.service_api, self.slave_uri]
        )
        if result.code != 1:
            raise RuntimeError("service registration refused: %s" % result.status_message)

    async def _slave_dispatch(self, path, call, peer):
        if call.method_name == "getPid":
            return MethodSuccess([1, "pid", os.getpid()])
        return MethodSuccess([1, "ignored %s" % call.method_name, 0])

    async def _serve_call(self, reader, writer) -> None:
        try:
            header = await read_header(reader)
            if "md5sum" not in header or header.get("service") != self.service:
                write_header(writer, {"error": "bad connection header"})
                await writer.drain()
                return
            write_header(
                writer,
                {
                    "callerid": self.name,
                    "type": self.service_type,
                    "md5sum": type_md5(self.service_type),
                },
            )
            await writer.drain()
            request = await read_frame(reader)
            write_frame(writer, self.transform(request))
            await writer.drain()
            self.calls_served += 1
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            await hang_up(writer)

    async def stop(self, unregister: bool = True) -> None:
        if unregister:
            try:
                await self.master_client().call_ros(
                    "unregisterService", [self.name, self.service, self.service_api]
                )
            except (RpcTransportError, ValueError) as exc:
                log.debug("%s: unregister failed: %s", self.name, exc)
        await self.kill()

    async def kill(self) -> None:
        await self._close_server(self.slave_server)
        await self._close_server(self.data_server)
        self.slave_server = None
        self.data_server = None


async def call_service(
    master_uri: str,
    caller_name: str,
    service: str,
    request: bytes,
    *,
    service_type: str = "test srv/Echo",
    dial_log: Optional[DialLog] = None,
    timeout: float = 5.0,
) -> bytes:
    """Look the service up at the master, connect, exchange one frame."""
    actor = caller_name.strip("/")
    rpc_dial = make_dialer(dial_log, actor, PURPOSE_XMLRPC) if dial_log else None
    tcp_dial = make_dialer(dial_log, actor, PURPOSE_TCPROS) if dial_log else None

    master = XmlRpcClient(master_uri, timeout=timeout, dial=rpc_dial)
    found = await master.call_ros("lookupService", [caller_name, service])
    if found.code != 1:
        raise RuntimeError("service %s not found: %s" % (service, found.status_message))
    host, port = split_rosrpc_uri(found.value)

    if tcp_dial is not None:
        reader, writer = await tcp_dial(host, port)
    else:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        write_header(
            writer,
            {
                "callerid": caller_name,
                "service": service,
                "md5sum": type_md5(service_type),
            },
        )
        await writer.drain()
        reply = await read_header(reader)
        if "error" in reply:
            raise RuntimeError("service rejected call: %s" % reply["error"])
        write_frame(writer, request)
        await writer.drain()
        return await asyncio.wait_for(read_frame(reader), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
