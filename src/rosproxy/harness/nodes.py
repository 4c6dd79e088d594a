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
from typing import List, Optional, Set, Tuple

from ..http11 import (
    RpcTransportError,
    close_server,
    hang_up,
    listen,
    serve_xmlrpc,
    split_rosrpc_uri,
)
from ..xmlrpc_codec import MethodSuccess
from .dial import DialLog, PURPOSE_TCPROS, PURPOSE_XMLRPC, make_dialer
from .rpc import RosClient
from .wire import read_frame, read_header, write_frame, write_header

log = logging.getLogger(__name__)

TOPIC_TYPE = "std_msgs/String"
SERVICE_TYPE = "test srv/Echo"
SEND_INTERVAL = 0.02  # seconds between a talker's frames
RPC_TIMEOUT = 5.0  # seconds per XML-RPC call, and for a service's answer


def type_md5(type_name: str) -> str:
    # a stable stand-in checksum; both ends derive it the same way
    return hashlib.md5(type_name.encode()).hexdigest()


def _server_port(server: asyncio.AbstractServer) -> int:
    return server.sockets[0].getsockname()[1]


def _topic_header(caller_id: str, topic: str) -> dict:
    return {"callerid": caller_id, "topic": topic, "type": TOPIC_TYPE,
            "md5sum": type_md5(TOPIC_TYPE)}


async def _exchange_headers(reader, writer, fields: dict) -> dict:
    """Calling side of a connection: send our header, return the reply."""
    write_header(writer, fields)
    await writer.drain()
    return await read_header(reader)


async def _answer_header(reader, writer, key: str, value: str, reply: dict) -> bool:
    """Serving side: send reply if the caller's header names value under
    key and has an md5sum, else an error header; True when accepted."""
    header = await read_header(reader)
    accepted = "md5sum" in header and header.get(key) == value
    write_header(writer, reply if accepted else {"error": "bad connection header"})
    await writer.drain()
    return accepted


class _NodeBase:
    """What every mini node shares: registration, a slave API and one
    teardown. The slave API answers getPid, calls the node's
    _slave_<method> for any other method it has one for, and ignores the
    rest. A node supplies its unregister call."""

    def __init__(self, name: str, master_uri: str, host: str,
                 dial_log: Optional[DialLog]):
        self.name = name
        self.master_uri = master_uri
        self.host = host
        actor = name.strip("/")
        self.rpc_dial = make_dialer(dial_log, actor, PURPOSE_XMLRPC)
        self.tcp_dial = make_dialer(dial_log, actor, PURPOSE_TCPROS)
        self.slave_server: Optional[asyncio.AbstractServer] = None
        self.slave_uri = ""
        self.data_server: Optional[asyncio.AbstractServer] = None
        self.data_port = 0
        self._tasks: Set[asyncio.Task] = set()

    def master_client(self) -> RosClient:
        return RosClient(self.master_uri, timeout=RPC_TIMEOUT, dial=self.rpc_dial)

    async def _serve(self, serve_data) -> None:
        """Serve the slave API, and data connections with serve_data
        unless it is None."""
        self.slave_server = await serve_xmlrpc(self.host, 0, self._slave_dispatch)
        self.slave_uri = "http://%s:%d/" % (self.host, _server_port(self.slave_server))
        if serve_data is not None:
            self.data_server = await listen(self.host, 0, serve_data)
            self.data_port = _server_port(self.data_server)

    async def _register(self, method: str, params: list):
        """Call a register method at the master; return its value."""
        result = await self.master_client().call_ros(method, params)
        if result.code != 1:
            raise RuntimeError("%s refused: %s" % (method, result.status_message))
        return result.value

    async def _slave_dispatch(self, path, call, peer):
        if call.method_name == "getPid":
            return MethodSuccess([1, "pid", os.getpid()])
        handler = getattr(self, "_slave_" + call.method_name, None)
        if handler is None:
            return MethodSuccess([1, "ignored %s" % call.method_name, 0])
        return MethodSuccess(handler(*call.params))

    def unregister_call(self) -> Tuple[str, list]:
        raise NotImplementedError

    async def stop(self, unregister: bool = True) -> None:
        if unregister:
            try:
                await self.master_client().call_ros(*self.unregister_call())
            except (RpcTransportError, ValueError) as exc:
                log.debug("%s: unregister failed: %s", self.name, exc)
        await self.kill()

    async def kill(self) -> None:
        """Die without telling anyone (stale-node material)."""
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for server in (self.slave_server, self.data_server):
            if server is not None:
                await close_server(server)
        self.slave_server = self.data_server = None


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
        dial_log: Optional[DialLog] = None,
    ):
        super().__init__(name, master_uri, host, dial_log)
        self.topic = topic
        self.payloads = list(payloads)
        self.connections_served = 0

    async def start(self) -> None:
        await self._serve(self._serve_topic)
        await self._register(
            "registerPublisher", [self.name, self.topic, TOPIC_TYPE, self.slave_uri]
        )
        log.debug("%s: slave %s, data port %d", self.name, self.slave_uri, self.data_port)

    def unregister_call(self) -> Tuple[str, list]:
        return "unregisterPublisher", [self.name, self.topic, self.slave_uri]

    def _slave_requestTopic(self, caller_id, topic, protocols):
        if topic != self.topic:
            return [-1, "not a publisher of [%s]" % topic, []]
        if not any(p and p[0] == "TCPROS" for p in protocols):
            return [0, "no supported protocol", []]
        return [1, "ready on %s:%d" % (self.host, self.data_port),
                ["TCPROS", self.host, self.data_port]]

    async def _serve_topic(self, reader, writer) -> None:
        try:
            reply = _topic_header(self.name, self.topic)
            if not await _answer_header(reader, writer, "topic", self.topic, reply):
                return
            self.connections_served += 1
            for payload in self.payloads:
                write_frame(writer, payload)
                await writer.drain()
                await asyncio.sleep(SEND_INTERVAL)
            await reader.read()  # hold the stream open until the peer leaves
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            await hang_up(writer)


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
        dial_log: Optional[DialLog] = None,
    ):
        super().__init__(name, master_uri, host, dial_log)
        self.topic = topic
        self.expect_count = expect_count
        self.received: List[bytes] = []
        self._seen_publishers: Set[str] = set()
        self._complete = asyncio.Event()

    async def start(self) -> None:
        await self._serve(None)
        publishers = await self._register(
            "registerSubscriber", [self.name, self.topic, TOPIC_TYPE, self.slave_uri]
        )
        for api in publishers:
            self._chase_publisher(api)

    def unregister_call(self) -> Tuple[str, list]:
        return "unregisterSubscriber", [self.name, self.topic, self.slave_uri]

    def _slave_publisherUpdate(self, caller_id, topic, publishers):
        if topic == self.topic:
            for api in publishers:
                self._chase_publisher(api)
        return [1, "ok", 0]

    def _chase_publisher(self, publisher_api: str) -> None:
        if publisher_api in self._seen_publishers:
            return
        self._seen_publishers.add(publisher_api)
        task = asyncio.ensure_future(self._consume(publisher_api))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _consume(self, publisher_api: str) -> None:
        try:
            client = RosClient(publisher_api, timeout=RPC_TIMEOUT, dial=self.rpc_dial)
            answer = await client.call_ros(
                "requestTopic", [self.name, self.topic, [["TCPROS"]]]
            )
            if answer.code != 1:
                log.debug("%s: %s declined: %s", self.name, publisher_api,
                          answer.status_message)
                return
            _, host, port = answer.value
            reader, writer = await self.tcp_dial(host, port)
            try:
                reply = await _exchange_headers(
                    reader, writer, _topic_header(self.name, self.topic)
                )
                if "error" in reply:
                    log.warning("%s: publisher rejected us: %s", self.name, reply["error"])
                    return
                while not self._complete.is_set():
                    payload = await read_frame(reader)
                    self.received.append(payload)
                    if len(self.received) >= self.expect_count:
                        self._complete.set()
            finally:
                await hang_up(writer)
        except (RpcTransportError, ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError) as exc:
            log.debug("%s: consuming %s failed: %s", self.name, publisher_api, exc)

    async def wait_complete(self, timeout: float) -> List[bytes]:
        await asyncio.wait_for(self._complete.wait(), timeout)
        return list(self.received)


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
        transform=None,
        dial_log: Optional[DialLog] = None,
    ):
        super().__init__(name, master_uri, host, dial_log)
        self.service = service
        self.transform = transform or (lambda data: data)
        self.calls_served = 0

    @property
    def service_api(self) -> str:
        return "rosrpc://%s:%d" % (self.host, self.data_port)

    async def start(self) -> None:
        await self._serve(self._serve_call)
        await self._register(
            "registerService", [self.name, self.service, self.service_api, self.slave_uri]
        )

    def unregister_call(self) -> Tuple[str, list]:
        return "unregisterService", [self.name, self.service, self.service_api]

    async def _serve_call(self, reader, writer) -> None:
        try:
            reply = {"callerid": self.name, "type": SERVICE_TYPE,
                     "md5sum": type_md5(SERVICE_TYPE)}
            if not await _answer_header(reader, writer, "service", self.service, reply):
                return
            request = await read_frame(reader)
            write_frame(writer, self.transform(request))
            await writer.drain()
            self.calls_served += 1
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            await hang_up(writer)


async def call_service(
    master_uri: str,
    caller_name: str,
    service: str,
    request: bytes,
    *,
    dial_log: Optional[DialLog] = None,
) -> bytes:
    """Look the service up at the master, connect, exchange one frame."""
    actor = caller_name.strip("/")
    master = RosClient(
        master_uri, timeout=RPC_TIMEOUT, dial=make_dialer(dial_log, actor, PURPOSE_XMLRPC)
    )
    found = await master.call_ros("lookupService", [caller_name, service])
    if found.code != 1:
        raise RuntimeError("service %s not found: %s" % (service, found.status_message))
    host, port = split_rosrpc_uri(found.value)

    reader, writer = await make_dialer(dial_log, actor, PURPOSE_TCPROS)(host, port)
    try:
        reply = await _exchange_headers(
            reader, writer,
            {"callerid": caller_name, "service": service, "md5sum": type_md5(SERVICE_TYPE)},
        )
        if "error" in reply:
            raise RuntimeError("service rejected call: %s" % reply["error"])
        write_frame(writer, request)
        await writer.drain()
        return await asyncio.wait_for(read_frame(reader), RPC_TIMEOUT)
    finally:
        await hang_up(writer)
