"""The benchmark's own ROS peers: HTTP/1.1, XML-RPC and TCPROS framing.

XML-RPC goes through stdlib ``xmlrpc.client.dumps``/``loads`` (the code
rospy uses) and HTTP and TCPROS framing are written here. Nothing in this
package imports ``rosproxy.http11``, ``rosproxy.xmlrpc_codec`` or
``rosproxy.harness``: if the peers shared the proxy's codec, a faster codec
would also speed up the load generator and inflate the measured gain.

Every wait here is bounded: a peer that hangs raises ``asyncio.TimeoutError``
(or ``PeerError``), which the workloads count as a failed operation.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import Awaitable, Callable, Dict, List, Optional, Tuple
from xmlrpc.client import Fault, dumps, loads

CALL_TIMEOUT = 10.0

# Loopback topology: internal nodes live on 127.0.1.x, external ones on
# 127.0.2.x. The proxy binds every address, so internal nodes reach it on
# PROXY_INTERNAL_HOST and external peers on ADVERTISED_HOST.
INTERNAL_HOST = "127.0.1.1"
PROXY_INTERNAL_HOST = "127.0.1.2"
EXTERNAL_HOST = "127.0.2.1"
ADVERTISED_HOST = "127.0.2.2"
EXTERNAL_PREFIX = "127.0.2."

TOPIC_TYPE = "std_msgs/ByteMultiArray"
TOPIC_MD5 = "70ea476cbcfd65ac2f68f3cda1e891fe"

# Payload header inside every TCPROS frame the talkers send:
# sequence number, kind, due time (perf_counter_ns) and crc32 of the body.
FRAME_HEAD = struct.Struct("<IB3xQI")
KIND_SMALL, KIND_IMAGE, KIND_BULK, KIND_FIRST = 0, 1, 2, 3


class PeerError(Exception):
    """A peer got an answer it cannot use (bad status, fault, bad shape)."""


# -- XML-RPC bodies ---------------------------------------------------------

def encode_call(method: str, params: list) -> bytes:
    return dumps(tuple(params), method).encode("utf-8")


def encode_response(value) -> bytes:
    return dumps((value,), methodresponse=True, allow_none=False).encode("utf-8")


def decode_response(raw: bytes):
    """The single value of a methodResponse; raises PeerError on a fault."""
    try:
        params, _ = loads(raw)
    except Fault as exc:
        raise PeerError("fault %s: %s" % (exc.faultCode, exc.faultString)) from exc
    if len(params) != 1:
        raise PeerError("response carries %d values" % len(params))
    return params[0]


def ros_value(raw: bytes):
    """Unwrap the ROS (code, statusMessage, value) convention; code must be 1."""
    value = decode_response(raw)
    if not isinstance(value, list) or len(value) != 3 or value[0] != 1:
        raise PeerError(("not a successful ROS result: %r" % (value,))[:200])
    return value[2]


def split_uri(uri: str, scheme: str = "http") -> Tuple[str, int]:
    prefix = scheme + "://"
    if not uri.startswith(prefix):
        raise PeerError("not a %s URI: %r" % (scheme, uri))
    host, sep, port = uri[len(prefix):].rstrip("/").rpartition(":")
    if not sep or not port.isdigit():
        raise PeerError("no port in %r" % uri)
    return host, int(port)


# -- dialing ----------------------------------------------------------------

class DialGuard:
    """External peers dial through here; anything off 127.0.2.x is recorded."""

    def __init__(self):
        self.violations: List[str] = []

    def check(self, host: str, port: int) -> None:
        if not host.startswith(EXTERNAL_PREFIX):
            self.violations.append("external peer dialed %s:%d" % (host, port))
            raise PeerError("external peer dialed internal address %s:%d" % (host, port))


# -- HTTP/1.1 ---------------------------------------------------------------

async def _read_head(reader) -> Dict[bytes, bytes]:
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise ConnectionResetError("peer closed mid-headers")
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()


async def _read_body(reader, headers) -> bytes:
    length = headers.get(b"content-length")
    if length is None or not length.isdigit():
        raise PeerError("response without Content-Length")
    return await reader.readexactly(int(length))


def _request(host: str, port: int, body: bytes, close: bool) -> List[bytes]:
    head = (
        "POST / HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: text/xml\r\n"
        "Content-Length: %d\r\n%s\r\n"
        % (host, port, len(body), "Connection: close\r\n" if close else "")
    )
    return [head.encode("latin-1"), body]


async def _read_response(reader) -> bytes:
    status = await reader.readline()
    parts = status.split(None, 2)
    if len(parts) < 2 or parts[1] != b"200":
        raise PeerError("HTTP status line %r" % status[:80])
    return await _read_body(reader, await _read_head(reader))


class HttpConnection:
    """A keep-alive XML-RPC client connection (one call in flight)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def open(self) -> "HttpConnection":
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), CALL_TIMEOUT
        )
        return self

    async def post(self, body: bytes, timeout: float = CALL_TIMEOUT) -> bytes:
        async def roundtrip():
            self._writer.writelines(_request(self.host, self.port, body, False))
            await self._writer.drain()
            return await _read_response(self._reader)

        return await asyncio.wait_for(roundtrip(), timeout)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await asyncio.wait_for(self._writer.wait_closed(), CALL_TIMEOUT)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            self._writer = None


async def post_once(host: str, port: int, body: bytes, timeout: float = CALL_TIMEOUT) -> bytes:
    """One call on its own connection, closed afterwards."""

    async def roundtrip():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.writelines(_request(host, port, body, True))
            await writer.drain()
            return await _read_response(reader)
        finally:
            writer.close()

    return await asyncio.wait_for(roundtrip(), timeout)


# handler(method, params) -> encoded methodResponse body
Handler = Callable[[str, tuple], Awaitable[bytes]]


class XmlRpcServer:
    """Serves XML-RPC POSTs; keeps connections alive unless told to close."""

    def __init__(self, handler: Handler):
        self.handler = handler
        self.server: Optional[asyncio.AbstractServer] = None
        self._writers = set()

    async def start(self, host: str, port: int = 0) -> "XmlRpcServer":
        self.server = await asyncio.start_server(self._serve, host, port)
        return self

    @property
    def port(self) -> int:
        return self.server.sockets[0].getsockname()[1]

    def uri(self, host: str) -> str:
        return "http://%s:%d/" % (host, self.port)

    async def _serve(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                if not await reader.readline():
                    break
                headers = await _read_head(reader)
                params, method = loads(await _read_body(reader, headers))
                payload = await self.handler(method, params)
                close = headers.get(b"connection", b"").lower() == b"close"
                head = "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: %d\r\n%s\r\n" % (
                    len(payload), "Connection: close\r\n" if close else "")
                writer.writelines([head.encode("latin-1"), payload])
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, PeerError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def close(self) -> None:
        if self.server is not None:
            self.server.close()
            for writer in list(self._writers):
                writer.close()
            await asyncio.wait_for(self.server.wait_closed(), CALL_TIMEOUT)
            self.server = None


# -- TCPROS -----------------------------------------------------------------

def encode_header(fields: Dict[str, str]) -> bytes:
    parts = []
    for key, value in fields.items():
        blob = ("%s=%s" % (key, value)).encode("utf-8")
        parts.append(struct.pack("<I", len(blob)) + blob)
    body = b"".join(parts)
    return struct.pack("<I", len(body)) + body


def decode_header(body: bytes) -> Dict[str, str]:
    fields = {}
    offset = 0
    while offset < len(body):
        (length,) = struct.unpack_from("<I", body, offset)
        blob = body[offset + 4:offset + 4 + length]
        offset += 4 + length
        key, sep, value = blob.partition(b"=")
        if not sep:
            raise PeerError("bad TCPROS header field %r" % blob[:40])
        fields[key.decode()] = value.decode()
    return fields


async def read_block(reader) -> bytes:
    (length,) = struct.unpack("<I", await reader.readexactly(4))
    return await reader.readexactly(length)


def subscriber_header(caller_id: str, topic: str) -> bytes:
    return encode_header({
        "callerid": caller_id, "topic": topic, "type": TOPIC_TYPE,
        "md5sum": TOPIC_MD5, "tcp_nodelay": "1",
    })


def publisher_header(caller_id: str, topic: str) -> bytes:
    return encode_header({
        "callerid": caller_id, "topic": topic, "type": TOPIC_TYPE,
        "md5sum": TOPIC_MD5, "latching": "0",
    })


def frame(seq: int, kind: int, due_ns: int, body: bytes, crc: int) -> bytes:
    """One TCPROS message frame: length prefix, payload header, body."""
    head = FRAME_HEAD.pack(seq, kind, due_ns, crc)
    return struct.pack("<I", len(head) + len(body)) + head + body


def check_payload(payload, expect_seq: int, expect_crc: int) -> Tuple[int, int]:
    """Verify a received frame payload; returns (kind, due_ns)."""
    seq, kind, due_ns, crc = FRAME_HEAD.unpack_from(payload)
    if seq != expect_seq:
        raise PeerError("frame seq %d, expected %d" % (seq, expect_seq))
    if crc != expect_crc or zlib.crc32(memoryview(payload)[FRAME_HEAD.size:]) != crc:
        raise PeerError("frame %d digest mismatch" % seq)
    return kind, due_ns
