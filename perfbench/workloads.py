"""The three traffic phases, each driven against a freshly started proxy.

* topic-stream (open loop): one internal talker, two topics, one external
  subscriber per topic through the relays. 128-B frames at 5,000/s next to
  1 MiB frames at 30/s, then a flow-controlled bulk transfer.
* graph-query (closed loop, 2 internal callers): pass-through master reads
  of a 400-topic graph and a ~200 KiB string param.
* graph-churn (closed loop, 2 internal robots): restart under the same
  caller_id, registerPublisher (rewrite + purge), requestTopic to the first
  frame through a new relay, then a registerSubscriber/unregisterSubscriber
  pair.

Every frame carries its due time and a digest; every pass-through answer
is checked against what the stub master sent; every wait is bounded and a
timeout counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import os
import random
import selectors
import socket
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from master import INTERNAL_PREFIX, ROBOT_DESCRIPTION, StubMaster, word
from peers import (
    ADVERTISED_HOST,
    FRAME_HEAD,
    CALL_TIMEOUT,
    EXTERNAL_HOST,
    INTERNAL_HOST,
    KIND_BULK,
    KIND_FIRST,
    KIND_IMAGE,
    KIND_SMALL,
    PROXY_INTERNAL_HOST,
    TOPIC_TYPE,
    DialGuard,
    HttpConnection,
    PeerError,
    XmlRpcServer,
    check_payload,
    decode_header,
    decode_response,
    encode_call,
    encode_response,
    frame,
    post_once,
    publisher_header,
    read_block,
    ros_value,
    split_uri,
    subscriber_header,
)

SMALL_BYTES = 128            # whole TCPROS payload of an IMU/tf-like frame
SMALL_RATE = 5000.0
IMAGE_BYTES = 1024 * 1024    # camera-like frame
IMAGE_RATE = 30.0
SMALL_POOL = 64
IMAGE_POOL = 4
STREAM_WARMUP_S = 0.3
FIXED_RATE_CHUNK = 64 * 1024   # largest single send of an image frame
BULK_SHARE = 0.15
BULK_WINDOW_S = 0.2
# Fixed buffers on the talker and subscriber sockets: with kernel
# autotuning, bulk MiB/s varied more from run to run.
STREAM_SOCKET_BUFFER = 4 * 1024 * 1024
DIRECT_SHARE = 0.1
QUERY_WARMUP_CALLS = 4
CHURN_WARMUP_CYCLES = 2
DRAIN_TIMEOUT = 5.0
# Samples during which the hypervisor took CPU ticks from the machine are
# left out, as long as at least MIN_KEPT of them remain (see quiet_samples).
STEAL_PERIOD_S = 0.02
MIN_KEPT = 0.25

NETWORK_ERRORS = (PeerError, ConnectionError, OSError, asyncio.TimeoutError,
                  asyncio.IncompleteReadError)

# graph-query mix: (class, weight); "lookup" covers the small calls.
# The weights and the think times below are assumptions, not measured from
# recorded ROS master traffic; change them only against such a recording.
QUERY_MIX = (("gss400", 0.25), ("param_blob", 0.10), ("lookup", 0.65))
# Seeded exponential think time after each call or cycle. It keeps the
# proxy's one loop and the load process busy about a quarter of the time,
# so the median is the uncontended call and contention shows in the tail.
# Were both over half busy, a lookup would often queue behind the other
# caller's getSystemState, and a machine slowed by its neighbours would
# move the medians several-fold through queueing alone.
QUERY_THINK_S = 0.040
CHURN_THINK_S = 0.025


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(message)


@dataclass
class Env:
    """What every phase shares: seed, stub master, dial guard, ports."""

    seed: int
    master: StubMaster
    master_uri: str
    guard: DialGuard
    main_port: int
    lease_window: tuple
    tally: Tally = field(default_factory=Tally)

    def rng(self, salt: str) -> random.Random:
        return random.Random("%d/%s" % (self.seed, salt))

    def check_advertised(self, host: str, port: int) -> None:
        self.guard.check(host, port)
        low, high = self.lease_window
        if host != ADVERTISED_HOST or not low <= port <= high:
            raise PeerError("advertised endpoint %s:%d outside %s:%d-%d"
                            % (host, port, ADVERTISED_HOST, low, high))

    async def proxy_connection(self) -> HttpConnection:
        return await HttpConnection(PROXY_INTERNAL_HOST, self.main_port).open()

    async def master_connection(self) -> HttpConnection:
        host, port = split_uri(self.master_uri)
        self.guard.check(host, port)
        return await HttpConnection(host, port).open()


@dataclass
class PhaseResult:
    samples: Dict[str, List[float]] = field(default_factory=dict)   # ms
    spans: Dict[str, List[tuple]] = field(default_factory=dict)     # (start, end) perf_counter_ns
    values: Dict[str, float] = field(default_factory=dict)
    steal_marks: list = field(default_factory=list)  # (perf_counter_ns, steal ticks, all ticks)

    def add(self, name: str, value_ms: float, at_ns: int = 0, end_ns: Optional[int] = None) -> None:
        """One sample taken from at_ns to end_ns (by default, at_ns plus
        the sample as a duration)."""
        self.samples.setdefault(name, []).append(value_ms)
        self.spans.setdefault(name, []).append(
            (at_ns, at_ns + int(value_ms * 1e6) if end_ns is None else end_ns))

    def merge(self, other: "PhaseResult") -> None:
        """Pool another run of the same phase into this one."""
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)
            self.spans.setdefault(name, []).extend(other.spans[name])
        self.values.update(other.values)
        self.steal_marks.extend(other.steal_marks)

    def quiet(self, name: str) -> List[float]:
        """The samples of one set that quiet_samples keeps."""
        return quiet_samples(self.spans.get(name, []), self.samples.get(name, []), self.steal_marks)


def _pool(rng: random.Random, count: int, size: int):
    bodies = [rng.randbytes(size) for _ in range(count)]
    return bodies, [zlib.crc32(b) for b in bodies]


async def _slave_server(answers: Dict[str, list], host: str) -> XmlRpcServer:
    """A node's slave API: fixed answers, getPid (the proxy pings it), and
    a plain success for anything else."""

    async def handle(method, params):
        if method in answers:
            return encode_response(answers[method])
        if method == "getPid":
            return encode_response([1, "", os.getpid()])
        return encode_response([1, "", 0])

    return await XmlRpcServer(handle).start(host)


async def busy_poll() -> None:
    """Keep the load process's event loop polling until cancelled.

    A reply that finds the load process asleep must wake its vCPU, and on a
    shared host the hypervisor takes a varying time to run a halted vCPU
    again: the busier the neighbours, the longer. A closed-loop call
    crosses between the two processes several times, so those wake-ups set
    much of its latency and most of its run-to-run spread. Polling keeps
    the load process's own vCPU running, so replies reach it at once; the
    proxy is left to sleep and wake as it would anywhere."""
    while True:
        await asyncio.sleep(0)


def proxy_cpu_seconds(pid: int) -> float:
    """utime + stime of the proxy process (NaN once it has gone)."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rpartition(")")[2].split()
    except OSError:
        return float("nan")
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- topic-stream -----------------------------------------------------------

class FrameParser:
    """Subscriber side of one topic connection, fed bytes as they arrive.

    Frames are parsed as a stream: the digest is updated chunk by chunk and
    nothing is reassembled, so a 1 MiB frame costs as little as possible."""

    HEAD = 4 + FRAME_HEAD.size

    def __init__(self, crcs, result: PhaseResult, warm_ns: int):
        self.crcs = crcs
        self.result = result
        self.warm_ns = warm_ns  # frames due earlier are checked but not timed
        self.head = bytearray()
        self.remaining = 0      # body bytes of the current frame still to come
        self.frame_len = 0
        self.frame_info = None
        self.crc = 0
        self.next_seq = 0
        self.received = 0
        self.errors: List[str] = []
        self.bulk_arrivals = []  # (arrival ns, frame bytes)

    def feed(self, view: memoryview, now: int) -> None:
        pos, end = 0, len(view)
        while pos < end:
            if self.remaining:
                take = min(self.remaining, end - pos)
                self.crc = zlib.crc32(view[pos:pos + take], self.crc)
                pos += take
                self.remaining -= take
                if not self.remaining:
                    self._frame(now)
                continue
            take = min(self.HEAD - len(self.head), end - pos)
            self.head += view[pos:pos + take]
            pos += take
            if len(self.head) == self.HEAD:
                self.frame_len = int.from_bytes(self.head[:4], "little")
                self.frame_info = FRAME_HEAD.unpack_from(self.head, 4)
                self.head = bytearray()
                self.crc = 0
                self.remaining = self.frame_len - FRAME_HEAD.size
                if not self.remaining:
                    self._frame(now)

    def _frame(self, now: int) -> None:
        seq, kind, due, crc = self.frame_info
        expect = self.next_seq
        self.next_seq = seq + 1
        self.received += 1
        if seq != expect or crc != self.crcs[seq % len(self.crcs)] or crc != self.crc:
            self.errors.append("stream: frame %d (expected %d) lost, reordered or corrupt" % (seq, expect))
        elif kind == KIND_BULK:
            self.bulk_arrivals.append((now, 4 + self.frame_len))
        elif due >= self.warm_ns:
            self.result.add("small" if kind == KIND_SMALL else "image", (now - due) / 1e6, due)


class StreamThread(threading.Thread):
    """The open-loop talker and both subscribers, in one thread.

    Small frames go out on schedule; image frames are pushed with
    non-blocking sends between them, so a big frame never holds the
    small-frame schedule; bulk follows on the image connection, as fast as
    the relay takes it. Between sends the thread polls the sockets with
    select(0) until the next frame falls due (an asyncio or epoll timer
    rounds up to a millisecond, and a sleeping vCPU wakes late on a shared
    host; see busy_poll), and reads whatever the relays deliver. Sending
    and receiving in one thread keeps the generator from waiting on the
    asyncio thread for the CPU or the GIL."""

    def __init__(self, tx, rx, parsers, small_pool, image_pool, start: float,
                 fixed_s: float, bulk_s: float, cpu_probe):
        super().__init__(name="topic-stream", daemon=True)
        self.small_tx, self.image_tx = tx
        self.parsers = parsers
        self.small_pool, self.image_pool = small_pool, image_pool
        self.start_at, self.fixed_s, self.bulk_s = start, fixed_s, bulk_s
        self.cpu_probe = cpu_probe
        self.cpu = []            # proxy CPU seconds at start, end of fixed rate, end
        self.selector = selectors.SelectSelector()
        for sock, parser in zip(rx, parsers):
            self.selector.register(sock, selectors.EVENT_READ, parser)
        self.late_ns: List[int] = []
        self.sent_small = self.sent_image = self.sent_bulk = 0
        self.bytes_sent = 0
        self.bulk_start_ns = 0
        self.small_out = bytearray()
        self.image_out: List[memoryview] = []
        self.error: Optional[BaseException] = None

    def run(self):
        try:
            self.cpu.append(self.cpu_probe())
            self._fixed_rate()
            self.cpu.append(self.cpu_probe())
            self._bulk()
            self._drain()
            self.cpu.append(self.cpu_probe())
        except (OSError, ValueError) as exc:
            self.error = exc
        finally:
            self.selector.close()

    def _image(self, seq: int, kind: int, due_ns: int) -> List[memoryview]:
        """Head and body of a big frame, sent without concatenating 1 MiB."""
        bodies, crcs = self.image_pool
        body = bodies[seq % len(bodies)]
        head = frame(seq, kind, due_ns, b"", crcs[seq % len(crcs)])
        head = (len(head) - 4 + len(body)).to_bytes(4, "little") + head[4:]
        return [memoryview(head), memoryview(body)]

    def _push(self, chunk: int) -> None:
        """Send what the sockets take now, without blocking, and at most
        one chunk of the big frame: a small frame falling due meanwhile
        waits for one chunk's copy, not for the whole frame's."""
        if self.small_out:
            n = _send(self.small_tx, self.small_out)
            del self.small_out[:n]
            self.bytes_sent += n
        if self.image_out:
            n = _send(self.image_tx, self.image_out[0][:chunk])
            self.bytes_sent += n
            if n == len(self.image_out[0]):
                self.image_out.pop(0)
            elif n:
                self.image_out[0] = self.image_out[0][n:]

    def _wait(self, timeout: float) -> None:
        """Read what arrives until the timeout or until a socket we owe
        bytes to can take more. Polls rather than sleeps (see busy_poll)."""
        writers = [s for s, out in ((self.small_tx, self.small_out), (self.image_tx, self.image_out)) if out]
        for sock in writers:
            self.selector.register(sock, selectors.EVENT_WRITE)
        deadline = time.perf_counter() + timeout
        try:
            while True:
                ready = self.selector.select(0)
                for key, _ in ready:
                    if key.data is None:
                        continue
                    data = key.fileobj.recv(256 * 1024)
                    if not data:
                        raise ConnectionResetError("relay closed a topic connection")
                    key.data.feed(memoryview(data), time.perf_counter_ns())
                if ready or time.perf_counter() >= deadline:
                    return
        finally:
            for sock in writers:
                self.selector.unregister(sock)

    def _fixed_rate(self):
        t0 = self.start_at
        end = t0 + self.fixed_s
        small_period, image_period = 1.0 / SMALL_RATE, 1.0 / IMAGE_RATE
        small_bodies, small_crcs = self.small_pool
        while True:
            now = time.perf_counter()
            due_small = t0 + self.sent_small * small_period
            due_image = t0 + self.sent_image * image_period
            if due_small <= now and due_small < end:
                seq = self.sent_small
                due_ns = int(due_small * 1e9)
                self.small_out += frame(seq, KIND_SMALL, due_ns, small_bodies[seq % len(small_bodies)],
                                        small_crcs[seq % len(small_crcs)])
                self.late_ns.append(time.perf_counter_ns() - due_ns)
                self.sent_small += 1
            if not self.image_out and due_image <= now and due_image < end:
                due_ns = int(due_image * 1e9)
                self.image_out = self._image(self.sent_image, KIND_IMAGE, due_ns)
                self.late_ns.append(time.perf_counter_ns() - due_ns)
                self.sent_image += 1
            self._push(FIXED_RATE_CHUNK)
            if due_small >= end and due_image >= end and not self.small_out and not self.image_out:
                return
            upcoming = [due for due in (due_small, None if self.image_out else due_image)
                        if due is not None and due < end]
            # with nothing left to schedule, wait for the sockets to take the rest
            self._wait(min(upcoming) - time.perf_counter() if upcoming else 0.05)

    def _bulk(self):
        self.bulk_start_ns = time.perf_counter_ns()
        end = time.perf_counter() + self.bulk_s
        seq = self.sent_image
        while time.perf_counter() < end or self.image_out:
            if not self.image_out and time.perf_counter() < end:
                self.image_out = self._image(seq + self.sent_bulk, KIND_BULK, 0)
                self.sent_bulk += 1
            self._push(IMAGE_BYTES)
            self._wait(0.05 if self.image_out else 0.0)

    def _drain(self):
        """Keep reading until every frame sent has arrived, or time is up."""
        expected = (self.sent_small, self.sent_image + self.sent_bulk)
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        while (any(p.received < n for p, n in zip(self.parsers, expected))
               and time.perf_counter() < deadline):
            self._wait(0.05)


def _send(sock, data) -> int:
    try:
        return sock.send(data)
    except BlockingIOError:
        return 0


async def _read_header(loop, sock) -> Dict[str, str]:
    """Read exactly one TCPROS header block (nothing after it is sent yet)."""

    async def exactly(count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = await loop.sock_recv(sock, count - len(data))
            if not chunk:
                raise ConnectionResetError("peer closed during the TCPROS header")
            data += chunk
        return data

    size = int.from_bytes(await exactly(4), "little")
    return decode_header(await exactly(size))


async def run_stream(env: Env, duration: float, proxy_pid: int) -> PhaseResult:
    loop = asyncio.get_event_loop()
    tally, result = env.tally, PhaseResult()
    rng = env.rng("topic-stream")
    name = word(rng)
    talker_id = INTERNAL_PREFIX + "talker_" + name
    viewer_id = "/ext/viewer_" + name
    topics = ["/%s/imu" % name, "/%s/camera/image_raw" % name]
    small_pool = _pool(rng, SMALL_POOL, SMALL_BYTES - 20)
    image_pool = _pool(rng, IMAGE_POOL, IMAGE_BYTES - 20)

    listener = socket.socket()
    listener.bind((INTERNAL_HOST, 0))
    listener.listen(4)
    listener.setblocking(False)
    tcp_port = listener.getsockname()[1]
    talker = await _slave_server(
        {"requestTopic": [1, "ready", ["TCPROS", INTERNAL_HOST, tcp_port]]}, INTERNAL_HOST)
    viewer = await _slave_server({}, EXTERNAL_HOST)
    socks = [listener]
    tx, rx = [], []
    header_bytes = [0, 0]  # talker -> subscriber, subscriber -> talker
    main = await env.proxy_connection()
    try:
        tally.attempted += 2 * len(topics)
        for topic in topics:
            ros_value(await main.post(encode_call(
                "registerPublisher", [talker_id, topic, TOPIC_TYPE, talker.uri(INTERNAL_HOST)])))
        await main.close()  # the two topic connections are the only ones open while streaming
        host, port = split_uri(env.master_uri)
        env.guard.check(host, port)
        for topic in topics:
            publishers = ros_value(await post_once(host, port, encode_call(
                "registerSubscriber", [viewer_id, topic, TOPIC_TYPE, viewer.uri(EXTERNAL_HOST)])))
            gateway = split_uri(publishers[0])
            env.check_advertised(*gateway)
            proto = ros_value(await post_once(*gateway, encode_call(
                "requestTopic", [viewer_id, topic, [["TCPROS"]]])))
            env.check_advertised(proto[1], proto[2])
            sub = socket.socket()
            socks.append(sub)
            sub.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, STREAM_SOCKET_BUFFER)
            sub.setblocking(False)
            await asyncio.wait_for(loop.sock_connect(sub, (proto[1], proto[2])), CALL_TIMEOUT)
            header = subscriber_header(viewer_id, topic)
            await asyncio.wait_for(loop.sock_sendall(sub, header), CALL_TIMEOUT)
            header_bytes[1] += len(header)
            pub, _ = await asyncio.wait_for(loop.sock_accept(listener), CALL_TIMEOUT)
            socks.append(pub)
            pub.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as tcp_nodelay asks
            pub.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, STREAM_SOCKET_BUFFER)
            fields = await asyncio.wait_for(_read_header(loop, pub), CALL_TIMEOUT)
            if fields.get("topic") != topic:
                raise PeerError("talker got a connection for %r" % fields.get("topic"))
            header = publisher_header(talker_id, topic)
            await asyncio.wait_for(loop.sock_sendall(pub, header), CALL_TIMEOUT)
            header_bytes[0] += len(header)
            await asyncio.wait_for(_read_header(loop, sub), CALL_TIMEOUT)
            tx.append(pub)
            rx.append(sub)
    except NETWORK_ERRORS as exc:
        tally.fail("topic-stream setup: %r" % exc)
        await _close_stream(socks, [talker, viewer], main)
        return result

    start = time.perf_counter() + 0.05
    warm_ns = int((start + STREAM_WARMUP_S) * 1e9)
    parsers = [FrameParser(pool[1], result, warm_ns) for pool in (small_pool, image_pool)]
    stream = StreamThread(tx, rx, parsers, small_pool, image_pool, start,
                          duration * (1 - BULK_SHARE), duration * BULK_SHARE,
                          lambda: proxy_cpu_seconds(proxy_pid))
    stream.start()
    deadline = start + duration + 2 * DRAIN_TIMEOUT
    while stream.is_alive() and time.perf_counter() < deadline:
        await asyncio.sleep(0.05)

    sent = (stream.sent_small, stream.sent_image + stream.sent_bulk)
    tally.attempted += sum(sent)
    if stream.is_alive():
        tally.fail("topic-stream: stream thread still running %.0fs after its end" % DRAIN_TIMEOUT)
    if stream.error is not None:
        tally.fail("topic-stream: %r" % stream.error)
    for topic, parser, count in zip(topics, parsers, sent):
        for error in parser.errors:
            tally.fail(error)
        missing = count - parser.received
        if missing > 0:
            tally.fail("topic-stream: %d frames of %s lost" % (missing, topic), missing)
    fixed_frames = stream.sent_small + stream.sent_image
    for late in stream.late_ns:
        result.add("gen.late", late / 1e6)
    arrivals = parsers[1].bulk_arrivals
    for at, rate in bulk_rates(arrivals, stream.bulk_start_ns):
        result.add("bulk", rate, at, at + int(BULK_WINDOW_S * 1e9))
    if len(stream.cpu) == 3 and arrivals:
        cpu0, cpu1, cpu2 = stream.cpu
        result.values["relay.cpu_us_per_frame"] = (cpu1 - cpu0) * 1e6 / max(1, fixed_frames)
        result.values["relay.cpu_ms_per_mib"] = (cpu2 - cpu1) * 1e3 / (sum(n for _, n in arrivals) / (1 << 20))
    result.values["stream.talker_bytes"] = header_bytes[0] + stream.bytes_sent
    result.values["stream.viewer_bytes"] = header_bytes[1]
    await _close_stream(socks, [talker, viewer], main)
    return result


def bulk_rates(arrivals, start_ns: int):
    """(window start ns, MiB/s) for each whole BULK_WINDOW_S window of the transfer."""
    if not arrivals:
        return []
    width = int(BULK_WINDOW_S * 1e9)
    count = max(1, (arrivals[-1][0] - start_ns) // width)
    per_window = [0] * count
    for at, size in arrivals:
        index = (at - start_ns) // width
        if index < count:
            per_window[index] += size
    return [(start_ns + k * width, n / (1 << 20) / BULK_WINDOW_S) for k, n in enumerate(per_window)]


async def _close_stream(socks, servers, main: HttpConnection) -> None:
    for sock in socks:
        sock.close()
    await main.close()
    for server in servers:
        await server.close()


# -- graph-query ------------------------------------------------------------

class ResponseChecker:
    """Pass-through answers must decode to what the stub master sent. Each
    distinct response is decoded once; repeats are compared byte for byte."""

    def __init__(self, master: StubMaster):
        self.master = master
        self.verified: Dict[tuple, bytes] = {}

    def check(self, key: tuple, raw: bytes) -> None:
        if self.verified.get(key) == raw:
            return
        value = decode_response(raw)
        if value != self.master.expected(*key):
            raise PeerError("%s %s: answer differs from what the master sent" % key)
        self.verified[key] = raw


def query_plan(master: StubMaster, rng: random.Random):
    """An endless seeded sequence of (class, method, key) calls."""
    classes = [c for c, _ in QUERY_MIX]
    weights = [w for _, w in QUERY_MIX]
    small = ([("lookupNode", n) for n in master.node_names]
             + [("lookupService", s) for s in master.service_names]
             + [("getParam", p) for p in master.small_params])
    while True:
        kind = rng.choices(classes, weights)[0]
        if kind == "gss400":
            yield kind, "getSystemState", ""
        elif kind == "param_blob":
            yield kind, "getParam", ROBOT_DESCRIPTION
        else:
            yield (kind,) + rng.choice(small)


async def _query_loop(env: Env, opener, caller_id: str, plan, until: float,
                      result: PhaseResult, prefix: str, checker: ResponseChecker) -> None:
    tally = env.tally
    think = env.rng("think-" + prefix + caller_id)
    conn = None
    done = 0
    while time.perf_counter() < until:
        await asyncio.sleep(think.expovariate(1 / QUERY_THINK_S))
        kind, method, key = next(plan)
        params = [caller_id] if method == "getSystemState" else [caller_id, key]
        body = encode_call(method, params)
        tally.attempted += 1
        try:
            if conn is None:
                conn = await opener()
            t0 = time.perf_counter_ns()
            raw = await conn.post(body)
            elapsed = (time.perf_counter_ns() - t0) / 1e6
            checker.check((method, key), raw)
        except NETWORK_ERRORS as exc:
            tally.fail("graph-query %s %s: %r" % (method, key, exc))
            if conn is not None:
                await conn.close()
                conn = None
            continue
        done += 1
        if done > QUERY_WARMUP_CALLS:
            result.add(prefix + kind, elapsed, t0)
    if conn is not None:
        await conn.close()


async def run_query(env: Env, duration: float, callers: int = 2) -> PhaseResult:
    poller = asyncio.ensure_future(busy_poll())
    try:
        return await _run_query(env, duration, callers)
    finally:
        poller.cancel()


async def _run_query(env: Env, duration: float, callers: int) -> PhaseResult:
    result = PhaseResult()
    checker = ResponseChecker(env.master)
    direct_until = time.perf_counter() + duration * DIRECT_SHARE
    await asyncio.gather(*(
        _query_loop(env, env.master_connection, "%squery_%d" % (INTERNAL_PREFIX, k),
                    query_plan(env.master, env.rng("direct-%d" % k)), direct_until,
                    result, "direct.", checker)
        for k in range(callers)))
    until = time.perf_counter() + duration * (1 - DIRECT_SHARE)
    await asyncio.gather(*(
        _query_loop(env, env.proxy_connection, "%squery_%d" % (INTERNAL_PREFIX, k),
                    query_plan(env.master, env.rng("query-%d" % k)), until,
                    result, "", checker)
        for k in range(callers)))
    return result


# -- graph-churn ------------------------------------------------------------

class Robot:
    """An internal node that respawns every cycle under one caller_id."""

    def __init__(self, env: Env, index: int, small_pool):
        rng = env.rng("robot-%d" % index)
        self.env = env
        self.caller_id = "%srobot_%s_%d" % (INTERNAL_PREFIX, word(rng), index)
        self.topic = "/%s/%s/odom" % (word(rng), word(rng))
        self.sub_topic = "/%s/cmd_vel" % word(rng)
        self.bodies, self.crcs = small_pool
        self.cycle = 0
        self.slave: Optional[XmlRpcServer] = None
        self.tcpros: Optional[asyncio.AbstractServer] = None
        self.tcp_port = 0
        self.first_frame: Optional[asyncio.Future] = None

    async def respawn(self) -> None:
        await self.shutdown()
        self.tcpros = await asyncio.start_server(self._serve_topic, INTERNAL_HOST, 0)
        self.tcp_port = self.tcpros.sockets[0].getsockname()[1]
        self.slave = await _slave_server(
            {"requestTopic": [1, "ready", ["TCPROS", INTERNAL_HOST, self.tcp_port]]}, INTERNAL_HOST)

    async def shutdown(self) -> None:
        if self.slave is not None:
            await self.slave.close()
            self.slave = None
        if self.tcpros is not None:
            self.tcpros.close()
            await asyncio.wait_for(self.tcpros.wait_closed(), CALL_TIMEOUT)
            self.tcpros = None

    async def _serve_topic(self, reader, writer) -> None:
        try:
            await asyncio.wait_for(read_block(reader), CALL_TIMEOUT)
            seq = self.cycle
            writer.write(publisher_header(self.caller_id, self.topic))
            writer.write(frame(seq, KIND_FIRST, 0, self.bodies[seq % len(self.bodies)],
                               self.crcs[seq % len(self.crcs)]))
            await writer.drain()
            await asyncio.wait_for(reader.read(), CALL_TIMEOUT)
        except NETWORK_ERRORS:
            pass
        finally:
            writer.close()


class ChurnSubscriber:
    """External node subscribed to every robot topic at the stub master."""

    def __init__(self, env: Env, result: PhaseResult, robots: List[Robot]):
        self.env = env
        self.result = result
        self.robots = {r.topic: r for r in robots}
        self.caller_id = "/ext/monitor_%s" % word(env.rng("monitor"))
        self.server: Optional[XmlRpcServer] = None
        self.tasks = set()
        self.timing = True

    async def start(self) -> None:
        self.server = await XmlRpcServer(self._handle).start(EXTERNAL_HOST)
        host, port = split_uri(self.env.master_uri)
        self.env.guard.check(host, port)
        for topic in self.robots:
            ros_value(await post_once(host, port, encode_call(
                "registerSubscriber", [self.caller_id, topic, TOPIC_TYPE, self.server.uri(EXTERNAL_HOST)])))

    async def _handle(self, method, params):
        if method == "publisherUpdate":
            robot = self.robots.get(params[1])
            if robot is not None and params[2] and robot.first_frame is not None:
                task = asyncio.ensure_future(self._first_message(robot, params[2][0], robot.first_frame))
                self.tasks.add(task)
                task.add_done_callback(self.tasks.discard)
        return encode_response([1, "", 0])

    async def _first_message(self, robot: Robot, uri: str, done: asyncio.Future) -> None:
        try:
            t0 = time.perf_counter_ns()
            host, port = split_uri(uri)
            self.env.check_advertised(host, port)
            proto = ros_value(await post_once(host, port, encode_call(
                "requestTopic", [self.caller_id, robot.topic, [["TCPROS"]]])))
            self.env.check_advertised(proto[1], proto[2])
            reader, writer = await asyncio.wait_for(asyncio.open_connection(proto[1], proto[2]), CALL_TIMEOUT)
            try:
                writer.write(subscriber_header(self.caller_id, robot.topic))
                await asyncio.wait_for(read_block(reader), CALL_TIMEOUT)
                payload = await asyncio.wait_for(read_block(reader), CALL_TIMEOUT)
                elapsed = (time.perf_counter_ns() - t0) / 1e6
                seq = robot.cycle
                check_payload(payload, seq, robot.crcs[seq % len(robot.crcs)])
            finally:
                writer.close()
            if self.timing:
                self.result.add("first_msg", elapsed, t0)
            if not done.done():
                done.set_result(True)
        except NETWORK_ERRORS as exc:
            if not done.done():
                done.set_exception(exc)

    async def close(self) -> None:
        if self.tasks:
            await asyncio.wait(set(self.tasks), timeout=DRAIN_TIMEOUT)
        if self.server is not None:
            await self.server.close()


async def _robot_loop(env: Env, robot: Robot, opener, until: float, result: PhaseResult,
                      direct: bool) -> None:
    tally = env.tally
    conn = None
    uri_host = EXTERNAL_HOST if direct else INTERNAL_HOST
    caller_id = robot.caller_id.replace(INTERNAL_PREFIX, "/direct/") if direct else robot.caller_id
    think = env.rng("think-%s-%s" % (direct, robot.caller_id))
    cycles = 0
    while time.perf_counter() < until:
        await asyncio.sleep(think.expovariate(1 / CHURN_THINK_S))
        robot.cycle += 1
        cycles += 1
        timed = cycles > CHURN_WARMUP_CYCLES
        tally.attempted += 1 if direct else 4
        step = "respawn"
        try:
            if conn is None:
                conn = await opener()
            if direct:
                # a fresh URI each cycle, on an address the master may hold
                uri = "http://%s:%d/" % (uri_host, 20000 + robot.cycle % 2)
            else:
                await robot.respawn()
                uri = robot.slave.uri(uri_host)
                robot.first_frame = asyncio.get_event_loop().create_future()
            step = "registerPublisher"
            t0 = time.perf_counter_ns()
            ros_value(await conn.post(encode_call(
                "registerPublisher", [caller_id, robot.topic, TOPIC_TYPE, uri])))
            elapsed = (time.perf_counter_ns() - t0) / 1e6
            if timed:
                result.add("direct.register" if direct else "register", elapsed, t0)
            if direct:
                continue
            step = "first message"
            await asyncio.wait_for(robot.first_frame, CALL_TIMEOUT)
            step = "registerSubscriber"
            ros_value(await conn.post(encode_call(
                "registerSubscriber", [caller_id, robot.sub_topic, "geometry_msgs/Twist", uri])))
            step = "unregisterSubscriber"
            ros_value(await conn.post(encode_call(
                "unregisterSubscriber", [caller_id, robot.sub_topic, uri])))
        except NETWORK_ERRORS as exc:
            tally.fail("graph-churn %s %s: %r" % (robot.caller_id, step, exc))
            if conn is not None:
                await conn.close()
                conn = None
    if conn is not None:
        await conn.close()


async def run_churn(env: Env, duration: float, robots_count: int = 2) -> PhaseResult:
    poller = asyncio.ensure_future(busy_poll())
    try:
        return await _run_churn(env, duration, robots_count)
    finally:
        poller.cancel()


async def _run_churn(env: Env, duration: float, robots_count: int) -> PhaseResult:
    result = PhaseResult()
    small_pool = _pool(env.rng("churn-frames"), SMALL_POOL, SMALL_BYTES - 20)
    robots = [Robot(env, k, small_pool) for k in range(robots_count)]
    subscriber = ChurnSubscriber(env, result, robots)
    direct_until = time.perf_counter() + duration * DIRECT_SHARE
    await asyncio.gather(*(
        _robot_loop(env, r, env.master_connection, direct_until, result, True) for r in robots))
    env.master.reset()
    try:
        await subscriber.start()
    except NETWORK_ERRORS as exc:
        env.tally.fail("graph-churn setup: %r" % exc)
        await subscriber.close()
        return result
    until = time.perf_counter() + duration * (1 - DIRECT_SHARE)
    await asyncio.gather(*(
        _robot_loop(env, r, env.proxy_connection, until, result, False) for r in robots))
    await subscriber.close()
    for robot in robots:
        await robot.shutdown()
    return result


def percentile(values: List[float], q: float) -> float:
    """Percentile (q in 0..1), interpolated between the nearest ranks."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def quiet_samples(spans, values: List[float], steal_marks) -> List[float]:
    """The samples during which the hypervisor took no CPU from the machine.

    On a shared host the hypervisor takes CPU from this machine in slices
    of milliseconds, at times for minutes on end, and a stolen slice lands
    in whatever call or frame was in flight. steal_marks holds the
    machine's (perf_counter_ns, steal ticks, all ticks), read every
    STEAL_PERIOD_S. A sample is quiet when no steal tick fell between the
    mark before the one preceding its start and the mark after the one
    following its end: the margin covers the counter's 10 ms grain. On a
    quiet host every sample is kept, and a slower proxy shows in all of
    them. If fewer than MIN_KEPT of the samples are quiet, the MIN_KEPT
    with the least steal around them are used. Steal grows with how busy
    the vCPUs are, so on a noisy host the samples left out lean toward the
    busier moments."""
    if not values:
        return []
    marks = sorted(steal_marks)
    at = [m[0] for m in marks]
    shares = []
    for start, end in spans:
        first = max(0, bisect.bisect_right(at, start) - 2)
        last = min(len(marks) - 1, bisect.bisect_left(at, end) + 1)
        if last <= first:
            shares.append(1.0)  # no marks around it: assume the worst
            continue
        (_, s0, t0), (_, s1, t1) = marks[first], marks[last]
        shares.append((s1 - s0) / max(1, t1 - t0))
    quiet = [v for v, share in zip(values, shares) if share == 0]
    if len(quiet) >= MIN_KEPT * len(values):
        return quiet
    least = sorted(range(len(values)), key=lambda k: shares[k])[:math.ceil(MIN_KEPT * len(values))]
    return [values[k] for k in sorted(least)]
