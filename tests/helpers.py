"""Shared test utilities: strict value comparison, random value generation,
free-port discovery, proxy configs, connect polling, registry lock
waiters, counting executor jobs and finding the Pythons that start."""

import asyncio
import concurrent.futures
import glob
import os
import random
import shutil
import socket
import string
import subprocess
import time

from rosproxy.config import ProxyConfig
from rosproxy.ports import PortRange
from rosproxy.xmlrpc_codec import RpcDateTime


def same_value(a, b):
    """Structural equality that keeps bool/int and str subtypes apart."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return set(a) == set(b) and all(same_value(a[k], b[k]) for k in a)
    return a == b


_TEXT_ALPHABET = (
    string.ascii_letters + string.digits + " _-./<>&'\"\t\n\r" + "äöüß€λ\U0001f600"
)


def random_text(rng, max_len=12):
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randrange(max_len)))


def random_rpc_value(rng, depth=0, max_depth=8):
    """Seeded generator over every value variant, nesting bounded."""
    choices = ["int", "bool", "str", "float", "bytes", "datetime"]
    if depth < max_depth:
        choices += ["list", "dict", "list", "dict"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.randint(-(2**31), 2**31 - 1)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "str":
        return random_text(rng)
    if kind == "float":
        return rng.choice(
            [0.0, -0.0, 1.5, -2.25, 1e-9, 3.141592653589793, rng.uniform(-1e12, 1e12)]
        )
    if kind == "bytes":
        return rng.randbytes(rng.randrange(16))
    if kind == "datetime":
        return RpcDateTime("2024-01-0%dT12:0%d:00" % (rng.randrange(1, 9), rng.randrange(9)))
    if kind == "list":
        return [random_rpc_value(rng, depth + 1, max_depth) for _ in range(rng.randrange(4))]
    return {
        random_text(rng, 6): random_rpc_value(rng, depth + 1, max_depth)
        for _ in range(rng.randrange(4))
    }


def free_port(host="127.0.0.1"):
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


_range_picker = random.Random()


def free_range(size, host="127.0.0.1"):
    """Find a contiguous block of `size` currently-bindable ports.

    Probing beats a fixed constant: it can't collide with ephemeral
    ports the kernel handed to other fixtures in the same run.
    """
    for _ in range(200):
        base = _range_picker.randrange(20000, 60000 - size)
        socks = []
        try:
            for p in range(base, base + size):
                socks.append(socket.socket())
                socks[-1].bind((host, p))
            return base, base + size - 1
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise RuntimeError("could not find a free port range of %d" % size)


def make_config(upstream_master_uri="", *, range_size=8, bind_host="127.0.0.1", **settings):
    """A ProxyConfig bound to and advertising 127.0.0.1 on a free block of
    ports: the main port, then a lease range of range_size ports. Any
    setting can be overridden. It is not validated, so a 1-port range
    and an empty upstream URI stay possible."""
    main_port, high = free_range(range_size + 1, host=bind_host)
    values = dict(
        upstream_master_uri=upstream_master_uri,
        advertised_host="127.0.0.1",
        main_port=main_port,
        port_range=PortRange(main_port + 1, high),
        request_timeout=2.0,
        bind_host=bind_host,
    )
    values.update(settings)
    return ProxyConfig(**values)


async def poll_refused(host, port, timeout=5.0, interval=0.025):
    """Wait until connecting to host:port is refused; return seconds waited."""
    start = time.monotonic()
    while True:
        try:
            _, writer = await asyncio.open_connection(host, port)
        except OSError:
            return time.monotonic() - start
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
        if time.monotonic() - start > timeout:
            raise TimeoutError(f"{host}:{port} still accepting after {timeout}s")
        await asyncio.sleep(interval)


class KeepAlivePeer:
    """An HTTP/1.1 peer on 127.0.0.1 that keeps its connections alive and
    answers each POST with answer(body), by default the body itself,
    followed by trailer. A body of b"stall" gets all but the last bytes
    of its answer, then silence until the client hangs up.

    It keeps every request head and the server side of every connection.
    It counts the connections that have ended (closed) and those the
    client ended with a clean EOF (eofs)."""

    def __init__(self, answer=lambda body: body, trailer=b""):
        self.answer = answer
        self.trailer = trailer
        self.heads = []
        self.connections = []
        self.eofs = 0
        self.closed = 0
        self.stalled = asyncio.Event()

    async def start(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def _serve(self, reader, writer):
        self.connections.append(writer)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                self.heads.append(head)
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                body = await reader.readexactly(length)
                answer = self.answer(body)
                response = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(answer), answer)
                if body == b"stall":
                    writer.write(response[:-2])
                    self.stalled.set()
                    await reader.read()
                    self.eofs += 1
                    return
                writer.write(response + self.trailer)
        except asyncio.IncompleteReadError as exc:
            self.eofs += not exc.partial
        except ConnectionError:
            pass
        finally:
            self.closed += 1
            writer.close()

    def hang_up_all(self):
        for writer in self.connections:
            writer.close()

    async def stop(self):
        self.server.close()
        for writer in self.connections:
            writer.transport.abort()
        await poll_until(lambda: self.closed == len(self.connections), timeout=2.0)
        await self.server.wait_closed()


async def poll_until(predicate, timeout=5.0, interval=0.025):
    start = time.monotonic()
    while not predicate():
        if time.monotonic() - start > timeout:
            raise TimeoutError("condition not met after %.1fs" % timeout)
        await asyncio.sleep(interval)
    return time.monotonic() - start


def make_rng(seed):
    return random.Random(seed)


def interpreter(name):
    """The first of the python3.X on PATH and pyenv's python3.X builds that
    starts. A pyenv shim for a version that is installed but not selected
    exits 127, so the builds are tried by full path too."""
    pyenv = os.path.expanduser("~/.pyenv/versions/%s.*/bin/%s" % (name[len("python"):], name))
    for exe in [shutil.which(name)] + sorted(glob.glob(pyenv)):
        if exe and subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=30).returncode == 0:
            return exe
    return None


def lock_waiters(registry):
    """How many tasks wait for the registry lock."""
    return len(registry._lock._waiters or ())


class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
    """A default executor that counts the jobs submitted to it, such as
    the getaddrinfo asyncio runs for a host it cannot read as an address."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.jobs = 0

    def submit(self, *args, **kwargs):
        self.jobs += 1
        return super().submit(*args, **kwargs)
