"""Stub ROS master holding a seeded 400-topic graph.

Large answers (``getSystemState``, ``getParam /robot_description``) are
encoded once at construction, so per-call peer cost stays small and the
latency a caller sees through the proxy is mostly the proxy's own.
Registrations are kept per topic; a publisher registration pushes
``publisherUpdate`` to the topic's subscribers, as the real master does.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Tuple

from peers import (
    ADVERTISED_HOST,
    DialGuard,
    PeerError,
    decode_response,
    encode_call,
    encode_response,
    post_once,
    split_uri,
)

GRAPH_TOPICS = 400
GRAPH_NODES = 120
GRAPH_SERVICES = 120
BLOB_BYTES = 200 * 1024
SMALL_PARAMS = 40
ROBOT_DESCRIPTION = "/robot_description"

# caller_ids of nodes inside the proxied segment start with this; the
# master must only ever hold advertised URIs for them.
INTERNAL_PREFIX = "/int/"


def word(rng: random.Random, low: int = 4, high: int = 9) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(low, high)))


def _urdf(rng: random.Random, size: int) -> str:
    """URDF-shaped text: many links and joints, markup that needs escaping."""
    parts = ['<?xml version="1.0"?>\n<robot name="%s">\n' % word(rng)]
    total = len(parts[0])
    index = 0
    while total < size:
        index += 1
        name = "%s_%d" % (word(rng), index)
        xyz = " ".join("%.4f" % rng.uniform(-1, 1) for _ in range(3))
        piece = (
            '  <link name="%s_link">\n    <visual><origin xyz="%s" rpy="0 0 %.3f"/>'
            '<geometry><mesh filename="package://%s/meshes/%s.dae" scale="1 1 1"/></geometry></visual>\n'
            '    <inertial><mass value="%.3f"/></inertial>\n  </link>\n'
            '  <joint name="%s_joint" type="revolute"><parent link="%s_link"/><child link="%s_link"/>'
            '<limit effort="%.1f" velocity="%.2f" lower="-3.14" upper="3.14"/></joint>\n'
            % (name, xyz, rng.uniform(-3, 3), word(rng), name, rng.uniform(0.1, 9),
               name, name, name, rng.uniform(1, 100), rng.uniform(0.1, 5))
        )
        parts.append(piece)
        total += len(piece)
    parts.append("</robot>\n")
    return "".join(parts)


def _small_value(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-100000, 100000)
    if kind == 1:
        return round(rng.uniform(-1000, 1000), 6)
    if kind == 2:
        return "%s %s" % (word(rng), word(rng))
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return [round(rng.uniform(-5, 5), 4) for _ in range(rng.randint(2, 9))]
    return {word(rng): rng.randint(0, 999) for _ in range(rng.randint(2, 6))}


class StubMaster:
    def __init__(self, seed: int, guard: DialGuard, lease_window: Tuple[int, int]):
        rng = random.Random(seed)
        self.guard = guard
        self.lease_window = lease_window
        nodes = ["/%s/%s" % (word(rng), word(rng)) for _ in range(GRAPH_NODES)]
        topics = ["/%s/%s/%s" % (word(rng), word(rng), word(rng)) for _ in range(GRAPH_TOPICS)]
        services = ["/%s/%s" % (word(rng), word(rng)) for _ in range(GRAPH_SERVICES)]
        state = [
            [[t, rng.sample(nodes, rng.randint(1, 2))] for t in topics],
            [[t, rng.sample(nodes, rng.randint(1, 3))] for t in topics],
            [[s, [rng.choice(nodes)]] for s in services],
        ]
        params = {"/%s/%s" % (word(rng), word(rng)): _small_value(rng) for _ in range(SMALL_PARAMS)}
        params[ROBOT_DESCRIPTION] = _urdf(rng, BLOB_BYTES)

        # (method, key) -> (decoded value, encoded response)
        self.answers: Dict[Tuple[str, str], Tuple[object, bytes]] = {}
        self._answer("getSystemState", "", [1, "current system state", state])
        for name, value in params.items():
            self._answer("getParam", name, [1, "Parameter [%s]" % name, value])
        for index, name in enumerate(nodes):
            uri = "http://10.0.%d.%d:%d/" % (index // 200, index % 200 + 10, 40000 + index)
            self._answer("lookupNode", name, [1, "node api", uri])
        for index, name in enumerate(services):
            uri = "rosrpc://10.0.9.%d:%d" % (index % 200 + 10, 41000 + index)
            self._answer("lookupService", name, [1, "rosrpc URI: [%s]" % uri, uri])
        self.small_params = sorted(n for n in params if n != ROBOT_DESCRIPTION)
        self.node_names = nodes
        self.service_names = services

        self.publishers: Dict[str, Dict[str, str]] = {}
        self.subscribers: Dict[str, Dict[str, str]] = {}
        self.violations: List[str] = []
        self.errors: List[str] = []
        self._tasks = set()

    def _answer(self, method: str, key: str, value) -> None:
        self.answers[(method, key)] = (value, encode_response(value))

    def reset(self) -> None:
        """Forget registrations (each phase starts a fresh proxy)."""
        self.publishers.clear()
        self.subscribers.clear()

    # -- dispatch ----------------------------------------------------------

    async def handle(self, method: str, params: tuple) -> bytes:
        if method in ("getSystemState", "getParam", "lookupNode", "lookupService"):
            key = params[1] if len(params) > 1 else ""
            answer = self.answers.get((method, key))
            if answer is None:
                return encode_response([-1, "unknown %s %r" % (method, key), 0])
            return answer[1]
        if method in ("registerPublisher", "registerSubscriber"):
            caller_id, topic, _type, caller_api = params
            self._check_uri(caller_id, caller_api)
            if method == "registerSubscriber":
                self.subscribers.setdefault(topic, {})[caller_id] = caller_api
                return encode_response([1, "Subscribed to [%s]" % topic,
                                        list(self.publishers.get(topic, {}).values())])
            self.publishers.setdefault(topic, {})[caller_id] = caller_api
            self._notify(topic)
            return encode_response([1, "Registered [%s] as publisher of [%s]" % (caller_id, topic),
                                    list(self.subscribers.get(topic, {}).values())])
        if method in ("unregisterPublisher", "unregisterSubscriber"):
            caller_id, topic, caller_api = params
            self._check_uri(caller_id, caller_api)
            table = self.publishers if method == "unregisterPublisher" else self.subscribers
            removed = table.get(topic, {}).pop(caller_id, None) is not None
            return encode_response([1, "Unregistered", int(removed)])
        return encode_response([-1, "stub master does not implement %s" % method, 0])

    def _check_uri(self, caller_id: str, caller_api: str) -> None:
        if not caller_id.startswith(INTERNAL_PREFIX):
            return
        try:
            host, port = split_uri(caller_api)
        except PeerError:
            host, port = "", 0
        low, high = self.lease_window
        if host != ADVERTISED_HOST or not low <= port <= high:
            self.violations.append("%s registered %s outside %s:%d-%d"
                                   % (caller_id, caller_api, ADVERTISED_HOST, low, high))

    def _notify(self, topic: str) -> None:
        publishers = list(self.publishers[topic].values())
        for uri in self.subscribers.get(topic, {}).values():
            task = asyncio.ensure_future(self._publisher_update(uri, topic, publishers))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _publisher_update(self, uri: str, topic: str, publishers: list) -> None:
        try:
            host, port = split_uri(uri)
            self.guard.check(host, port)
            decode_response(await post_once(
                host, port, encode_call("publisherUpdate", ["/master", topic, publishers])))
        except (PeerError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
            self.errors.append("publisherUpdate %s to %s: %r" % (topic, uri, exc))

    async def drain(self, timeout: float) -> None:
        """Wait for pushed publisherUpdates; a hung one is recorded."""
        if self._tasks:
            _, pending = await asyncio.wait(set(self._tasks), timeout=timeout)
            for task in pending:
                task.cancel()
                self.errors.append("publisherUpdate still pending after %.0fs" % timeout)

    def expected(self, method: str, key: str) -> Optional[object]:
        answer = self.answers.get((method, key))
        return None if answer is None else answer[0]
