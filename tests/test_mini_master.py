"""Behaviour of the harness's in-process master."""

import asyncio

import pytest

from rosproxy.harness.master import MiniMaster
from rosproxy.harness.rpc import RosClient, XmlRpcFaultError
from rosproxy.http11 import serve_xmlrpc
from rosproxy.xmlrpc_codec import MethodSuccess

from helpers import free_port, make_rng, poll_until


class MasterBox:
    def __init__(self):
        self.master = None

    async def __aenter__(self):
        self.master = MiniMaster("127.0.0.1", free_port())
        await self.master.start()
        return self.master

    async def __aexit__(self, *exc):
        await self.master.stop()


def client(master, name="/tester"):
    return RosClient(master.uri)


async def test_register_publisher_lists_existing_subscribers():
    async with MasterBox() as master:
        c = client(master)
        r = await c.call_ros(
            "registerSubscriber", ["/sub", "/chat", "std_msgs/String", "http://h:1/"]
        )
        assert r.code == 1
        assert r.value == []

        r = await c.call_ros(
            "registerPublisher", ["/pub", "/chat", "std_msgs/String", "http://h:2/"]
        )
        assert r.code == 1
        assert r.value == ["http://h:1/"]

        r = await c.call_ros(
            "registerSubscriber", ["/sub2", "/chat", "std_msgs/String", "http://h:3/"]
        )
        assert r.value == ["http://h:2/"]


async def test_unregister_unknown_returns_code_zero():
    async with MasterBox() as master:
        c = client(master)
        r = await c.call_ros("unregisterPublisher", ["/ghost", "/t", "http://h:1/"])
        assert (r.code, r.value) == (0, 0)
        r = await c.call_ros("unregisterSubscriber", ["/ghost", "/t", "http://h:1/"])
        assert (r.code, r.value) == (0, 0)


async def test_register_unregister_restores_state():
    async with MasterBox() as master:
        c = client(master)
        baseline = master.state.snapshot()
        ops = [
            ("registerPublisher", ["/a", "/t1", "std_msgs/String", "http://h:1/"]),
            ("registerSubscriber", ["/b", "/t1", "std_msgs/String", "http://h:2/"]),
            ("registerService", ["/c", "/srv", "rosrpc://h:9", "http://h:3/"]),
        ]
        undo = [
            ("unregisterPublisher", ["/a", "/t1", "http://h:1/"]),
            ("unregisterSubscriber", ["/b", "/t1", "http://h:2/"]),
            ("unregisterService", ["/c", "/srv", "rosrpc://h:9"]),
        ]
        for method, params in ops:
            assert (await c.call_ros(method, params)).code == 1
        assert master.state.node_names() == {"/a", "/b", "/c"}
        for method, params in undo:
            assert (await c.call_ros(method, params)).code == 1
        assert master.state.snapshot() == baseline


async def test_random_walk_register_unregister_balances():
    rng = make_rng(42)
    async with MasterBox() as master:
        c = client(master)
        live = set()
        for step in range(120):
            node = "/n%d" % rng.randrange(6)
            topic = "/t%d" % rng.randrange(3)
            api = "http://h:%d/" % (1000 + int(node[2:]))
            key = (node, topic, api)
            if key in live and rng.random() < 0.5:
                r = await c.call_ros("unregisterPublisher", [node, topic, api])
                assert r.code == 1
                live.discard(key)
            else:
                r = await c.call_ros(
                    "registerPublisher", [node, topic, "std_msgs/String", api]
                )
                assert r.code == 1
                live.add(key)
        snapshot = master.state.snapshot()
        flattened = {
            (cid, topic, api)
            for topic, pairs in snapshot["publishers"].items()
            for cid, api in pairs
        }
        assert flattened == live


async def test_publisher_update_fans_out_to_subscribers():
    async with MasterBox() as master:
        updates = []

        async def dispatch(path, call, peer):
            if call.method_name == "publisherUpdate":
                updates.append((call.params[1], list(call.params[2])))
            return MethodSuccess([1, "ok", 0])

        sub_server = await serve_xmlrpc("127.0.0.1", 0, dispatch)
        sub_port = sub_server.sockets[0].getsockname()[1]
        sub_api = "http://127.0.0.1:%d/" % sub_port
        try:
            c = client(master)
            await c.call_ros(
                "registerSubscriber", ["/sub", "/chat", "std_msgs/String", sub_api]
            )
            await c.call_ros(
                "registerPublisher", ["/pub", "/chat", "std_msgs/String", "http://h:5/"]
            )
            await poll_until(lambda: len(updates) >= 1, timeout=3.0)
            assert updates[-1] == ("/chat", ["http://h:5/"])

            await c.call_ros("unregisterPublisher", ["/pub", "/chat", "http://h:5/"])
            await poll_until(lambda: len(updates) >= 2, timeout=3.0)
            assert updates[-1] == ("/chat", [])
        finally:
            sub_server.close()
            await sub_server.wait_closed()


async def test_lookup_node_and_service():
    async with MasterBox() as master:
        c = client(master)
        await c.call_ros(
            "registerPublisher", ["/pub", "/t", "std_msgs/String", "http://h:7/"]
        )
        await c.call_ros(
            "registerService", ["/srv_node", "/echo", "rosrpc://h:8", "http://h:9/"]
        )

        r = await c.call_ros("lookupNode", ["/me", "/pub"])
        assert (r.code, r.value) == (1, "http://h:7/")
        r = await c.call_ros("lookupNode", ["/me", "/nobody"])
        assert r.code == -1

        r = await c.call_ros("lookupService", ["/me", "/echo"])
        assert (r.code, r.value) == (1, "rosrpc://h:8")
        r = await c.call_ros("lookupService", ["/me", "/nothing"])
        assert r.code == -1


async def test_get_system_state_shape():
    async with MasterBox() as master:
        c = client(master)
        await c.call_ros("registerPublisher", ["/a", "/t", "std_msgs/String", "http://h:1/"])
        await c.call_ros("registerSubscriber", ["/b", "/t", "std_msgs/String", "http://h:2/"])
        await c.call_ros("registerService", ["/c", "/s", "rosrpc://h:3", "http://h:4/"])

        r = await c.call_ros("getSystemState", ["/me"])
        assert r.code == 1
        pubs, subs, srvs = r.value
        assert pubs == [["/t", ["/a"]]]
        assert subs == [["/t", ["/b"]]]
        assert srvs == [["/s", ["/c"]]]


async def test_get_pid_answers():
    async with MasterBox() as master:
        r = await client(master).call_ros("getPid", ["/me"])
        assert r.code == 1
        assert isinstance(r.value, int)


async def test_unknown_method_is_a_fault():
    async with MasterBox() as master:
        with pytest.raises(XmlRpcFaultError):
            await client(master).call_ros("shutdownEverything", ["/me"])


async def test_wrong_arity_is_a_fault():
    async with MasterBox() as master:
        with pytest.raises(XmlRpcFaultError):
            await client(master).call_ros("registerPublisher", ["/only-one"])
