"""Mini nodes talking to the mini master directly (no proxy).

These pin down the harness actors themselves, so that scenario-level
failures can be blamed on the proxy rather than on the puppets.
"""

import asyncio

import pytest

from rosproxy.harness.cleanup import cleanup_stale_registrations
from rosproxy.harness.dial import DialLog
from rosproxy.harness.nodes import Listener, ServiceNode, Talker, call_service, type_md5
from rosproxy.harness.scenarios import ScenarioReport, segment
from rosproxy.harness.wire import read_frame, read_header, write_header


def direct_segment():
    """A direct segment: the mini master alone. Actors adopted on it are
    killed when it ends."""
    return segment(ScenarioReport("mini-nodes", "direct"))


async def test_talker_then_listener_delivers_in_order():
    payloads = [b"alpha", b"beta", b"gamma"]
    async with direct_segment() as stage:
        talker = stage.adopt(Talker("/talker", stage.master.uri, "/chat", payloads))
        listener = stage.adopt(
            Listener("/listener", stage.master.uri, "/chat", len(payloads))
        )
        await talker.start()
        await listener.start()
        assert await listener.wait_complete(5.0) == payloads
        assert talker.connections_served == 1


async def test_listener_first_is_fed_via_publisher_update():
    payloads = [b"late", b"bloomer"]
    async with direct_segment() as stage:
        listener = stage.adopt(
            Listener("/listener", stage.master.uri, "/chat", len(payloads))
        )
        await listener.start()
        talker = stage.adopt(Talker("/talker", stage.master.uri, "/chat", payloads))
        await talker.start()
        assert await listener.wait_complete(5.0) == payloads


async def test_two_listeners_each_get_full_stream():
    payloads = [b"x%d" % i for i in range(4)]
    async with direct_segment() as stage:
        talker = stage.adopt(Talker("/talker", stage.master.uri, "/chat", payloads))
        await talker.start()
        listeners = [
            stage.adopt(Listener("/l%d" % i, stage.master.uri, "/chat", len(payloads)))
            for i in range(2)
        ]
        for listener in listeners:
            await listener.start()
        for listener in listeners:
            assert await listener.wait_complete(5.0) == payloads
        assert talker.connections_served == 2


async def test_talker_rejects_wrong_topic_header():
    async with direct_segment() as stage:
        talker = stage.adopt(Talker("/talker", stage.master.uri, "/chat", [b"hi"]))
        await talker.start()
        reader, writer = await asyncio.open_connection(talker.host, talker.data_port)
        try:
            write_header(
                writer,
                {
                    "callerid": "/x",
                    "topic": "/wrong",
                    "type": "std_msgs/String",
                    "md5sum": type_md5("std_msgs/String"),
                },
            )
            await writer.drain()
            reply = await read_header(reader)
            assert "error" in reply
        finally:
            writer.close()


async def test_talker_requesttopic_declines_unknown_topic_and_protocol():
    async with direct_segment() as stage:
        talker = stage.adopt(Talker("/talker", stage.master.uri, "/chat", [b"hi"]))
        await talker.start()
        from rosproxy.harness.rpc import RosClient

        slave = RosClient(talker.slave_uri)
        r = await slave.call_ros("requestTopic", ["/x", "/other", [["TCPROS"]]])
        assert r.code == -1
        r = await slave.call_ros("requestTopic", ["/x", "/chat", [["UDPROS"]]])
        assert r.code == 0
        r = await slave.call_ros("requestTopic", ["/x", "/chat", [["TCPROS"]]])
        assert r.code == 1
        assert r.value == ["TCPROS", talker.host, talker.data_port]


async def test_service_echo_round_trip():
    async with direct_segment() as stage:
        service = stage.adopt(ServiceNode("/echoer", stage.master.uri, "/echo"))
        await service.start()
        answer = await call_service(stage.master.uri, "/client", "/echo", b"payload!")
        assert answer == b"payload!"
        assert service.calls_served == 1


async def test_service_transform_is_applied():
    async with direct_segment() as stage:
        service = stage.adopt(
            ServiceNode(
                "/upper", stage.master.uri, "/upper", transform=lambda b: b.upper()
            )
        )
        await service.start()
        assert await call_service(stage.master.uri, "/client", "/upper", b"abc") == b"ABC"


async def test_call_service_unknown_service_raises():
    async with direct_segment() as stage:
        with pytest.raises(RuntimeError):
            await call_service(stage.master.uri, "/client", "/nothing", b"x")


async def test_stop_unregisters_everything():
    async with direct_segment() as stage:
        talker = Talker("/talker", stage.master.uri, "/chat", [b"x"])
        listener = Listener("/listener", stage.master.uri, "/chat", 1)
        service = ServiceNode("/svc", stage.master.uri, "/echo")
        for actor in (talker, listener, service):
            await actor.start()
        assert stage.master.state.node_names() == {"/talker", "/listener", "/svc"}
        await listener.stop()
        await talker.stop()
        await service.stop()
        assert stage.master.state.node_names() == set()
        assert stage.master.state.snapshot() == {
            "publishers": {},
            "subscribers": {},
            "services": {},
        }


async def test_cleanup_removes_only_dead_nodes():
    async with direct_segment() as stage:
        dead = Talker("/dead", stage.master.uri, "/chat", [b"x"])
        alive = stage.adopt(Talker("/alive", stage.master.uri, "/chat", [b"y"]))
        svc = ServiceNode("/dead_svc", stage.master.uri, "/echo")
        await dead.start()
        await alive.start()
        await svc.start()
        await dead.kill()
        await svc.kill()

        log = DialLog()
        removed = await cleanup_stale_registrations(stage.master.uri, dial_log=log)
        assert set(removed) == {"/dead", "/dead_svc"}
        assert stage.master.state.node_names() == {"/alive"}
        assert stage.master.state.services == {}
        # the probe talked to the master and to each node's own endpoint
        assert any(d.actor == "cleanup" for d in log.entries)


async def test_cleanup_on_clean_graph_is_a_noop():
    async with direct_segment() as stage:
        alive = stage.adopt(Talker("/alive", stage.master.uri, "/chat", [b"y"]))
        await alive.start()
        removed = await cleanup_stale_registrations(stage.master.uri)
        assert removed == []
        assert stage.master.state.node_names() == {"/alive"}


async def test_talker_streams_to_raw_subscriber_connection():
    payloads = [b"one", b"two"]
    async with direct_segment() as stage:
        talker = stage.adopt(Talker("/talker", stage.master.uri, "/chat", payloads))
        await talker.start()
        reader, writer = await asyncio.open_connection(talker.host, talker.data_port)
        try:
            write_header(
                writer,
                {
                    "callerid": "/raw",
                    "topic": "/chat",
                    "type": "std_msgs/String",
                    "md5sum": type_md5("std_msgs/String"),
                },
            )
            await writer.drain()
            reply = await read_header(reader)
            assert reply["topic"] == "/chat"
            assert reply["md5sum"] == type_md5("std_msgs/String")
            got = [await read_frame(reader) for _ in payloads]
            assert got == payloads
        finally:
            writer.close()
