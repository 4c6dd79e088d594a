"""Pass-through answers on the wire: an answer the proxy does not change
comes back as the bytes its upstream or node sent, on the main port, on
a node's gateway and on the /node/<caller_id> alias. A rewritten
requestTopic answer carries none of the node's bytes, and an answer the
codec cannot read, or no answer, is still fault -32300."""

import asyncio

import pytest

from rosproxy.app import ProxyApp
from rosproxy.xmlrpc_codec import (
    FAULT_TRANSPORT,
    MethodCall,
    MethodFault,
    MethodSuccess,
    encode_call,
    parse_call,
    parse_response,
)

from helpers import KeepAlivePeer, make_config

ADVERTISED = "proxy.example"


def _success(value_xml: bytes) -> bytes:
    return (
        b"<?xml version='1.0'?>\n<methodResponse>\n<params>\n<param>\n"
        + value_xml + b"\n</param>\n</params>\n</methodResponse>\n"
    )


def _triple(code: bytes, status: bytes, payload: bytes) -> bytes:
    return _success(
        b"<value><array><data>\n<value><i4>" + code + b"</i4></value>\n<value>"
        + status + b"</value>\n<value><array><data>" + payload
        + b"</data></array></value>\n</data></array></value>"
    )


NODE_TCPROS = b"<value>TCPROS</value><value>node.internal</value><value><i4>40123</i4></value>"

# What the upstream master and the node answer, by the call's second param.
VERBATIM = {
    "pretty": (
        b'<?xml version="1.0"?>\n<methodResponse>\n  <params>\n    <param>\n'
        b"      <value>\n        <array>\n          <data>\n"
        b"            <value><int>1</int></value>\n"
        b"            <value><string>Parameter [/pretty]</string></value>\n"
        b"            <value><string>spaced &amp; indented</string></value>\n"
        b"          </data>\n        </array>\n      </value>\n"
        b"    </param>\n  </params>\n</methodResponse>\n"
    ),
    "i4": _triple(b"1", b"i4 tags", b"<value><i4>-7</i4></value><value><i4>2147483647</i4></value>"),
    "latin1": (
        b"<?xml version='1.0' encoding='ISO-8859-1'?>"
        b"<methodResponse><params><param><value><array><data>"
        b"<value><int>1</int></value><value><string>caf\xe9</string></value>"
        b"<value><string>na\xefve \xbd</string></value>"
        b"</data></array></value></param></params></methodResponse>"
    ),
    "fault": (
        b"<?xml version='1.0'?>\n<methodResponse>\n<fault>\n<value><struct>\n"
        b"<member><name>faultCode</name><value><i4>-1</i4></value></member>\n"
        b"<member><name>faultString</name><value>upstream says no</value></member>\n"
        b"</struct></value>\n</fault>\n</methodResponse>\n"
    ),
    "udpros": _triple(
        b"1", b"ready",
        b"<value>UDPROS</value><value>node.internal</value><value><i4>40123</i4></value>"
        b"<value><i4>7</i4></value><value><i4>1500</i4></value>",
    ),
    "code0": _triple(b"0", b"no publisher", NODE_TCPROS),
}
OTHER = {
    "tcpros": _triple(b"1", b"ready", NODE_TCPROS),
    "i8": _success(b"<value><i8>4294967296</i8></value>"),
    "garbage": b"not xml",
}
ANSWERS = {**VERBATIM, **OTHER}

ROUTES = ("main", "gateway", "alias")


def _call(case: str) -> MethodCall:
    method = "requestTopic" if case in ("udpros", "code0", "tcpros") else "getParam"
    return MethodCall(method, ["/probe", case, [["TCPROS"], ["UDPROS"]]])


async def _start():
    """A proxy whose upstream master and one node, /talker, are the same
    kept-alive peer; returns (app, record, peer)."""
    peer = await KeepAlivePeer(lambda body: ANSWERS[parse_call(body).params[1]]).start()
    uri = "http://127.0.0.1:%d/" % peer.port
    app = ProxyApp(make_config(uri, advertised_host=ADVERTISED))
    await app.start()
    record = await app.registry.ensure_node("/talker", uri)
    return app, record, peer


async def _stop(app, peer):
    await app.stop()
    await peer.stop()
    assert app.registry.allocator.live_leases() == []


async def _post(app, record, route: str, call: MethodCall) -> bytes:
    """The body of the proxy's 200 answer to call, sent over route."""
    port = record.gateway_port if route == "gateway" else app.config.main_port
    path = b"/node/%2Ftalker" if route == "alias" else b"/"
    body = encode_call(call)
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"POST %s HTTP/1.1\r\nHost: proxy\r\nContent-Type: text/xml\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (path, len(body), body)
    )
    data = await asyncio.wait_for(reader.read(), 5.0)
    writer.close()
    await writer.wait_closed()
    head, _, answer = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert b"content-length: %d\r\n" % len(answer) in head.lower() + b"\r\n"
    return answer


@pytest.mark.parametrize("route", ROUTES)
async def test_unchanged_answers_come_back_verbatim(route):
    app, record, peer = await _start()
    try:
        for case, sent in VERBATIM.items():
            assert await _post(app, record, route, _call(case)) == sent, case
        assert record.tcpros_relays == {}
    finally:
        await _stop(app, peer)


@pytest.mark.parametrize("route", ("gateway", "alias"))
async def test_rewritten_request_topic_carries_none_of_the_nodes_bytes(route):
    app, record, peer = await _start()
    try:
        answer = await _post(app, record, route, _call("tcpros"))
        [(target, relay)] = record.tcpros_relays.items()
        assert target == ("node.internal", 40123)
        assert parse_response(answer) == MethodSuccess([1, "ready", ["TCPROS", ADVERTISED, relay.port]])
        assert ADVERTISED.encode() in answer and b"%d" % relay.port in answer
        assert b"node.internal" not in answer and b"40123" not in answer
    finally:
        await _stop(app, peer)


@pytest.mark.parametrize("route", ROUTES)
async def test_unreadable_answers_are_transport_faults(route):
    """An <i8> answer and a body that is no XML become fault -32300,
    encoded by the proxy, as does a call whose upstream has gone."""
    app, record, peer = await _start()
    try:
        for case in ("i8", "garbage", "gone"):
            if case == "gone":
                await peer.stop()
            answer = await _post(app, record, route, _call(case))
            fault = parse_response(answer)
            assert isinstance(fault, MethodFault) and fault.code == FAULT_TRANSPORT, case
            assert answer.startswith(b'<?xml version="1.0"?><methodResponse><fault>')
            assert ("unparseable response" in fault.message) == (case != "gone")
    finally:
        await _stop(app, peer)
