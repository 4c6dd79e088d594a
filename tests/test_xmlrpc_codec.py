import xmlrpc.client

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_rng, random_rpc_value, same_value
from rosproxy import xmlrpc_codec
from rosproxy.xmlrpc_codec import (
    MAX_MESSAGE_BYTES,
    DepthExceeded,
    MalformedXml,
    MethodCall,
    MethodFault,
    MethodSuccess,
    RosResult,
    RpcDateTime,
    encode_call,
    encode_response,
    parse_call,
    parse_response,
)


def roundtrip_call(call):
    return parse_call(encode_call(call))


# --- parse_call -------------------------------------------------------------

def test_parse_call_roundtrip_identity():
    call = MethodCall("registerPublisher", ["/talker", "/chat", "std_msgs/String", 7])
    body = encode_call(call)
    again = roundtrip_call(call)
    assert again == call
    assert encode_call(again) == body


def test_parse_call_i4_param():
    body = (
        b"<?xml version='1.0'?><methodCall><methodName>f</methodName>"
        b"<params><param><value><i4>42</i4></value></param></params></methodCall>"
    )
    call = parse_call(body)
    assert call.params[0] == 42 and type(call.params[0]) is int


def test_parse_call_html_is_malformed():
    with pytest.raises(MalformedXml):
        parse_call(b"<html></html>")


def test_parse_call_whitespace_between_elements_insignificant():
    body = (
        b"<?xml version='1.0'?>\n<methodCall>\n  <methodName>getPid</methodName>\n"
        b"  <params>\n    <param>\n      <value>  <int> 5 </int>  </value>\n"
        b"    </param>\n  </params>\n</methodCall>\n"
    )
    call = parse_call(body)
    assert call == MethodCall("getPid", [5])


def test_parse_call_untyped_value_is_string():
    body = (
        b"<methodCall><methodName>f</methodName><params>"
        b"<param><value>plain text</value></param></params></methodCall>"
    )
    assert parse_call(body).params == ["plain text"]


def test_parse_call_no_params_element():
    body = b"<methodCall><methodName>f</methodName></methodCall>"
    assert parse_call(body) == MethodCall("f", [])


def test_parse_call_rejects_whitespace_method_name():
    body = b"<methodCall><methodName>a b</methodName></methodCall>"
    with pytest.raises(MalformedXml):
        parse_call(body)


def test_parse_call_rejects_empty_method_name():
    body = b"<methodCall><methodName></methodName></methodCall>"
    with pytest.raises(MalformedXml):
        parse_call(body)


def test_int_out_of_32bit_range_rejected():
    for bad in (2**31, -(2**31) - 1, 10**12):
        body = (
            "<methodCall><methodName>f</methodName><params><param>"
            "<value><int>%d</int></value></param></params></methodCall>" % bad
        ).encode()
        with pytest.raises(MalformedXml):
            parse_call(body)


def test_parse_call_size_limit():
    body = b"<methodCall><methodName>f</methodName></methodCall>"
    body += b" " * (MAX_MESSAGE_BYTES - len(body) + 1)  # well-formed, one byte too long
    with pytest.raises(MalformedXml, match="exceeds limit"):
        parse_call(body)


# --- encode_call ------------------------------------------------------------

def test_encode_call_method_name_in_document():
    body = encode_call(MethodCall("getPid", ["/rosproxy"]))
    assert b"<methodName>getPid</methodName>" in body


def test_encode_call_escapes_strings():
    body = encode_call(MethodCall("f", ["a<b"]))
    assert b"a&lt;b" in body
    assert parse_call(body).params == ["a<b"]


def test_encode_call_empty_params():
    body = encode_call(MethodCall("f", []))
    assert b"<params/>" in body
    assert parse_call(body).params == []


def test_encode_emits_int_tag_for_integers():
    body = encode_call(MethodCall("f", [1]))
    assert b"<int>1</int>" in body and b"i4" not in body


def test_carriage_return_roundtrips():
    call = MethodCall("f", ["a\rb\nc"])
    assert roundtrip_call(call).params == ["a\rb\nc"]


# --- parse_response ---------------------------------------------------------

def test_parse_response_fault():
    body = encode_response(MethodFault(-1, "boom"))
    resp = parse_response(body)
    assert resp == MethodFault(-1, "boom")


def test_parse_response_success_triple():
    body = (
        b"<methodResponse><params><param><value><array><data>"
        b"<value><int>1</int></value><value><string>ok</string></value>"
        b"<value><int>12345</int></value>"
        b"</data></array></value></param></params></methodResponse>"
    )
    resp = parse_response(body)
    assert resp == MethodSuccess([1, "ok", 12345])


def test_parse_response_two_params_rejected():
    body = (
        b"<methodResponse><params>"
        b"<param><value><int>1</int></value></param>"
        b"<param><value><int>2</int></value></param>"
        b"</params></methodResponse>"
    )
    with pytest.raises(MalformedXml):
        parse_response(body).value


def test_fault_without_code_rejected():
    body = (
        b"<methodResponse><fault><value><struct>"
        b"<member><name>faultString</name><value><string>x</string></value></member>"
        b"</struct></value></fault></methodResponse>"
    )
    with pytest.raises(MalformedXml):
        parse_response(body)


# --- encode_response --------------------------------------------------------

def test_encode_response_roundtrip():
    for resp in (MethodSuccess([1, "ok", "http://h:1/"]), MethodFault(0, "")):
        assert parse_response(encode_response(resp)) == resp


def test_parsed_answer_encodes_as_the_bytes_it_came_in():
    """A parsed answer keeps its body (raw) and encodes back to it, tags,
    whitespace and encoding as they were; raw takes no part in == or
    repr. A new answer of the same value is encoded anew."""
    success = (
        b"<?xml version='1.0' encoding='ISO-8859-1'?>\n<methodResponse>\n"
        b"  <params><param><value><array><data>\n"
        b"    <value><i4>1</i4></value><value>caf\xe9</value>\n"
        b"  </data></array></value></param></params>\n</methodResponse>\n"
    )
    fault = (
        b"<methodResponse><fault><value><struct>"
        b"<member><name>faultString</name><value>no</value></member>"
        b"<member><name>faultCode</name><value><i4>-1</i4></value></member>"
        b"</struct></value></fault></methodResponse>"
    )
    for body, fresh in ((success, MethodSuccess([1, "caf\xe9"])), (fault, MethodFault(-1, "no"))):
        parsed = parse_response(body)
        assert parsed.raw is body
        assert encode_response(parsed) is body
        assert parsed == fresh and repr(parsed) == repr(fresh)
        assert fresh.raw is None
        assert encode_response(fresh) != body
        assert parse_response(encode_response(fresh)) == fresh


def test_only_a_plain_success_answer_is_left_undecoded(monkeypatch):
    """parse_response decodes no body that opens like a plain success
    answer; its value is decoded on first read, once. A fault, or a body
    that opens any other way, is decoded at once."""
    parsed = []
    real = xmlrpc_codec._parse_document
    monkeypatch.setattr(xmlrpc_codec, "_parse_document", lambda body: parsed.append(body) or real(body))
    triple = [1, "ok", ["a", 2]]
    for body in (
        encode_response(MethodSuccess(triple)),
        xmlrpc.client.dumps((triple,), methodresponse=True).encode(),
        b"<?xml version='1.0' encoding='ISO-8859-1'?>\r\n<methodResponse>\n <params>"
        b"<param><value><array><data><value><i4>1</i4></value><value>ok</value><value>"
        b"<array><data><value>a</value><value><int>2</int></value></data></array>"
        b"</value></data></array></value></param></params></methodResponse>",
    ):
        answer = parse_response(body)
        assert parsed == [] and answer.raw is body
        assert answer.value == triple and answer.value == triple
        assert parsed == [body]
        parsed.clear()
    fault = encode_response(MethodFault(-1, "no"))
    commented = b"<!-- c --><methodResponse><params><param><value>x</value></param></params></methodResponse>"
    assert parse_response(fault) == MethodFault(-1, "no")
    assert parse_response(commented) == MethodSuccess("x")
    assert parsed == [fault, commented]
    with pytest.raises(MalformedXml):
        parse_response(b"<methodResponse><param></param></methodResponse>")
    with pytest.raises(MalformedXml):
        MethodSuccess(raw=fault).value


def test_ros_result_on_the_wire():
    resp = MethodSuccess(RosResult(1, "ok", 0).to_value())
    parsed = parse_response(encode_response(resp))
    assert parsed.value == [1, "ok", 0]
    assert RosResult.from_value(parsed.value) == RosResult(1, "ok", 0)


def test_ros_result_rejects_non_triples():
    for bad in (0, [1, "ok"], [True, "ok", 0], [1, 2, 3], "x"):
        with pytest.raises(ValueError):
            RosResult.from_value(bad)


# --- exact bytes -----------------------------------------------------------

# One value holding every type the encoder emits, and its expected rendering.
EVERY_TYPE = [
    True, False, 2**31 - 1, -(2**31), 1.5, -0.0, 1e-9,
    "a&b<c>d\re", "plain", "", b"\x00\xffbin", RpcDateTime("20261019T07:31:37"),
    [], [[1, ["x"]]], ("t", 2), {}, {"a&<b>": {"\rk": "v"}},
]
EVERY_TYPE_XML = (
    b"<value><array><data>"
    b"<value><boolean>1</boolean></value><value><boolean>0</boolean></value>"
    b"<value><int>2147483647</int></value><value><int>-2147483648</int></value>"
    b"<value><double>1.5</double></value><value><double>-0.0</double></value>"
    b"<value><double>1e-09</double></value>"
    b"<value><string>a&amp;b&lt;c&gt;d&#13;e</string></value>"
    b"<value><string>plain</string></value><value><string></string></value>"
    b"<value><base64>AP9iaW4=</base64></value>"
    b"<value><dateTime.iso8601>20261019T07:31:37</dateTime.iso8601></value>"
    b"<value><array><data></data></array></value>"
    b"<value><array><data><value><array><data><value><int>1</int></value>"
    b"<value><array><data><value><string>x</string></value></data></array></value>"
    b"</data></array></value></data></array></value>"
    b"<value><array><data><value><string>t</string></value>"
    b"<value><int>2</int></value></data></array></value>"
    b"<value><struct></struct></value>"
    b"<value><struct><member><name>a&amp;&lt;b&gt;</name><value><struct>"
    b"<member><name>&#13;k</name><value><string>v</string></value></member>"
    b"</struct></value></member></struct></value>"
    b"</data></array></value>"
)


def test_encode_call_exact_bytes():
    assert encode_call(MethodCall("probe", [EVERY_TYPE, "x"])) == (
        b'<?xml version="1.0"?><methodCall><methodName>probe</methodName><params>'
        b"<param>" + EVERY_TYPE_XML + b"</param>"
        b"<param><value><string>x</string></value></param></params></methodCall>"
    )


def test_encode_response_exact_bytes():
    assert encode_response(MethodSuccess(EVERY_TYPE)) == (
        b'<?xml version="1.0"?><methodResponse><params><param>'
        + EVERY_TYPE_XML + b"</param></params></methodResponse>"
    )
    assert encode_response(MethodFault(-32602, "bad <params> & \r")) == (
        b'<?xml version="1.0"?><methodResponse><fault><value><struct>'
        b"<member><name>faultCode</name><value><int>-32602</int></value></member>"
        b"<member><name>faultString</name>"
        b"<value><string>bad &lt;params&gt; &amp; &#13;</string></value></member>"
        b"</struct></value></fault></methodResponse>"
    )


# --- depth limits -----------------------------------------------------------

def nested_list(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


def test_depth_limit_boundary():
    ok = MethodCall("f", [nested_list(32)])
    assert roundtrip_call(ok) == ok
    body = encode_call(ok).replace(b"<param>", b"<param><value><array><data>").replace(
        b"</param>", b"</data></array></value></param>"
    )  # one more level than MAX_DEPTH
    with pytest.raises(DepthExceeded):
        parse_call(body)
    with pytest.raises(DepthExceeded):
        encode_call(MethodCall("f", [nested_list(33)]))


def test_deep_input_rejected_without_crash():
    body = (
        b"<methodCall><methodName>f</methodName><params><param>"
        + b"<value><array><data>" * 500
        + b"<value><int>1</int></value>"
        + b"</data></array></value>" * 500
        + b"</param></params></methodCall>"
    )
    with pytest.raises(DepthExceeded):
        parse_call(body)


# --- what the decoder accepts and rejects ------------------------------------

# Shaped like getSystemState from a 400-topic graph: publishers,
# subscribers, services.
SYSTEM_STATE = [1, "current system state", [
    [["/robot/t%d" % i, ["/node%d" % (i % 120), "/node%d" % (i % 7)]] for i in range(400)],
    [["/robot/t%d" % i, ["/node%d" % (i % 3)]] for i in range(400)],
    [["/srv%d" % i, ["/node%d" % i]] for i in range(120)],
]]


def _response(value_xml):
    return (b"<methodResponse><params><param>" + value_xml
            + b"</param></params></methodResponse>")


def _nested_array(depth):
    return (b"<value><array><data>" * depth + b"<value><int>0</int></value>"
            + b"</data></array></value>" * depth)


@pytest.mark.parametrize("body, expected", [
    # stdlib rendering: pretty-printed, newline tails after every element
    (xmlrpc.client.dumps((SYSTEM_STATE,), methodresponse=True).encode(), SYSTEM_STATE),
    (_response(b"<value><struct><member><value><int>1</int></value><name>a</name>"
               b"</member></struct></value>"), {"a": 1}),
    (_response(b"<value>\n  <string> s </string>\n</value>"), " s "),
    (_response(b"<value>plain text</value>"), "plain text"),
    (_response(_nested_array(32)), nested_list(32)),
    (_response(b"<value>a<int>1</int></value>"), MalformedXml),
    (_response(b"<value><int>1</int>a</value>"), MalformedXml),
    (_response(b"<value><int>1</int><string>x</string></value>"), MalformedXml),
    (_response(b"<value><struct><member><name>a</name><value>1</value><name>b</name>"
               b"</member></struct></value>"), MalformedXml),
    (_response(b"<value><struct><member><name>a</name><name>b</name>"
               b"</member></struct></value>"), MalformedXml),
    (_response(b"<value><string><i4>1</i4></string></value>"), MalformedXml),
    (_response(b"<value><base64>\xc3\xa9</base64></value>"), MalformedXml),
    (_response(_nested_array(33)), DepthExceeded),
], ids=["stdlib-system-state", "member-value-first", "whitespace-around-type", "untyped",
        "depth-32", "text-before-type", "text-after-type", "two-types", "third-in-member",
        "member-without-value", "element-in-string", "non-ascii-base64", "depth-33"])
def test_parse_response_accepts_and_rejects(body, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            parse_response(body).value
    else:
        assert parse_response(body) == MethodSuccess(expected)


# --- round-trip property ----------------------------------------------------

_xml_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("\t\n\r"),
        st.characters(
            min_codepoint=0x20,
            max_codepoint=0x2FFFF,
            blacklist_categories=("Cs",),
            blacklist_characters="￾￿",
        ),
    ),
    max_size=20,
)

_scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.booleans(),
    _xml_text,
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=24),
    _xml_text.map(RpcDateTime),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_xml_text, children, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_value_roundtrip_property(value):
    call = MethodCall("probe", [value])
    again = roundtrip_call(call)
    assert same_value(again.params[0], value)


@settings(max_examples=100, deadline=None)
@given(st.lists(_values, max_size=4))
def test_response_roundtrip_property(values):
    resp = MethodSuccess(values)
    assert same_value(parse_response(encode_response(resp)).value, values)


def test_seeded_generator_roundtrip():
    rng = make_rng(0xC0DEC)
    for _ in range(500):
        value = random_rpc_value(rng)
        call = MethodCall("probe", [value])
        assert same_value(roundtrip_call(call).params[0], value)


# --- fuzz: errors, never crashes --------------------------------------------

def test_parser_survives_arbitrary_bytes():
    rng = make_rng(0xF027)
    valid = encode_call(MethodCall("f", [[1, "x", {"k": 2.5}], b"abc"]))
    corpus = [
        b"",
        b"\x00\x01\x02",
        b"<",
        b"<?xml version='1.0'?>",
        b"<methodCall>",
        b"<methodCall><methodName>f</methodName><params><param><value><int>",
        "<methodCall><methodName>f </methodName></methodCall>".encode(),
        b"<methodResponse><params></params></methodResponse>",
        b"<methodCall><methodName>f</methodName><junk/></methodCall>",
        b"<!DOCTYPE x [<!ENTITY a 'aaaa'>]><methodCall><methodName>&a;</methodName></methodCall>",
        valid.replace(b"base64", b"base66"),
        valid.replace(b"abc", b"\xff\xfe"),
    ]
    for _ in range(400):
        mutated = bytearray(valid)
        for _ in range(rng.randrange(1, 6)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        corpus.append(bytes(mutated))
    for _ in range(200):
        corpus.append(rng.randbytes(rng.randrange(64)))

    for blob in corpus:
        for parse in (parse_call, parse_response):
            try:
                parsed = parse(blob)
                if isinstance(parsed, MethodSuccess):
                    parsed.value  # a deferred decode is fuzzed too
            except (MalformedXml, DepthExceeded):
                pass  # errors are the contract; anything else is a crash
