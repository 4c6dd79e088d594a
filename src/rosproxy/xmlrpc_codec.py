"""XML-RPC wire codec.

Parses and serializes XML-RPC method calls and responses carried over HTTP,
plus the ROS ``(code, statusMessage, value)`` result convention used by the
Master and Slave APIs.

Values map to native Python types; two wrappers keep the wire type tags
round-trip stable:

    <int>/<i4>          -> int (32-bit signed, range-checked)
    <boolean>           -> bool
    <string> / untyped  -> str
    <double>            -> float (finite only)
    <base64>            -> bytes
    <dateTime.iso8601>  -> RpcDateTime (opaque, carried verbatim)
    <array>             -> list
    <struct>            -> dict

Everything here is pure functions over byte buffers: no shared state, safe
from any number of concurrent handlers.

The proxy decodes every call and re-encodes it, so the per-value path is
kept short. A plain success answer, the kind nearly every relayed call
gets, is not decoded by parse_response: it keeps the body it arrived in
(raw) and decodes it, strictly, only when its value is first read.
encode_response sends an answer that has a raw body back as those bytes,
so an answer the proxy never reads crosses it with no XML work, and one
that would not decode still goes back as it came. Faults, and any body
that does not open like a plain success answer, are decoded at once.
``ET.fromstring`` builds the tree and is the well-formedness check; it
is most of the cost of decoding a 400-topic ``getSystemState`` answer.
The walk over its tree indexes children instead of copying them into
lists and tests ``string`` and ``array`` first; the encoder tests
``str`` and then ``list``/``tuple`` first, and text with nothing to
escape is emitted as it is.
"""

from __future__ import annotations

import base64
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional, Union

# Hard ceilings protecting a long-lived proxy from malformed peers.
MAX_DEPTH = 32
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

# Semi-standard fault codes (XML-RPC fault interoperability set).
FAULT_TRANSPORT = -32300
FAULT_BAD_PARAMS = -32602
FAULT_APP = -32000

_METHOD_NAME_RE = re.compile(r"^\S+$")
# How a plain success answer opens: an optional XML declaration, then
# <methodResponse> and <params> with only whitespace around them. Every
# part is bounded, so a match never reads far into the body.
_SUCCESS_HEAD_RE = re.compile(
    rb"(?:<\?xml[^<>?]{0,256}\?>)?[ \t\r\n]{0,64}<methodResponse>[ \t\r\n]{0,64}<params>")


class CodecError(ValueError):
    """Base class for wire-level decode failures."""


class MalformedXml(CodecError):
    """Input is not a well-formed or well-typed XML-RPC document."""


class DepthExceeded(CodecError):
    """Array/struct nesting is deeper than MAX_DEPTH."""


@dataclass(frozen=True)
class RpcDateTime:
    """Opaque ISO-8601 timestamp; the proxy never interprets it."""

    text: str


RpcValue = Union[int, bool, str, float, bytes, RpcDateTime, list, dict]


@dataclass
class MethodCall:
    method_name: str
    params: list


_UNDECODED = object()


class MethodSuccess:
    """A success answer; == and repr are by value, and it is unhashable.

    raw is the body the answer was parsed from, which encode_response
    sends back as it is. An answer parse_response left undecoded decodes
    raw on the first read of value, and that read raises CodecError if
    raw does not decode. An answer that changes is a new MethodSuccess.
    """

    __slots__ = ("_value", "raw")

    def __init__(self, value: RpcValue = _UNDECODED, raw: Optional[bytes] = None):
        self._value = value
        self.raw = raw

    @property
    def value(self) -> RpcValue:
        if self._value is _UNDECODED:
            answer = _decode_response(self.raw)
            if not isinstance(answer, MethodSuccess):
                raise MalformedXml("a fault, not a success answer")
            self._value = answer.value
        return self._value

    def __eq__(self, other):  # defining __eq__ alone leaves __hash__ None
        return self.value == other.value if other.__class__ is MethodSuccess else NotImplemented

    def __repr__(self):
        return "MethodSuccess(value=%r)" % (self.value,)


# raw: as for MethodSuccess; it takes no part in == or repr.
@dataclass
class MethodFault:
    code: int
    message: str
    raw: Optional[bytes] = field(default=None, compare=False, repr=False)


MethodResponse = Union[MethodSuccess, MethodFault]


@dataclass(frozen=True)
class RosResult:
    """ROS API result triple: code 1 success, 0 failure, -1 error."""

    code: int
    status_message: str
    value: RpcValue

    def to_value(self) -> list:
        return [self.code, self.status_message, self.value]

    @classmethod
    def from_value(cls, value: RpcValue) -> "RosResult":
        if not isinstance(value, list) or len(value) != 3:
            raise ValueError("not a 3-element (code, status, value) array")
        code, status, payload = value
        if isinstance(code, bool) or not isinstance(code, int):
            raise ValueError("result code is not an integer")
        if not isinstance(status, str):
            raise ValueError("status message is not a string")
        return cls(code, status, payload)


# ---------------------------------------------------------------------------
# encoding

def _escape_text(text: str) -> str:
    # & first, so the entities added after it stay as they are. CR must go
    # out as a charref: a literal CR would be normalized to LF on the way
    # back in, breaking round-trips. (Not xml.sax.saxutils.escape: importing
    # it loads urllib.request, http.client and email.)
    if "&" in text or "<" in text or ">" in text or "\r" in text:
        return (
            text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("\r", "&#13;")
        )
    return text


def _encode_value(value: RpcValue, out: list, depth: int) -> None:
    # Most common first: ROS answers are mostly strings inside arrays.
    if isinstance(value, str):
        out.append("<value><string>%s</string></value>" % _escape_text(value))
    elif isinstance(value, (list, tuple)):
        if depth >= MAX_DEPTH:
            raise DepthExceeded("nesting deeper than %d" % MAX_DEPTH)
        out.append("<value><array><data>")
        for item in value:
            _encode_value(item, out, depth + 1)
        out.append("</data></array></value>")
    elif isinstance(value, bool):  # bool before int: bool is an int subclass
        out.append("<value><boolean>%d</boolean></value>" % int(value))
    elif isinstance(value, int):
        if not _INT32_MIN <= value <= _INT32_MAX:
            raise ValueError("integer %d outside 32-bit signed range" % value)
        out.append("<value><int>%d</int></value>" % value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite double %r cannot be encoded" % value)
        out.append("<value><double>%s</double></value>" % repr(value))
    elif isinstance(value, (bytes, bytearray)):
        out.append(
            "<value><base64>%s</base64></value>"
            % base64.b64encode(bytes(value)).decode("ascii")
        )
    elif isinstance(value, RpcDateTime):
        out.append(
            "<value><dateTime.iso8601>%s</dateTime.iso8601></value>"
            % _escape_text(value.text)
        )
    elif isinstance(value, dict):
        if depth >= MAX_DEPTH:
            raise DepthExceeded("nesting deeper than %d" % MAX_DEPTH)
        out.append("<value><struct>")
        for name, member in value.items():
            if not isinstance(name, str):
                raise TypeError("struct member name must be str, got %r" % (name,))
            out.append("<member><name>%s</name>" % _escape_text(name))
            _encode_value(member, out, depth + 1)
            out.append("</member>")
        out.append("</struct></value>")
    else:
        raise TypeError("cannot encode %r as an XML-RPC value" % (value,))


def encode_call(call: MethodCall) -> bytes:
    if not _METHOD_NAME_RE.match(call.method_name or ""):
        raise ValueError("invalid method name %r" % (call.method_name,))
    out = [
        '<?xml version="1.0"?>',
        "<methodCall><methodName>%s</methodName>" % _escape_text(call.method_name),
    ]
    if call.params:
        out.append("<params>")
        for param in call.params:
            out.append("<param>")
            _encode_value(param, out, 0)
            out.append("</param>")
        out.append("</params>")
    else:
        out.append("<params/>")
    out.append("</methodCall>")
    return "".join(out).encode("utf-8")


def encode_response(resp: MethodResponse) -> bytes:
    if getattr(resp, "raw", None) is not None:
        return resp.raw
    out = ['<?xml version="1.0"?>', "<methodResponse>"]
    if isinstance(resp, MethodSuccess):
        out.append("<params><param>")
        _encode_value(resp.value, out, 0)
        out.append("</param></params>")
    elif isinstance(resp, MethodFault):
        out.append("<fault>")
        _encode_value({"faultCode": resp.code, "faultString": resp.message}, out, 0)
        out.append("</fault>")
    else:
        raise TypeError("not a MethodResponse: %r" % (resp,))
    out.append("</methodResponse>")
    return "".join(out).encode("utf-8")


# ---------------------------------------------------------------------------
# parsing

def _parse_document(body: bytes) -> ET.Element:
    if len(body) > MAX_MESSAGE_BYTES:
        raise MalformedXml("message of %d bytes exceeds limit %d" % (len(body), MAX_MESSAGE_BYTES))
    try:
        return ET.fromstring(body)
    except ET.ParseError as exc:
        raise MalformedXml("not well-formed XML: %s" % exc) from exc
    except (ValueError, UnicodeError) as exc:
        raise MalformedXml(str(exc)) from exc


def _text_of(elem: ET.Element) -> str:
    if len(elem):
        raise MalformedXml("unexpected elements inside <%s>" % elem.tag)
    return elem.text or ""


def _decode_value(elem: ET.Element, depth: int) -> RpcValue:
    # Most common first: ROS answers are mostly strings inside arrays.
    count = len(elem)
    if not count:
        # untyped <value>text</value> is a string
        return elem.text or ""
    if count > 1:
        raise MalformedXml("<value> with more than one type element")
    child = elem[0]
    text, tail = elem.text, child.tail
    if (text and not text.isspace()) or (tail and not tail.isspace()):
        raise MalformedXml("mixed text and element content in <value>")
    tag = child.tag

    if tag == "string":
        return _text_of(child)
    if tag == "array":
        if depth >= MAX_DEPTH:
            raise DepthExceeded("nesting deeper than %d" % MAX_DEPTH)
        if len(child) != 1 or child[0].tag != "data":
            raise MalformedXml("<array> must contain exactly one <data>")
        items = []
        for item in child[0]:
            if item.tag != "value":
                raise MalformedXml("non-<value> element inside <data>")
            items.append(_decode_value(item, depth + 1))
        return items
    if tag in ("int", "i4"):
        text = _text_of(child).strip()
        try:
            number = int(text)
        except ValueError as exc:
            raise MalformedXml("bad integer %r" % text) from exc
        if not _INT32_MIN <= number <= _INT32_MAX:
            raise MalformedXml("integer %s outside 32-bit signed range" % text)
        return number
    if tag == "boolean":
        text = _text_of(child).strip()
        if text == "1":
            return True
        if text == "0":
            return False
        raise MalformedXml("bad boolean %r" % text)
    if tag == "double":
        text = _text_of(child).strip()
        try:
            number = float(text)
        except ValueError as exc:
            raise MalformedXml("bad double %r" % text) from exc
        if not math.isfinite(number):
            raise MalformedXml("non-finite double %r" % text)
        return number
    if tag == "base64":
        text = "".join(_text_of(child).split())
        try:
            return base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error, or text that is not ASCII
            raise MalformedXml("bad base64 payload") from exc
    if tag == "dateTime.iso8601":
        return RpcDateTime(_text_of(child))
    if tag == "struct":
        if depth >= MAX_DEPTH:
            raise DepthExceeded("nesting deeper than %d" % MAX_DEPTH)
        record: dict = {}
        for member in child:
            if member.tag != "member":
                raise MalformedXml("non-<member> element inside <struct>")
            if len(member) != 2:
                raise MalformedXml("<member> must contain <name> and <value>")
            name_el, value_el = member  # <value> may come first
            if name_el.tag != "name":
                name_el, value_el = value_el, name_el
            if name_el.tag != "name" or value_el.tag != "value":
                raise MalformedXml("<member> must contain <name> and <value>")
            record[_text_of(name_el)] = _decode_value(value_el, depth + 1)
        return record
    raise MalformedXml("unsupported value type <%s>" % tag)


def _decode_params(params_el: ET.Element) -> list:
    params = []
    for param in params_el:
        if param.tag != "param":
            raise MalformedXml("non-<param> element inside <params>")
        if len(param) != 1 or param[0].tag != "value":
            raise MalformedXml("<param> must contain exactly one <value>")
        params.append(_decode_value(param[0], 0))
    return params


def parse_call(body: bytes) -> MethodCall:
    root = _parse_document(body)
    if root.tag != "methodCall":
        raise MalformedXml("not a methodCall document (root <%s>)" % root.tag)
    name_el = None
    params_el = None
    for child in root:
        if child.tag == "methodName" and name_el is None:
            name_el = child
        elif child.tag == "params" and params_el is None:
            params_el = child
        else:
            raise MalformedXml("unexpected <%s> in methodCall" % child.tag)
    if name_el is None:
        raise MalformedXml("methodCall without methodName")
    method_name = _text_of(name_el)
    if not _METHOD_NAME_RE.match(method_name):
        raise MalformedXml("invalid method name %r" % method_name)
    params = [] if params_el is None else _decode_params(params_el)
    return MethodCall(method_name, params)


def parse_response(body: bytes) -> MethodResponse:
    """The answer in body. A plain success answer (_SUCCESS_HEAD_RE) is
    left undecoded, so it raises nothing here; any other body is decoded
    now, and raises CodecError if it does not decode."""
    if _SUCCESS_HEAD_RE.match(body):
        return MethodSuccess(raw=body)
    return _decode_response(body)


def _decode_response(body: bytes) -> MethodResponse:
    root = _parse_document(body)
    if root.tag != "methodResponse":
        raise MalformedXml("not a methodResponse document (root <%s>)" % root.tag)
    if len(root) != 1:
        raise MalformedXml("methodResponse must contain exactly one <params> or <fault>")
    child = root[0]
    if child.tag == "params":
        params = _decode_params(child)
        if len(params) != 1:
            raise MalformedXml("response must carry exactly one value, got %d" % len(params))
        return MethodSuccess(params[0], body)
    if child.tag == "fault":
        if len(child) != 1 or child[0].tag != "value":
            raise MalformedXml("<fault> must contain exactly one <value>")
        payload = _decode_value(child[0], 0)
        if not isinstance(payload, dict):
            raise MalformedXml("fault payload is not a struct")
        code = payload.get("faultCode")
        message = payload.get("faultString")
        if isinstance(code, bool) or not isinstance(code, int):
            raise MalformedXml("faultCode missing or not an integer")
        if not isinstance(message, str):
            raise MalformedXml("faultString missing or not a string")
        return MethodFault(code, message, body)
    raise MalformedXml("unexpected <%s> in methodResponse" % child.tag)
