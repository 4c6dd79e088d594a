"""Per-layer metrics from the traced proxy's span dumps.

Each traced phase leaves one dump (see launcher.py). A span's self time is
its duration minus the part of it covered by its child spans. Every metric
is computed on the phase whose traffic moves it; ``REQUIRED_SPANS`` names
the spans each phase must have recorded, so a wrapper that missed its call
site fails the run instead of reporting zero.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from workloads import percentile

# (metric name, unit) in report order
PER_LAYER = (
    ("relay.cpu_us_per_frame", "us"),
    ("relay.cpu_ms_per_mib", "ms/MiB"),
    ("relay.bulk_mib_s", "MiB/s"),
    ("relay.bytes_in", "bytes"),
    ("relay.bytes_out", "bytes"),
    ("relay.accepted_total", "count"),
    ("relay.open_ms_p50", "ms"),
    ("relay.close_ms_p99", "ms"),
    ("master_gateway.passthrough.self_ms_p50", "ms"),
    ("master_gateway.rewrite.self_ms_p50", "ms"),
    ("master_gateway.calls", "count"),
    ("master_gateway.faults", "count"),
    ("slave_gateway.request_topic.self_ms_p50", "ms"),
    ("slave_gateway.start_gateway_ms_p50", "ms"),
    ("xmlrpc_codec.parse_call.us_p50", "us"),
    ("xmlrpc_codec.encode_call.us_p50", "us"),
    ("xmlrpc_codec.parse_response.us_per_kib", "us/KiB"),
    ("xmlrpc_codec.encode_response.us_per_kib", "us/KiB"),
    ("xmlrpc_codec.kib_decoded_per_call", "KiB"),
    ("http11.http_post.ms_p50", "ms"),
    ("http11.http_post.per_call", "count"),
    ("http11.http_post.failed", "count"),
    ("registry.ensure_node.ms_p50", "ms"),
    ("registry.ensure_node.ms_p99", "ms"),
    ("registry.lease_relay.ms_p50", "ms"),
    ("registry.lock.wait_ms_p99", "ms"),
    ("registry.lock.hold_ms_p99", "ms"),
    ("ports.lease.count", "count"),
    ("ports.release.count", "count"),
    ("ports.lease.us_p50", "us"),
    ("app.start_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("direct.gss400_p50_ms", "ms"),
    ("direct.lookup_p50_ms", "ms"),
    ("direct.register_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("attribution.gss400.gap_ms", "ms"),
    ("attribution.gss400.codec_ms", "ms"),
    ("attribution.gss400.master_gateway_self_ms", "ms"),
    ("attribution.gss400.unattributed_ms", "ms"),
    # end-to-end tails from the untraced round, ungated (see run.UNGATED_TAILS)
    ("small_p99_ms", "ms"),
    ("image_p90_ms", "ms"),
    ("gss400_p99_ms", "ms"),
    ("lookup_p99_ms", "ms"),
    ("register_p99_ms", "ms"),
    ("first_msg_p99_ms", "ms"),
)

# phase -> span names (with an optional info prefix) that must appear
REQUIRED_SPANS = {
    "graph-query": (
        ("master_gateway.handle_master_call", "passthrough:"),
        ("xmlrpc_codec.parse_call", ""),
        ("xmlrpc_codec.encode_call", ""),
        ("xmlrpc_codec.parse_response", ""),
        ("xmlrpc_codec.encode_response", ""),
        ("http11.http_post", ""),
        ("http11.XmlRpcClient.call", ""),
    ),
    "graph-churn": (
        ("master_gateway.handle_master_call", "rewrite:"),
        ("slave_gateway.handle_slave_call", "requestTopic"),
        ("slave_gateway.start_gateway", ""),
        ("registry.ensure_node", ""),
        ("registry.lease_relay", ""),
        ("relay.open_relay", ""),
        ("relay.close_relay", ""),
        ("ports.lease", ""),
        ("ports.release", ""),
    ),
    "topic-stream": (
        ("relay.open_relay", ""),
    ),
}

CODEC = ("xmlrpc_codec.parse_call", "xmlrpc_codec.encode_call",
         "xmlrpc_codec.parse_response", "xmlrpc_codec.encode_response")


class Trace:
    """One phase's spans, indexed by id and parent."""

    def __init__(self, dump: dict):
        self.dump = dump
        self.spans = [tuple(s) for s in dump["spans"]]
        self.by_id = {s[0]: s for s in self.spans}
        self.children: Dict[int, List[tuple]] = {}
        self.by_request: Dict[int, List[tuple]] = {}
        for span in self.spans:
            self.children.setdefault(span[1], []).append(span)
            self.by_request.setdefault(span[2], []).append(span)

    def named(self, name: str, info_prefix: str = "") -> List[tuple]:
        return [s for s in self.spans if s[3] == name
                and (not info_prefix or str(s[6]).startswith(info_prefix))]

    def self_ns(self, span) -> int:
        """Duration minus the union of child intervals (clipped to span)."""
        start, end = span[4], span[5]
        covered, cursor = 0, start
        for child in sorted(self.children.get(span[0], ()), key=lambda c: c[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return end - start - covered

    def under(self, span_id: int, name: str) -> bool:
        while span_id:
            span = self.by_id.get(span_id)
            if span is None:
                return False
            if span[3] == name:
                return True
            span_id = span[1]
        return False

    def missing(self, phase: str) -> List[str]:
        return [("%s %s" % (name, info)).strip() for name, info in REQUIRED_SPANS[phase]
                if not self.named(name, info)]


def _ms(spans) -> List[float]:
    return [(s[5] - s[4]) / 1e6 for s in spans]


def _per_kib(spans) -> float:
    kib = sum(s[6] for s in spans) / 1024
    return sum(s[5] - s[4] for s in spans) / 1e3 / kib if kib else float("nan")


def controls(results: Dict[str, object]) -> Dict[str, float]:
    """Generator lateness and the direct-to-master floors: with these a
    reader can tell a slow generator or a slow machine from a proxy change."""
    query, churn = results["graph-query"].samples, results["graph-churn"].samples
    return {
        "gen.late_p99_ms": percentile(results["topic-stream"].samples.get("gen.late", []), 0.99),
        "direct.gss400_p50_ms": percentile(query.get("direct.gss400", []), 0.5),
        "direct.lookup_p50_ms": percentile(query.get("direct.lookup", []), 0.5),
        "direct.register_p50_ms": percentile(churn.get("direct.register", []), 0.5),
    }


def per_layer(traces: Dict[str, Trace], traced: Dict[str, object],
              untraced: Dict[str, object]) -> Dict[str, float]:
    """Every PER_LAYER metric but trace.overhead_pct and the tails. Span
    metrics come from the traced phases; the relay's CPU and bulk rate and
    the controls come from the untraced round, as no span overhead belongs
    in them."""
    query, churn, stream = traces["graph-query"], traces["graph-churn"], traces["topic-stream"]
    m: Dict[str, float] = {}

    stream_values = untraced["topic-stream"].values
    m["relay.cpu_us_per_frame"] = stream_values.get("relay.cpu_us_per_frame", float("nan"))
    m["relay.cpu_ms_per_mib"] = stream_values.get("relay.cpu_ms_per_mib", float("nan"))
    # Bulk MiB/s through the relay settles, run by run, near one of two
    # levels about 1.8x apart on a 2-vCPU VM (where the host places the
    # vCPUs), so it is reported here, without a regression bound.
    m["relay.bulk_mib_s"] = percentile(untraced["topic-stream"].quiet("bulk"), 0.5)
    for key in ("bytes_in", "bytes_out", "accepted_total"):
        m["relay." + key] = sum(r[key] for r in stream.dump["relays"])
    m["relay.open_ms_p50"] = percentile(_ms(churn.named("relay.open_relay")), 0.5)
    m["relay.close_ms_p99"] = percentile(_ms(churn.named("relay.close_relay")), 0.99)

    passthrough = query.named("master_gateway.handle_master_call", "passthrough:")
    m["master_gateway.passthrough.self_ms_p50"] = percentile(
        [query.self_ns(s) / 1e6 for s in passthrough], 0.5)
    m["master_gateway.rewrite.self_ms_p50"] = percentile(
        [churn.self_ns(s) / 1e6 for s in churn.named("master_gateway.handle_master_call", "rewrite:")], 0.5)
    all_master = [s for t in traces.values() for s in t.named("master_gateway.handle_master_call")]
    m["master_gateway.calls"] = len(all_master)
    m["master_gateway.faults"] = sum(s[7] for s in all_master)

    m["slave_gateway.request_topic.self_ms_p50"] = percentile(
        [churn.self_ns(s) / 1e6 for s in churn.named("slave_gateway.handle_slave_call", "requestTopic")], 0.5)
    m["slave_gateway.start_gateway_ms_p50"] = percentile(_ms(churn.named("slave_gateway.start_gateway")), 0.5)

    m["xmlrpc_codec.parse_call.us_p50"] = percentile(
        [x * 1e3 for x in _ms(query.named("xmlrpc_codec.parse_call"))], 0.5)
    m["xmlrpc_codec.encode_call.us_p50"] = percentile(
        [x * 1e3 for x in _ms(query.named("xmlrpc_codec.encode_call"))], 0.5)
    m["xmlrpc_codec.parse_response.us_per_kib"] = _per_kib(query.named("xmlrpc_codec.parse_response"))
    m["xmlrpc_codec.encode_response.us_per_kib"] = _per_kib(query.named("xmlrpc_codec.encode_response"))
    decoded = query.named("xmlrpc_codec.parse_call") + query.named("xmlrpc_codec.parse_response")
    requests = query.named("http11.request")
    m["xmlrpc_codec.kib_decoded_per_call"] = (
        sum(s[6] for s in decoded) / 1024 / len(requests) if requests else float("nan"))

    m["http11.http_post.ms_p50"] = percentile(_ms(query.named("http11.http_post")), 0.5)
    calls = query.named("http11.XmlRpcClient.call")
    dials = [d for d in query.dump["dials"] if query.under(d[0], "http11.XmlRpcClient.call")]
    m["http11.http_post.per_call"] = len(dials) / len(calls) if calls else float("nan")
    m["http11.http_post.failed"] = sum(s[7] for t in traces.values() for s in t.named("http11.http_post"))

    ensure = _ms(churn.named("registry.ensure_node"))
    m["registry.ensure_node.ms_p50"] = percentile(ensure, 0.5)
    m["registry.ensure_node.ms_p99"] = percentile(ensure, 0.99)
    m["registry.lease_relay.ms_p50"] = percentile(_ms(churn.named("registry.lease_relay")), 0.5)
    m["registry.lock.wait_ms_p99"] = percentile([n / 1e6 for n in churn.dump["lock_wait_ns"]], 0.99)
    m["registry.lock.hold_ms_p99"] = percentile([n / 1e6 for n in churn.dump["lock_hold_ns"]], 0.99)

    leases = churn.named("ports.lease")
    m["ports.lease.count"] = len(leases)
    m["ports.release.count"] = len(churn.named("ports.release"))
    m["ports.lease.us_p50"] = percentile([x * 1e3 for x in _ms(leases)], 0.5)

    m["app.start_ms"] = statistics.median(t.dump["app_start_ms"] for t in traces.values())

    m.update(controls(untraced))
    query_result = traced["graph-query"]

    # Where the proxied-minus-direct getSystemState time goes, per request:
    # codec spans plus master_gateway self time; the rest is unattributed.
    # Both latencies come from the traced phase, the spans' own run, over
    # the samples quiet_samples keeps, as the end-to-end metrics do.
    codec_ms, self_ms = [], []
    for span in passthrough:
        if span[6] != "passthrough:getSystemState":
            continue
        request = query.by_request[span[2]]
        codec_ms.append(sum(s[5] - s[4] for s in request if s[3] in CODEC) / 1e6)
        self_ms.append(query.self_ns(span) / 1e6)
    gap = percentile(query_result.quiet("gss400"), 0.5) - percentile(query_result.quiet("direct.gss400"), 0.5)
    m["attribution.gss400.gap_ms"] = gap
    m["attribution.gss400.codec_ms"] = percentile(codec_ms, 0.5)
    m["attribution.gss400.master_gateway_self_ms"] = percentile(self_ms, 0.5)
    m["attribution.gss400.unattributed_ms"] = (
        gap - m["attribution.gss400.codec_ms"] - m["attribution.gss400.master_gateway_self_ms"])
    return m
