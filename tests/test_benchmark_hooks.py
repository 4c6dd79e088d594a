"""The traced benchmark launcher patches rosproxy by name; a rename that
breaks it must fail here, not only in a traced benchmark run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_launcher_installs_its_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    done = subprocess.run(
        [sys.executable, "-c", "import launcher; launcher.install(launcher.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


# One traced proxy in its own process, as perfbench's launcher runs it: spans
# installed, every outbound connection dialed through the tracer, a
# kept-alive stub master upstream. The spans are checked with perfbench's
# own layers.Trace, so a renamed or bypassed call site shows here.
TRACED_RUN = """
import asyncio, json
import launcher, layers
from master import StubMaster
from peers import DialGuard, HttpConnection, XmlRpcServer, decode_response, encode_call
from rosproxy.app import ProxyApp
from helpers import make_config

async def main():
    tracer = launcher.Tracer()
    launcher.install(tracer)
    stub = StubMaster(1, DialGuard(), (0, 0))
    master = await XmlRpcServer(stub.handle).start("127.0.0.1")
    app = ProxyApp(make_config(master.uri("127.0.0.1")), dial=tracer.dial)
    await app.start()
    client = await HttpConnection("127.0.0.1", app.config.main_port).open()
    bodies = [await client.post(encode_call(method, ["/probe"] + args))
              for method, args in [("getSystemState", []),
                                   ("lookupNode", [stub.node_names[0]]),
                                   ("lookupNode", [stub.node_names[1]])]]
    answers = [decode_response(body) for body in bodies]
    await client.close()
    await app.stop()
    await master.close()
    trace = layers.Trace({"spans": tracer.spans, "dials": tracer.dials})
    print(json.dumps({
        "codes": [answer[0] for answer in answers],
        "gss_verbatim": bodies[0] == stub.answers["getSystemState", ""][1],
        "missing": trace.missing("graph-query"),
        "calls": len(trace.named("http11.XmlRpcClient.call")),
        "dials": sum(trace.under(d[0], "http11.XmlRpcClient.call") for d in tracer.dials),
    }))

asyncio.run(main())
"""


def test_traced_proxy_records_every_graph_query_span():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench", "tests"]))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [1, 1, 1]
    assert result["gss_verbatim"]  # the stub master's own bytes, not a re-encoding
    assert result["missing"] == []
    assert result["calls"] == 3
    assert 0 < result["dials"] < result["calls"]
