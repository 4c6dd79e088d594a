"""End-to-end scenarios: the same node code run direct and proxied.

The proxied run must deliver the same bytes as the direct run while
keeping the master's view of the internal node confined to advertised
addresses — that pair of properties is the whole point of the proxy.
"""

import os
import subprocess

import pytest

from rosproxy.harness import runner
from rosproxy.harness.scenarios import (
    ADVERTISED_HOST,
    ProxyUnderTest,
    scenario_pubsub,
    scenario_service,
    scenario_stale,
)

from helpers import interpreter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


async def test_pubsub_direct():
    report = await scenario_pubsub("direct")
    assert report.ok, report.lines()
    assert report.details["delivered"] == "true"


async def test_pubsub_proxied():
    report = await scenario_pubsub("proxied")
    assert report.ok, report.lines()
    assert report.details["delivered"] == "true"
    assert report.details["dial_violations"] == "0"
    assert report.details["leases_final"] == "0"


async def test_pubsub_payloads_identical_across_modes():
    direct = await scenario_pubsub("direct")
    proxied = await scenario_pubsub("proxied")
    assert direct.ok and proxied.ok
    assert direct.details["payload_sha256"] == proxied.details["payload_sha256"]


async def test_pubsub_listener_first_proxied():
    report = await scenario_pubsub("proxied", listener_first=True)
    assert report.ok, report.lines()


async def test_service_direct_and_proxied_echo():
    direct = await scenario_service("direct")
    proxied = await scenario_service("proxied")
    assert direct.ok, direct.lines()
    assert proxied.ok, proxied.lines()
    assert direct.details["echo_ok"] == proxied.details["echo_ok"] == "true"
    # the proxied registration hides the real endpoint
    assert ADVERTISED_HOST in proxied.details["service_api"]
    assert ADVERTISED_HOST not in direct.details["service_api"]


async def test_service_proxied_unregister_needs_cleanup():
    report = await scenario_service("proxied")
    assert report.ok, report.lines()
    assert report.details["unregister_left_stale"] == "true"
    assert report.details["cleanup_removed"] == "/echoer"
    assert report.details["master_empty_after"] == "true"


async def test_stale_direct():
    report = await scenario_stale("direct")
    assert report.ok, report.lines()
    assert report.details["master_clean"] == "true"


async def test_stale_proxied_timing_and_cleanup():
    report = await scenario_stale("proxied", ping_interval=0.3, ping_failures=3)
    assert report.ok, report.lines()
    refusal = float(report.details["refusal_after_s"])
    assert 0.3 * 2 <= refusal <= 0.3 * 4 + 0.3
    assert report.details["master_clean"] == "true"
    assert report.details["leases_final"] == "0"


async def test_a_leaked_lease_fails_every_proxied_scenario(monkeypatch):
    stop = ProxyUnderTest.stop

    async def leaky_stop(self):
        await stop(self)
        self.allocator.lease("leak", "127.0.1.1:1", "/leaker")

    monkeypatch.setattr(ProxyUnderTest, "stop", leaky_stop)
    for report in (
        await scenario_pubsub("proxied"),
        await scenario_service("proxied"),
        await scenario_stale("proxied", ping_interval=0.3),
    ):
        assert not report.ok, report.lines()
        assert report.details["leases_final"] == "1"
        assert [f for f in report.failures if "leaked" in f and "/leaker" in f], report.lines()


async def test_port_assignments_replay_identically():
    first = await scenario_pubsub("proxied")
    second = await scenario_pubsub("proxied")
    assert first.ok and second.ok
    assert first.details["port_assignments"] == second.details["port_assignments"]


def test_runner_cli_direct_pubsub(capsys):
    rc = runner.main(["run", "pubsub", "--direct"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenario=pubsub" in out
    assert "mode=direct" in out
    assert "ok=true" in out


def test_runner_cli_proxied_is_default(capsys):
    rc = runner.main(["run", "service"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mode=proxied" in out


def test_runner_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit) as exc:
        runner.main(["run", "warp-drive"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["python3.10", "python3.11", "python3.12", "python3.13"])
def test_proxied_scenarios_on_each_python(name):
    exe = interpreter(name)
    if exe is None:
        pytest.skip("%s does not start" % name)
    for scenario in ("pubsub", "service"):
        proc = subprocess.run(
            [exe, "-m", "rosproxy.cli", "harness", "run", scenario, "--proxied"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ok=true" in lines and "leases_final=0" in lines, proc.stdout
