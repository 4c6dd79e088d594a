"""Fault injection at teardown: closing a port ends its connections.

Idle keep-alive peers and a client that stops reading must not hold up a
node restart, a purge or shutdown, on any Python the project supports. A
restart that gets its gateway port back keeps its listener, and a port
closing just after a connect ends that connection too.
"""

import os
import subprocess
import sys

import pytest

import teardown_probe
from helpers import interpreter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


async def test_teardown_with_idle_and_slow_peers():
    report = await teardown_probe.probe()
    for step in ("restart_s", "purge_s", "stop_s"):
        assert report[step] < teardown_probe.STEP_LIMIT_S, report
    assert report["gateway_kept"]
    assert report["late_accept_failed_turns"] == []
    assert report["pooled_at_start"] > 0
    assert report["pooled_after_stop"] == 0
    assert report["executor_jobs_after_start"] == 0
    assert report["leases"] == []
    assert report["target_connections"] == 0
    assert report["pending_tasks"] == []
    fds_before, fds_after = report["fds"]
    assert fds_after == fds_before
    assert report["ok"]


@pytest.mark.parametrize(
    "name", ["sys.executable", "python3.10", "python3.11", "python3.12", "python3.13"]
)
def test_teardown_probe_on_each_python(name):
    exe = sys.executable if name == "sys.executable" else interpreter(name)
    if exe is None:
        pytest.skip("%s does not start" % name)
    proc = subprocess.run(
        [exe, os.path.join(ROOT, "tests", "teardown_probe.py")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
