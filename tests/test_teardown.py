"""Fault injection at teardown: closing a port ends its connections.

Idle keep-alive peers and a client that stops reading must not hold up a
node restart, a purge or shutdown, on any Python the project supports.
"""

import glob
import os
import shutil
import subprocess
import sys

import pytest

import teardown_probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


async def test_teardown_with_idle_and_slow_peers():
    report = await teardown_probe.probe()
    for step in ("restart_s", "purge_s", "stop_s"):
        assert report[step] < teardown_probe.STEP_LIMIT_S, report
    assert report["leases"] == []
    assert report["target_connections"] == 0
    assert report["pending_tasks"] == []
    fds_before, fds_after = report["fds"]
    assert fds_after == fds_before
    assert report["ok"]


def _interpreter(name):
    """The first of the python3.X on PATH and pyenv's python3.X builds that
    starts. A pyenv shim for a version that is installed but not selected
    exits 127, so the builds are tried by full path too."""
    pyenv = os.path.expanduser("~/.pyenv/versions/%s.*/bin/%s" % (name[len("python"):], name))
    for exe in [shutil.which(name)] + sorted(glob.glob(pyenv)):
        if exe and subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=30).returncode == 0:
            return exe
    return None


@pytest.mark.parametrize(
    "name", ["sys.executable", "python3.10", "python3.11", "python3.12", "python3.13"]
)
def test_teardown_probe_on_each_python(name):
    exe = sys.executable if name == "sys.executable" else _interpreter(name)
    if exe is None:
        pytest.skip("%s does not start" % name)
    proc = subprocess.run(
        [exe, os.path.join(ROOT, "tests", "teardown_probe.py")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
