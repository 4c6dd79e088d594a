"""The traced benchmark launcher patches rosproxy by name; a rename that
breaks it must fail here, not only in a traced benchmark run."""

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
