"""rosproxy benchmark: what the proxy costs the nodes on both sides.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The proxy runs unmodified in its own process
(``python3 -m rosproxy.cli`` with default flags except addresses and the
lease range); this process is the single load process. It holds the stub
master, the talkers, subscribers and callers (see peers.py), with at most
two threads and two concurrent actors, matching a 2-CPU machine.

Workloads (workloads.py has the traffic): ``topic-stream``, ``graph-query``
and ``graph-churn``. Every end-to-end metric must come out of every run, so
a run drives all three phases four times, each time against a freshly
spawned proxy: the named workload gets half of ``--seconds`` and the other
two a quarter each.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced round of the three phases over half the time, then every phase
for a sixth under perfbench/launcher.py, which wraps each layer's public
functions in spans, and prints the per-layer metrics (layers.py): span
metrics from the traced phases; the tails, the relay's CPU and bulk rate
and the controls from the untraced round; and ``trace.overhead_pct``
(traced against untraced headline metric of the named workload).

The line before the last holds the interpreter version, nproc, sample
counts, the controls (generator lateness, direct-to-master floors) and the
failure notes. The last line is the result object. Any failed check counts
as a failed operation and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import gc
import json
import math
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from layers import PER_LAYER, Trace, controls, per_layer
from master import StubMaster
from peers import EXTERNAL_HOST, PROXY_INTERNAL_HOST, ADVERTISED_HOST, DialGuard, XmlRpcServer
from workloads import STEAL_PERIOD_S, Env, PhaseResult, Tally, percentile, run_churn, run_query, run_stream

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("topic-stream", "graph-query", "graph-churn")
LEASES = 100                 # the proxy's default range size
ROUNDS = 4
SPAWN_TIMEOUT = 30.0
STOP_TIMEOUT = 10.0
KILL_TIMEOUT = 5.0
PHASE_SLACK = 60.0           # beyond its duration, after which a phase counts as hung

END_TO_END = (
    ("setup_s", "s"),
    ("small_p50_ms", "ms"),
    ("image_p50_ms", "ms"),
    ("gss400_p50_ms", "ms"),
    ("param_blob_p50_ms", "ms"),
    ("lookup_p50_ms", "ms"),
    ("register_p50_ms", "ms"),
    ("first_msg_p50_ms", "ms"),
)
# Tail percentiles: CPU steal on a busy shared host lands in the slow tail,
# and with 5-25% steal these spread over ten runs by more than 0.25 of
# their median, the widest regression bound the benchmark uses, so they
# are reported with the per-layer metrics, ungated, from untraced phases.
UNGATED_TAILS = ("small_p99_ms", "image_p90_ms", "gss400_p99_ms", "lookup_p99_ms",
                 "register_p99_ms", "first_msg_p99_ms")

# end-to-end metric -> (phase, sample set, quantile); see quiet_samples
FROM_SAMPLES = {
    "small_p50_ms": ("topic-stream", "small", 0.5),
    "small_p99_ms": ("topic-stream", "small", 0.99),
    "image_p50_ms": ("topic-stream", "image", 0.5),
    "image_p90_ms": ("topic-stream", "image", 0.9),
    "gss400_p50_ms": ("graph-query", "gss400", 0.5),
    "gss400_p99_ms": ("graph-query", "gss400", 0.99),
    "param_blob_p50_ms": ("graph-query", "param_blob", 0.5),
    "lookup_p50_ms": ("graph-query", "lookup", 0.5),
    "lookup_p99_ms": ("graph-query", "lookup", 0.99),
    "register_p50_ms": ("graph-churn", "register", 0.5),
    "register_p99_ms": ("graph-churn", "register", 0.99),
    "first_msg_p50_ms": ("graph-churn", "first_msg", 0.5),
    "first_msg_p99_ms": ("graph-churn", "first_msg", 0.99),
}

HEADLINE = {"topic-stream": "small_p50_ms", "graph-query": "gss400_p50_ms",
            "graph-churn": "register_p50_ms"}


# With two or more CPUs the proxy gets one to itself and the load process
# another, so run-to-run placement by the scheduler does not move results.
_CPUS = sorted(os.sched_getaffinity(0))
LOAD_CPUS = {_CPUS[0]} if len(_CPUS) > 1 else None
PROXY_CPUS = {_CPUS[1]} if len(_CPUS) > 1 else None


def machine_ticks():
    """(steal, total) CPU ticks of the whole machine, from /proc/stat. Steal
    is time the hypervisor gave this machine's CPUs to someone else."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


_PRCTL = ctypes.CDLL(None, use_errno=True).prctl
_PR_SET_PDEATHSIG = 1


def _in_child() -> None:
    """Runs in the forked proxy before exec (no other thread exists then):
    pin it, and have the kernel kill it if this process dies first, so a
    killed benchmark never leaves a proxy holding the ports."""
    _PRCTL(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if PROXY_CPUS:
        os.sched_setaffinity(0, PROXY_CPUS)


async def sample_steal(marks: list, period: float = STEAL_PERIOD_S) -> None:
    """Append (perf_counter_ns, steal, total) machine ticks until cancelled."""
    while True:
        marks.append((time.perf_counter_ns(),) + machine_ticks())
        await asyncio.sleep(period)


class SetupError(Exception):
    """The benchmark cannot run here (missing sources, ports unavailable)."""


def choose_ports():
    """Main port and lease range outside the kernel's ephemeral range, so
    no client socket of this machine can take a port the proxy will lease."""
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range") as f:
            low, high = (int(x) for x in f.read().split())
    except (OSError, ValueError):
        low, high = 32768, 60999
    if low - 200 >= 1024:
        main = low - 200
    elif high + 100 + LEASES <= 65535:
        main = high + 100
    else:
        raise SetupError("no room for %d ports outside the ephemeral range %d-%d"
                         % (LEASES + 1, low, high))
    window = (main + 1, main + LEASES)
    for port in range(main, window[1] + 1):
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind(("", port))
            except OSError as exc:
                raise SetupError("port %d is taken: %s" % (port, exc))
    return main, window


class ProxyProcess:
    """The proxy under test, in its own process; every wait on it is bounded."""

    def __init__(self, argv, log_path: Path, main_port: int):
        self.argv = argv
        self.log_path = log_path
        self.main_port = main_port
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn; returns seconds from spawn to the main port accepting."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("ROSPROXY_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        with open(self.log_path, "wb") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen(self.argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                         stdout=log, stderr=subprocess.STDOUT, preexec_fn=_in_child)
        while True:
            try:
                socket.create_connection((PROXY_INTERNAL_HOST, self.main_port), timeout=1.0).close()
                return time.perf_counter() - start
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() - start > SPAWN_TIMEOUT:
                self.kill()
                raise SetupError("proxy did not start: %s" % self.log_tail())
            time.sleep(0.001)

    async def stop(self) -> Optional[int]:
        """SIGTERM and wait; None if it had to be killed."""
        # The port accepts before the signal handlers are in place; the
        # "proxy up" line is logged after them.
        deadline = time.perf_counter() + SPAWN_TIMEOUT
        while not self._logged_up() and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + STOP_TIMEOUT
        while self.proc.poll() is None and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        if self.proc.poll() is None:
            self.kill()
            return None
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            try:
                self.proc.wait(KILL_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass

    def _logged_up(self) -> bool:
        try:
            return b"proxy up" in self.log_path.read_bytes()
        except OSError:
            return False

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-600:]
        except OSError:
            return "(no log)"


def plan(workload: str, seconds: float, trace: bool):
    """(phase, seconds, traced) in run order. Untraced, the phases repeat
    in ROUNDS rounds, so a minute-long burst of machine noise hits part of
    every phase rather than the whole of one. Traced, one untraced round
    over half the time comes first, then one traced round."""

    def untraced_round(share: float):
        return [(p, share * (0.5 if p == workload else 0.25), False) for p in WORKLOADS]

    if not trace:
        return [step for _ in range(ROUNDS) for step in untraced_round(seconds / ROUNDS)]
    return untraced_round(seconds / 2) + [(p, seconds / 6, True) for p in WORKLOADS]


class Bench:
    def __init__(self, args, main_port: int, window):
        self.args = args
        self.main_port = main_port
        self.window = window
        self.tally = Tally()
        self.setups = []
        self.steal_pct = {}
        self.flags = ["--advertised-host", ADVERTISED_HOST, "--port", str(main_port),
                      "--port-range", "%d-%d" % window]

    def proxy(self, name: str, spans: Optional[Path]) -> ProxyProcess:
        if spans is None:
            argv = [sys.executable, "-m", "rosproxy.cli"]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "launcher.py"), "--spans", str(spans)]
        return ProxyProcess(argv + self.flags, OUT_DIR / ("proxy-%s.log" % name), self.main_port)

    async def stop(self, proxy: ProxyProcess, what: str) -> bool:
        self.tally.attempted += 1
        code = await proxy.stop()
        if code != 0:
            self.tally.fail("%s: proxy %s after SIGTERM: %s" % (
                what, "hung and was killed" if code is None else "exited %d" % code, proxy.log_tail()))
        return code == 0

    async def phase(self, env: Env, name: str, seconds: float, traced: bool):
        spans = OUT_DIR / ("spans-%s-%d.json" % (name, os.getpid())) if traced else None
        proxy = self.proxy(name, spans)
        try:
            return await self._phase(env, proxy, name, seconds, spans)
        finally:
            proxy.kill()

    async def _phase(self, env: Env, proxy: ProxyProcess, name: str, seconds: float, spans):
        traced = spans is not None
        setup = proxy.start()
        if not traced:
            self.setups.append(setup)
        env.master.reset()
        runner = {"topic-stream": lambda: run_stream(env, seconds, proxy.proc.pid),
                  "graph-query": lambda: run_query(env, seconds),
                  "graph-churn": lambda: run_churn(env, seconds)}[name]
        steal0, ticks0 = machine_ticks()
        marks = []
        sampler = asyncio.ensure_future(sample_steal(marks))
        gc.collect()
        gc.disable()  # keep the load process's own collector pauses out of the timings
        try:
            result = await asyncio.wait_for(runner(), seconds + PHASE_SLACK)
        except asyncio.TimeoutError:
            self.tally.fail("%s: phase still running %.0fs past its end" % (name, PHASE_SLACK))
            result = PhaseResult()
        finally:
            gc.enable()
            sampler.cancel()
        result.steal_marks = marks
        steal1, ticks1 = machine_ticks()
        self.steal_pct.setdefault(name + (" traced" if traced else ""), []).append(
            round(100.0 * (steal1 - steal0) / max(1, ticks1 - ticks0), 2))
        await env.master.drain(STOP_TIMEOUT)
        stopped = await self.stop(proxy, name)
        trace = None
        if traced and stopped:
            with open(spans) as f:
                trace = Trace(json.load(f))
            spans.unlink()
            for missing in trace.missing(name):
                self.tally.fail("%s: no %s span recorded; a wrapper missed its call site" % (name, missing))
        return result, trace

    async def run(self):
        guard = DialGuard()
        master = StubMaster(self.args.seed, guard, self.window)
        server = await XmlRpcServer(master.handle).start(EXTERNAL_HOST)
        env = Env(self.args.seed, master, server.uri(EXTERNAL_HOST), guard, self.main_port,
                  self.window, self.tally)
        self.flags += ["--master-uri", env.master_uri]
        results: Dict[bool, Dict[str, PhaseResult]] = {False: {}, True: {}}
        traces: Dict[str, Trace] = {}
        try:
            for name, seconds, traced in plan(self.args.workload, self.args.seconds, self.args.trace):
                result, trace = await self.phase(env, name, seconds, traced)
                results[traced].setdefault(name, PhaseResult()).merge(result)
                if trace is not None:
                    traces[name] = trace
        finally:
            await server.close()
        for violation in guard.violations + master.violations + master.errors:
            self.tally.fail(violation)
        return results[False], results[True], traces


def sample_metric(name: str, results: Dict[str, PhaseResult]) -> float:
    """One FROM_SAMPLES metric: a percentile over the samples quiet_samples keeps."""
    phase, key, q = FROM_SAMPLES[name]
    return percentile(results[phase].quiet(key), q)


def end_to_end(results: Dict[str, PhaseResult], setups) -> Dict[str, float]:
    metrics = {"setup_s": statistics.median(setups) if setups else float("nan")}
    for name, _ in END_TO_END[1:]:
        metrics[name] = sample_metric(name, results)
    return metrics


def relay_counter_checks(tally: Tally, metrics, stream: PhaseResult) -> None:
    """The relays' own byte counters must match what the peers sent."""
    expected = {"relay.bytes_out": stream.values.get("stream.talker_bytes"),
                "relay.bytes_in": stream.values.get("stream.viewer_bytes"),
                "relay.accepted_total": 2}
    for name, value in expected.items():
        if metrics.get(name) != value:
            tally.fail("%s is %s, the peers account for %s" % (name, metrics.get(name), value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rosproxy" / "app.py").is_file():
        print("perfbench: no rosproxy sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if LOAD_CPUS:
        os.sched_setaffinity(0, LOAD_CPUS)
    sys.setswitchinterval(0.0005)  # the stream thread must not wait 5 ms for the GIL
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        main_port, window = choose_ports()
        bench = Bench(args, main_port, window)
        untraced, traced, traces = asyncio.run(bench.run())
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    tally = bench.tally
    # [samples kept, samples taken] per metric
    samples = {name: [len(untraced[phase].quiet(key)), len(untraced[phase].samples.get(key, []))]
               for name, (phase, key, _) in FROM_SAMPLES.items()}
    if args.trace:
        values = {}
        if len(traces) == len(WORKLOADS):
            values = per_layer(traces, traced, untraced)
            values.update((n, sample_metric(n, untraced)) for n in UNGATED_TAILS)
            relay_counter_checks(tally, values, traced["topic-stream"])
            headline = HEADLINE[args.workload]
            plain = sample_metric(headline, untraced)
            values["trace.overhead_pct"] = (sample_metric(headline, traced) - plain) / plain * 100
        units = dict(PER_LAYER)
    else:
        values, units = end_to_end(untraced, bench.setups), dict(END_TO_END)
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, float("nan"))
        if math.isnan(value):
            tally.fail("metric %s has no value" % name)
            value = None
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "env": {"python": platform.python_version(), "nproc": len(_CPUS),
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "main_port": main_port, "lease_range": "%d-%d" % window,
                "phases": plan(args.workload, args.seconds, bool(args.trace))},
        "controls": {k: None if math.isnan(v) else v for k, v in controls(untraced).items()},
        "machine_steal_pct": bench.steal_pct,
        "samples": samples,
        "setup_samples_s": bench.setups,
        "notes": tally.notes,
    }))
    for note in tally.notes:
        print("perfbench: FAILED %s" % note, file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
