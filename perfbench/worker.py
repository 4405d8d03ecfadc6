"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--trace] [--setup-only]

A pass imports ``epschar`` from ``src`` of this checkout, builds the
workload's inputs from the seed, runs every op once in order (one caller,
one op at a time) and prints one JSON line.  Caches start cold, as they
do for a command-line user, and the cost of filling them counts toward
the pass.  ``--setup-only`` stops after the inputs are built.

Untraced passes also report each op's time at reference speed.  On a
shared 2-vCPU 2.1 GHz Xeon virtual machine the same code ran up to 1.6
times slower for spells of seconds to minutes, on both CPUs, with no steal
time or lost CPU time visible inside the machine.  A SpeedProbe therefore
times a fixed pure-Python kernel that uses nothing from epschar every 10 ms,
and scales each op's time by how fast the kernel ran around it.
"""

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from array import array
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


# the kernel's time at reference speed (its typical time on an idle
# 2.1 GHz Xeon core with Python 3.11); reference-speed times are in the
# same units as wall time on that machine
REFERENCE_KERNEL_S = 150e-6
PROBE_INTERVAL_S = 0.01
# an op's speed is taken over its own samples plus this much time before it
PROBE_WINDOW_S = 0.2
PROBE_MIN_SAMPLES = 10


def _kernel():
    """Fraction arithmetic, tuples and a dict, like the package's own work."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        acc += Fraction(i, 7 + i % 5)
        table[(i, i % 3)] = (acc, tuple(range(i % 6)))
    return len(table)


class SpeedProbe:
    """Times _kernel every PROBE_INTERVAL_S seconds of wall time (SIGALRM)."""

    def __init__(self):
        self.ends = array("d")
        self.times = array("d")
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)
        self.spent += end - start

    def start(self, timer=True):
        """Sample now, then every interval unless timer is False.

        A traced pass samples only between ops: a signal arriving while a
        span is being recorded would corrupt the tracer's arrays.
        """
        for _ in range(PROBE_MIN_SAMPLES):
            self.sample()
        if timer:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start, end):
        """Mean speed relative to the reference over [start - window, end]."""
        first = bisect.bisect_left(self.ends, start - PROBE_WINDOW_S)
        first = min(first, len(self.times) - PROBE_MIN_SAMPLES)
        window = self.times[first:]
        return sum(REFERENCE_KERNEL_S / t for t in window) / len(window)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(outputs):
    """sha256 of the verdict outputs, keyed by op and independent of op order."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cli_counts(outputs):
    """Bytes the CLI printed and how often it exited with each status."""
    counts = dict.fromkeys(["cli.emit_bytes"] + ["cli.exit_%d" % k for k in range(4)], 0)
    for out in outputs.values():
        if "status" in out:
            counts["cli.emit_bytes"] += len(out["stdout"].encode())
            key = "cli.exit_%s" % out["status"]
            counts[key] = counts.get(key, 0) + 1
    return counts


def run_pass(workload, seed, trace, setup_only):
    probe = SpeedProbe()
    if not trace:
        probe.start()  # from the start, so that the set-up's speed is known
    try:
        return _run_pass(workload, seed, trace, setup_only, probe)
    finally:
        probe.stop()


def _run_pass(workload, seed, trace, setup_only, probe):
    process_start = time.perf_counter()
    sys.path.insert(0, SRC)
    import epschar

    if not os.path.abspath(epschar.__file__).startswith(SRC + os.sep):
        raise SystemExit("epschar was imported from %s, not from this checkout" % epschar.__file__)
    import workloads

    tracer = None
    if trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
        probe.start(timer=False)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        ops = workloads.WORKLOADS[workload](seed, scratch)
        ready = time.monotonic()
        # the interpreter started before the probe did, so the set-up's
        # speed is taken over the first samples and those of the set-up
        setup_speed = probe.speed(process_start, time.perf_counter())
        if setup_only:
            return {"ready": ready, "ops": len(ops), "setup_speed": setup_speed,
                    "probe_s": probe.spent}
        probe_s = probe.spent
        outputs, latencies, ref_latencies = {}, [], []
        wrong = failed = 0
        rss_setup = _peak_rss_mb()
        rss_by_tag = {}
        loop_start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                probe.sample()
            span = tracer.begin_op(i) if tracer else None
            rss_before = _peak_rss_mb() if tracer else 0.0
            spent = probe.spent
            t0 = time.perf_counter()
            try:
                out, bad = op.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                out, bad = {"failed": True}, False
            t1 = time.perf_counter()
            latencies.append(t1 - t0 - (probe.spent - spent))
            ref_latencies.append(latencies[-1] * probe.speed(t0, t1))
            if tracer:
                tracer.end_op(span)
                rss_by_tag[op.tag] = rss_by_tag.get(op.tag, 0.0) + _peak_rss_mb() - rss_before
            outputs[op.key] = out
            wrong += bool(bad)
        loop_s = time.perf_counter() - loop_start
        result = {
            "ready": ready,
            "ops": len(ops),
            "failed": failed,
            "wrong": wrong,
            "latencies_s": latencies,
            "ref_latencies_s": ref_latencies,
            "setup_speed": setup_speed,
            "probe_s": probe_s,
            "loop_s": loop_s,
            "peak_rss_mb": _peak_rss_mb(),
            "digest": digest(outputs),
        }
        if tracer:
            probe.stop()
            tracer.uninstall()
            layer = tracer.metrics()
            layer.update(cli_counts(outputs))
            growth = _peak_rss_mb() - rss_setup
            layer["rss.p101_op_share"] = rss_by_tag.get("p=101", 0.0) / growth if growth else 0.0
            layer["trace.accounted_share"] = tracer.self_times()[2] / loop_s
            result["layer"] = layer
            result["restored"] = tracer.restored()
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.trace, args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
