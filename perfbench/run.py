"""epschar benchmark: time to a correct verdict on three workloads.

    python3 perfbench/run.py --workload {gauss,sweep,cli} --seed N \\
        --seconds S --trace {0,1}

Every pass of a workload runs in a fresh interpreter (perfbench/worker.py),
so caches start cold as they do for a command-line user.  An untraced run
first times the set-up alone a few times, then repeats passes while
another pass still fits in S seconds (at least one), pools the ops of all
passes and reports the end-to-end metrics of BENCHMARK.json.  Times are at
reference speed (see worker.py); the `detail` line also gives them by the
wall clock.  A traced run makes one untraced and one traced pass and
reports the per-layer metrics.  Every verdict is checked against its known
answer; the run is incorrect if one differs, if an op raised, or if the
outputs' digest differs from the one recorded in perfbench/baseline.json
for this workload and seed.  The last line of standard output is the
result as one JSON object; the lines before it are for people.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BASELINE = os.path.join(HERE, "baseline.json")

WORKLOADS = ("gauss", "sweep", "cli")
# set-up-only interpreters per untraced run, besides the passes themselves
SETUP_PROBES = 3
# a run must end within 180 s; no pass may outlive this
RUN_LIMIT_S = 170.0
# the traced pass must attribute at least this share of its op time to spans
MIN_ACCOUNTED_SHARE = 0.95


class PassError(Exception):
    pass


def spawn(workload, seed, trace=False, setup_only=False, timeout=RUN_LIMIT_S):
    """Run one worker pass; returns its result with setup_s and wall_s added."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise PassError("pass did not finish within %.0f s" % timeout) from exc
    if proc.returncode != 0:
        raise PassError("pass exited with %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - start - result["probe_s"]
    result["setup_s"] = result["raw_setup_s"] * result["setup_speed"]
    result["wall_s"] = time.monotonic() - start
    return result


def percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


def recorded_digest(workload, seed):
    if not os.path.exists(BASELINE):
        return None
    with open(BASELINE, encoding="utf-8") as handle:
        return json.load(handle).get("digests", {}).get(workload, {}).get(str(seed))


def untraced_run(workload, seed, seconds):
    start = time.monotonic()
    setups = [spawn(workload, seed, setup_only=True) for _ in range(SETUP_PROBES)]
    n_ops = setups[0]["ops"]
    passes, attempted, failed, died = [], 0, 0, []
    while True:
        elapsed = time.monotonic() - start
        try:
            result = spawn(workload, seed, timeout=max(10.0, RUN_LIMIT_S - elapsed))
        except PassError as exc:
            # a pass that crashed or hung fails every op it held
            died.append(str(exc))
            attempted += n_ops
            failed += n_ops
            break
        passes.append(result)
        setups.append(result)
        attempted += result["ops"]
        failed += result["failed"]
        if time.monotonic() - start + result["wall_s"] > seconds:
            break
    latencies = sorted(s * 1000.0 for p in passes for s in p["ref_latencies_s"])
    raw = sorted(s * 1000.0 for p in passes for s in p["latencies_s"])
    completed = sum(p["ops"] - p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    expected = recorded_digest(workload, seed)
    digest_ok = len(digests) == 1 and expected in (None, digests[0])
    metrics = {}
    if passes:
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "verdicts_per_s": (completed / sum(latencies) * 1000.0, "1/s"),
            "verdict_ms_p50": (statistics.median(latencies), "ms"),
            "verdict_ms_p90": (percentile(latencies, 0.9), "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    detail = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "setups": len(setups),
        "latency_samples": len(latencies),
        "wall_clock": {
            "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "verdicts_per_s": completed / sum(raw) * 1000.0 if raw else None,
            "verdict_ms_p50": statistics.median(raw) if raw else None,
            "verdict_ms_p90": percentile(raw, 0.9) if raw else None,
        },
        "speed": statistics.median(p["setup_speed"] for p in setups),
        "samples_beyond_p90": sum(
            1 for x in latencies if x > metrics.get("verdict_ms_p90", (0,))[0]
        ),
        "wrong_verdicts": wrong,
        "failed_share": failed / attempted if attempted else 1.0,
        "digest": digests[0] if len(digests) == 1 else digests,
        "digest_recorded": expected,
        "pass_errors": died,
    }
    correct = bool(passes) and not died and wrong == 0 and failed == 0 and digest_ok
    return correct, attempted, failed, metrics, detail


def traced_run(workload, seed, per_layer):
    start = time.monotonic()
    plain = spawn(workload, seed)
    traced = spawn(workload, seed, trace=True, timeout=RUN_LIMIT_S - (time.monotonic() - start))
    layer = dict(traced["layer"])
    layer["trace.overhead_ratio"] = sum(traced["ref_latencies_s"]) / sum(plain["ref_latencies_s"])
    missing = [m["name"] for m in per_layer if m["name"] not in layer]
    metrics = {m["name"]: (layer.get(m["name"], 0), m["unit"]) for m in per_layer}
    expected = recorded_digest(workload, seed)
    checks = {
        "verdicts": plain["wrong"] == 0 and traced["wrong"] == 0,
        "ops_completed": plain["failed"] == 0 and traced["failed"] == 0,
        "same_outputs_traced": plain["digest"] == traced["digest"],
        "recorded_digest": expected in (None, plain["digest"]),
        "originals_restored": traced["restored"],
        "every_metric_emitted": not missing,
        "spans_account_for_ops": MIN_ACCOUNTED_SHARE
        <= layer["trace.accounted_share"]
        <= 1.0 + 1e-6,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "checks": checks,
        "missing_metrics": missing,
        "untraced_loop_s": plain["loop_s"],
        "traced_loop_s": traced["loop_s"],
        "digest": plain["digest"],
    }
    attempted = plain["ops"] + traced["ops"]
    failed = plain["failed"] + traced["failed"]
    return all(checks.values()), attempted, failed, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "epschar", "__init__.py")):
        sys.exit("no epschar sources under %s" % os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)

    try:
        if args.trace:
            outcome = traced_run(args.workload, args.seed, bench["per_layer"])
        else:
            outcome = untraced_run(args.workload, args.seed, args.seconds)
    except PassError as exc:
        sys.exit(str(exc))
    correct, attempted, failed, metrics, detail = outcome
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if metrics and sorted(metrics) != sorted(declared):
        sys.exit("metrics %s differ from BENCHMARK.json %s" % (sorted(metrics), sorted(declared)))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (name, value, unit))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
