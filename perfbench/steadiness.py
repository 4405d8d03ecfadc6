"""Steadiness report: how far each end-to-end metric spreads between runs.

    python3 perfbench/steadiness.py [--workloads gauss,sweep,cli]
        [--seeds 1-10] [--rounds 1] [--write-baseline]

Runs perfbench/run.py once per workload and seed (and round), then prints
for every end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json.  A
spread below a third of the bound is marked "steady".  With several rounds
it also prints how far each round's median moved from the first round's,
in the metric's worse direction.

--write-baseline also makes one traced run per workload and records in
perfbench/baseline.json the machine, the workload sizes, the seeds, every
metric's median and the output digest of every workload and seed; run.py
then fails a run whose outputs differ from the recorded digest.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BASELINE = os.path.join(HERE, "baseline.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace=0):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(
            "%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr)
        )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return result, detail, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def drift(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    summary, digests, details, all_ok = {}, {}, {}, True
    for workload in workloads:
        rounds = []
        for r in range(args.rounds):
            values = {name: [] for name in metrics}
            for seed in seeds:
                result, detail, wall = run_once(workload, seed, seconds)
                ok = result["correct"] and result["failed"] == 0
                all_ok = all_ok and ok
                digests.setdefault(workload, {})[str(seed)] = detail["digest"]
                details[workload] = detail
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
                print(
                    "%s round %d seed %d: correct=%s passes=%d wall=%.1fs speed=%.2f %s"
                    % (workload, r + 1, seed, ok, detail["passes"], wall, detail["speed"],
                       " ".join("%s=%.5g" % (n, v[-1]) for n, v in values.items())),
                    flush=True,
                )
            rounds.append(values)
        print("\n%s (%d seeds, %d round(s), %g s runs)"
              % (workload, len(seeds), args.rounds, seconds))
        print("  %-16s %12s %12s %12s %8s %6s"
              % ("metric", "median", "q1", "q3", "spread", "bound"))
        summary[workload] = {}
        for name, m in metrics.items():
            med, q1, q3, sp = spread(rounds[0][name])
            verdict = "steady" if sp < m["bound"] / 3 else "UNSTEADY"
            if name != "setup_s" and sp > m["bound"]:
                all_ok = False
            moved = [drift(med, statistics.median(rd[name]), m["better"]) for rd in rounds[1:]]
            if any(d > m["bound"] for d in moved):
                all_ok = False
            extra = ""
            if moved:
                extra = "  later medians worse by %s" % ", ".join("%+.3f" % d for d in moved)
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %6.2f  %s%s"
                  % (name, med, q1, q3, sp, m["bound"], verdict, extra))
            summary[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": sp, "unit": m["unit"]
            }

    if args.write_baseline:
        layers = {}
        for workload in workloads:
            result, detail, _ = run_once(workload, seeds[0], seconds, trace=1)
            all_ok = all_ok and result["correct"]
            layers[workload] = {
                "seed": seeds[0],
                "checks": detail["checks"],
                "metrics": {n: v["value"] for n, v in result["metrics"].items()},
            }
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import workloads as wl

        baseline = {
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "processor": platform.processor() or platform.machine(),
            },
            "run_seconds": seconds,
            "seeds": seeds,
            "workloads": {
                w["name"]: {
                    "why": w["why"],
                    "ops_per_pass": details[w["name"]]["latency_samples"]
                    // details[w["name"]]["passes"],
                    "passes_last_run": details[w["name"]]["passes"],
                }
                for w in bench["workloads"]
                if w["name"] in workloads
            },
            "sizes": {
                "gauss_ops_per_small_field": {"%d^%d" % f: n for f, n in wl.SMALL_FIELDS.items()},
                "gauss_large_primes": list(wl.LARGE_PRIMES),
                "sweep_corpus": {"count": wl.SWEEP_CORPUS_COUNT, "seed": wl.SWEEP_CORPUS_SEED},
                "cli_corpus_specs": len(wl.CORPUS_DSL) + 1,
                "cli_commands": [" ".join(c) for c in wl.CLI_COMMANDS],
                "cli_large_kummer": wl.LARGE_KUMMER,
            },
            "end_to_end": summary,
            "per_layer": layers,
            "digests": digests,
        }
        with open(BASELINE, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote", BASELINE)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
