"""Traced-gate shares: perfbench's traced run, repeated, against its floor.

perfbench's traced run fails its spans_account_for_ops check when
trace.accounted_share, the share of the traced op time that falls inside
package spans, is under MIN_ACCOUNTED_SHARE.  This probe runs

  python3 perfbench/run.py --workload W --seed S --seconds 5 --trace 1

N times per named workload, the seed cycling 1, 2, 3, and prints one JSON
line per run and then one summary line per workload:

  {"root": ".", "workload": "cli", "seed": 1, "correct": true, "accounted_share": 0.9561}
  {"root": ".", "workload": "cli", "runs": 12, "floor": 0.95, "min": 0.9516,
   "median": 0.9544, "under_floor": 0, "incorrect": 0}

A run whose perfbench process ends without a result line counts as
incorrect, with a null share.  The floor is read from perfbench/run.py
with ast each time, never copied.  With --root given more than once, the
runs alternate between the checkouts (run i on each root before run
i + 1), and each root gets its own summaries.  Stdlib only; it does not
edit perfbench/.

  python tools/traced_shares.py --runs 12 cli
  python tools/traced_shares.py --runs 3 --root ../parent --root . sweep gauss
"""

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
RUN_SECONDS = 5


def read_floor(run_py):
    """MIN_ACCOUNTED_SHARE as assigned in perfbench/run.py."""
    with open(run_py, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "MIN_ACCOUNTED_SHARE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise ValueError("%s assigns no MIN_ACCOUNTED_SHARE" % run_py)


def parse_result(stdout):
    """(correct, accounted share) from a traced run's last stdout line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        return result["correct"], result["metrics"]["trace.accounted_share"]["value"]
    except (IndexError, ValueError, KeyError, TypeError):
        return False, None


def summary(root, workload, runs, floor):
    """One workload's summary over its run lines."""
    shares = [run["accounted_share"] for run in runs if run["accounted_share"] is not None]
    return {
        "root": root,
        "workload": workload,
        "runs": len(runs),
        "floor": floor,
        "min": min(shares) if shares else None,
        "median": statistics.median(shares) if shares else None,
        "under_floor": sum(1 for share in shares if share < floor),
        "incorrect": sum(1 for run in runs if not run["correct"]),
    }


def traced_run(root, workload, seed):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=root)
    correct, share = parse_result(done.stdout)
    return {"root": os.path.relpath(root), "workload": workload, "seed": seed,
            "correct": correct and done.returncode == 0, "accounted_share": share}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=("gauss", "sweep", "cli"))
    parser.add_argument("--runs", type=int, default=12, help="traced runs per workload and root")
    parser.add_argument("--root", action="append", help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(root) for root in args.root or [ROOT]]
    for workload in args.workloads:
        lines = {root: [] for root in roots}
        for i in range(args.runs):
            for root in roots:
                line = traced_run(root, workload, SEEDS[i % len(SEEDS)])
                lines[root].append(line)
                print(json.dumps(line), flush=True)
        for root in roots:
            floor = read_floor(os.path.join(root, "perfbench", "run.py"))
            print(json.dumps(summary(os.path.relpath(root), workload, lines[root], floor)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
