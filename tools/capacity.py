"""Capacity probe: the cost of one large field or one CLI command, each in a fresh interpreter.

Field mode.  For each field F_(p^r) named on the command line (as P:R), a
new Python process imports epschar from this checkout's src/, builds the
field with make_field, takes two p-adic Gauss-sum valuations (characters
1 and 2, so the second reuses the per-field tables) and prints one JSON
line:

  {"p": 3, "r": 10, "make_field_s": ..., "first_valuation_s": ...,
   "second_valuation_s": ..., "peak_rss_mb": ...}

CLI mode.  With --cli, each later argument is one epschar command line
(split as a shell would).  A new Python process runs epschar's main() on
it, and the probe prints one JSON line per command:

  {"argv": [...], "status": 0, "wall_s": ..., "peak_rss_mb": ...,
   "stdout_bytes": ..., "stdout_sha256": "..."}

wall_s is the time of the main() call alone.  The command's stdout goes
to the probe through a pipe, so two checkouts answered alike when they
print the same stdout_sha256.  peak_rss_mb is the child's ru_maxrss,
interpreter included.  Stdlib only; run it as

  python tools/capacity.py 3:8 3:10 3:12
  python tools/capacity.py --cli "euler --builtin kummer:p=1009,n=1008,f=x(x-1) --format json"
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import json, resource, sys, time
from epschar.fields import make_field
from epschar.padic import padic_gauss_valuation

p, r = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
ctx = make_field(p, r)
t1 = time.perf_counter()
padic_gauss_valuation(ctx, 1)
t2 = time.perf_counter()
padic_gauss_valuation(ctx, 2)
t3 = time.perf_counter()
print(json.dumps({
    "p": p, "r": r,
    "make_field_s": round(t1 - t0, 3),
    "first_valuation_s": round(t2 - t1, 3),
    "second_valuation_s": round(t3 - t2, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""

# the measurement goes to stderr as the last line, after the command's own
CLI_CHILD = """
import json, resource, sys, time
from epschar.cli import main

t0 = time.perf_counter()
try:
    status = main(sys.argv[1:])
except SystemExit as exc:  # argparse refusals
    status = exc.code
wall = time.perf_counter() - t0
sys.stdout.flush()
print(json.dumps({
    "status": status,
    "wall_s": round(wall, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}), file=sys.stderr)
"""


def _child(code, args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True)


def probe(p, r):
    """The child's JSON line for F_(p^r), as a dict."""
    done = _child(CHILD, [str(p), str(r)])
    done.check_returncode()
    return json.loads(done.stdout)


def probe_cli(argv):
    """One epschar command in a fresh interpreter: its status, cost and stdout digest."""
    done = _child(CLI_CHILD, argv)
    done.check_returncode()
    measured = json.loads(done.stderr.decode("utf-8").splitlines()[-1])
    return {"argv": list(argv), "status": measured["status"], "wall_s": measured["wall_s"],
            "peak_rss_mb": measured["peak_rss_mb"], "stdout_bytes": len(done.stdout),
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}


def main(argv):
    if argv[:1] == ["--cli"]:
        for command in argv[1:]:
            print(json.dumps(probe_cli(shlex.split(command))), flush=True)
        return 0
    fields = argv or ["3:8", "3:10"]
    for field in fields:
        p, _, r = field.partition(":")
        print(json.dumps(probe(int(p), int(r))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
