"""Capacity probe: the cost of one large field, each in a fresh interpreter.

For each field F_(p^r) named on the command line (as P:R), a new Python
process imports epschar from this checkout's src/, builds the field with
make_field, takes two p-adic Gauss-sum valuations (characters 1 and 2,
so the second reuses the per-field tables) and prints one JSON line:

  {"p": 3, "r": 10, "make_field_s": ..., "first_valuation_s": ...,
   "second_valuation_s": ..., "peak_rss_mb": ...}

peak_rss_mb is the child's ru_maxrss, interpreter included.  Stdlib
only; run it as

  python tools/capacity.py 3:8 3:10 3:12
"""

import json
import os
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


def probe(p, r):
    """The child's JSON line for F_(p^r), as a dict."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", CHILD, str(p), str(r)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv):
    fields = argv or ["3:8", "3:10"]
    for field in fields:
        p, _, r = field.partition(":")
        print(json.dumps(probe(int(p), int(r))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
