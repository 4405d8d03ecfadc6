"""perfbench/selftest.py, the benchmark's check of its own checks.

It runs in a child process, as the benchmark runs it: the corpus DSL
strings must spell the constructed corpus, the sweep ops must make the
reports of full_verification, a wrong answer and a wrong digest must be
caught, and the tracer must put back every function it re-bound.
"""

import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "selftest.py")


def test_benchmark_selftest_reports_no_failure():
    done = subprocess.run([sys.executable, SELFTEST], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 failure(s)"
