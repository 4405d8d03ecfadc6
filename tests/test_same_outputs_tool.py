"""tools/same_outputs.py, the byte-identity harness, on its quick corpus."""

import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "same_outputs.py")


def test_same_outputs_quick_run_prints_one_digest():
    done = subprocess.run([sys.executable, TOOL, "--quick"], capture_output=True, text=True,
                          check=True, timeout=60)
    (line,) = done.stdout.splitlines()
    # three builtin covers and one input file, and corpus in two formats
    assert re.fullmatch(r"calls=37 nonzero=0 sha256=[0-9a-f]{64}", line), line
