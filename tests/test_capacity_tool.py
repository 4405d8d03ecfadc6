"""tools/capacity.py, the probe every capacity number comes from, on F_9."""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "capacity.py")


def test_capacity_probe_prints_one_json_line_per_field():
    done = subprocess.run([sys.executable, TOOL, "3:2"], capture_output=True, text=True,
                          check=True, timeout=60)
    (line,) = done.stdout.splitlines()
    obj = json.loads(line)
    assert list(obj) == ["p", "r", "make_field_s", "first_valuation_s",
                         "second_valuation_s", "peak_rss_mb"]
    assert (obj["p"], obj["r"]) == (3, 2)
    assert all(obj[key] >= 0 for key in list(obj)[2:5]) and obj["peak_rss_mb"] > 0
