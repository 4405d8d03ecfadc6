"""tools/capacity.py, the probe every capacity number comes from: a field
(F_9) and CLI commands, each in a fresh interpreter; and the capacity pins
read through it.

The 48 MB bound on euler at kummer:p=1009,n=1008 holds while the direct
multiplicity route reads a character on inertia by its key, its values on
the inertia basis (about 22 MB).  A table of its values on every element
of inertia, e_t |I| ints per tame place, takes that command to 90 MB.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys

from epschar.cli import cover_from_dsl, main
from epschar.corpus import constructed_corpus, synthetic_corpus

LARGE = "kummer:p=1009,n=1008,f=x(x-1)"
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


def cli_probe(*commands):
    """The probe's JSON line for each command, as dicts."""
    done = subprocess.run([sys.executable, TOOL, "--cli", *commands], capture_output=True,
                          text=True, check=True, timeout=120)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_capacity_probe_prints_one_json_line_per_cli_command():
    small = "euler --builtin 'kummer:p=7,n=6,f=x(x-1)' --format json"
    ok, refused = cli_probe(small, "gauss 7 --oracle nope")
    for obj in (ok, refused):
        assert list(obj) == ["argv", "status", "wall_s", "peak_rss_mb", "stdout_bytes",
                             "stdout_sha256"]
        assert obj["wall_s"] >= 0 and obj["peak_rss_mb"] > 0
    # the child answers as main() does in process, byte for byte
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(small)) == 0
    text = out.getvalue().encode("utf-8")
    assert ok["argv"] == shlex.split(small) and ok["status"] == 0
    assert (ok["stdout_bytes"], ok["stdout_sha256"]) == (len(text), hashlib.sha256(text).hexdigest())
    assert refused["status"] == 2 and refused["stdout_bytes"] == 0


def test_euler_on_a_large_kummer_cover_stays_under_48_mb():
    (obj,) = cli_probe("euler --builtin '%s' --format json" % LARGE)
    assert obj["status"] == 0 and obj["stdout_bytes"] > 0
    assert obj["peak_rss_mb"] < 48, obj


def test_tame_powers_are_keyed_on_the_inertia_basis():
    covers = [cover_from_dsl(LARGE)] + constructed_corpus() + synthetic_corpus(40, seed=1)
    seen = 0
    for cover in covers:
        for q in cover.places:
            rank = len(q.inertia.basis)
            assert all(len(key) == rank for key in q.tame_powers), (cover.summary(), q.label)
            assert set(q.tame_powers.values()) <= set(range(q.e_t))
            seen += len(q.tame_powers)
    assert seen > 1008
