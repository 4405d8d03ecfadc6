"""Same-outputs harness: one SHA-256 over the CLI's answers on a fixed corpus.

Runs epschar's main() in process, with this checkout's src/ on the path,
on:

  - the five report commands (verify-all, verify-strong --oracle both,
    verify-weak, euler, epsilon --oracle both) in table and json format,
    on the constructed corpus in its DSL spelling (perfbench's
    CORPUS_DSL), on mixed and on synthetic:seed=S,index=N for S in 1-3
    and N in 0-9;
  - the same five commands in json format on --input files holding the
    cover_to_json of the constructed corpus, synthetic_corpus(20, seed=1)
    and synthetic_corpus(6, seed=3);
  - corpus --count 7 --seed 3 in both formats.

Each call's argv (input files named relative to their directory), exit
status, stdout and stderr go into the digest, and so does the text of
each input file.  Two checkouts give the same outputs when they print
the same line:

  python tools/same_outputs.py           # 832 calls, about 5 s
  python tools/same_outputs.py --quick   # the first cover of each group

It prints "calls=N nonzero=K sha256=HEX", K counting calls whose exit
status was not 0.  Stdlib only.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from epschar.cli import main as cli_main  # noqa: E402
from epschar.corpus import constructed_corpus, synthetic_corpus  # noqa: E402
from epschar.covers import cover_to_json  # noqa: E402
from workloads import CORPUS_DSL  # noqa: E402

REPORTS = [
    ["verify-all"],
    ["verify-strong", "--oracle", "both"],
    ["verify-weak"],
    ["euler"],
    ["epsilon", "--oracle", "both"],
]


def _call(argv):
    """main(argv) with stdout and stderr captured: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli_main(argv)
        except SystemExit as exc:  # argparse refusals
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _calls(folder, quick):
    """Every argv, in run order; writes the --input files into folder."""
    specs = CORPUS_DSL + ["mixed"] + [
        "synthetic:seed=%d,index=%d" % (seed, index) for seed in (1, 2, 3) for index in range(10)]
    covers = constructed_corpus() + synthetic_corpus(20, seed=1) + synthetic_corpus(6, seed=3)
    if quick:
        specs, covers = [CORPUS_DSL[0], "mixed", "synthetic:seed=1,index=0"], covers[:1]
    argvs = [cmd + ["--builtin", spec, "--format", fmt]
             for spec in specs for cmd in REPORTS for fmt in ("table", "json")]
    for i, cover in enumerate(covers):
        path = os.path.join(folder, "cover%02d.json" % i)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cover_to_json(cover))
        argvs += [cmd + ["--input", path, "--format", "json"] for cmd in REPORTS]
    return argvs + [["corpus", "--count", "7", "--seed", "3", "--format", fmt]
                    for fmt in ("table", "json")]


def run(quick=False):
    """(number of calls, number with a nonzero status, hex digest)."""
    digest = hashlib.sha256()
    nonzero = 0
    with tempfile.TemporaryDirectory() as folder:
        argvs = _calls(folder, quick)
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), encoding="utf-8") as handle:
                digest.update(json.dumps([name, handle.read()]).encode() + b"\n")
        for argv in argvs:
            status, out, err = _call(argv)
            nonzero += status != 0
            shown = [a.replace(folder + os.sep, "") for a in argv]
            digest.update(json.dumps([shown, status, out, err]).encode() + b"\n")
    return len(argvs), nonzero, digest.hexdigest()


def main(argv):
    calls, nonzero, hexdigest = run(quick="--quick" in argv)
    print("calls=%d nonzero=%d sha256=%s" % (calls, nonzero, hexdigest))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
