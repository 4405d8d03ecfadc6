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
  - the same five commands in json format on --input files holding three
    data with conductor overrides: Z/3 over F_3 with conductor 3, Z/6 with
    a tame place and a wild one, and Z/6 with all of it as inertia, whose
    characters nontrivial on both parts exit 3;
  - the same five commands in json format on --input files holding two
    bodies that exit 2: a decomposition group whose quotient by inertia
    is not cyclic, and weak wild inertia Z/4 over F_2;
  - corpus --count 7 --seed 3 in both formats;
  - gauss --p P --r R --char C in both formats, for P in 2, 3, 5, 7,
    R in 1-3 and eight indices C, 0 and negative ones among them.

Each call's argv (input files named relative to their directory), exit
status, stdout and stderr go into the digest, and so does the text of
each input file.  Two checkouts give the same outputs when they print
the same line:

  python tools/same_outputs.py           # 1049 calls, about 6 s
  python tools/same_outputs.py --quick   # the first cover of each group, no gauss

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
from epschar.covers import cover_to_json, synthetic_cover  # noqa: E402
from epschar.groups import AbelianGroup  # noqa: E402
from workloads import CORPUS_DSL  # noqa: E402

GAUSS_CHARS = (0, 1, 2, 3, 5, 7, -1, 100)

# local groups that no curve has, refused by validate_cover
REFUSED_BODIES = [
    '{"kind":"synthetic","group":[2,2,2],"p":3,"r":1,"g_base":0,"weakly_ramified":true,'
    '"places":[{"label":"a","degree":2,"inertia":[[1,0,0]],"decomposition":[[1,0,0],[0,1,0],[0,0,1]],'
    '"tame_char":[[[1,0,0],[1,2]]]},{"label":"b","degree":2,"inertia":[[1,0,0]],"decomposition":[[1,0,0]],'
    '"tame_char":[[[1,0,0],[1,2]]]}]}',
    '{"kind":"synthetic","group":[4],"p":2,"r":1,"g_base":0,"weakly_ramified":true,'
    '"places":[{"label":"a","degree":1,"inertia":[[1]],"decomposition":[[1]],"tame_char":[[[1],[0,1]]]}]}',
]

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


def _overridden_covers():
    """Three data that are not weakly ramified, all over F_3 with conductor 3."""
    z3, z6 = AbelianGroup((3,)), AbelianGroup((6,))
    full3, full6 = z3.full_subgroup(), z6.full_subgroup()
    tame, wild = z6.subgroup([(3,)]), z6.subgroup([(2,)])
    on_z3 = {z3.character((a,)): 3 for a in (1, 2)}
    on_z6 = {z6.character((a,)): 3 for a in (1, 2, 4, 5)}
    places = [
        [dict(label="q", degree=1, inertia=full3, decomposition=full3,
              tame_char=full3.trivial_character(), conductor_overrides=on_z3)],
        [dict(label="t", degree=2, inertia=tame, decomposition=full6,
              tame_char=z6.character((3,)).restrict(tame)),
         dict(label="q", degree=2, inertia=wild, decomposition=full6,
              tame_char=wild.trivial_character(), conductor_overrides=on_z6)],
        [dict(label="q", degree=1, inertia=full6, decomposition=full6,
              tame_char=z6.character((3,)).restrict(full6), conductor_overrides=on_z6)],
    ]
    return [synthetic_cover(group, 3, 1, 0, qs, weakly_ramified=False)
            for group, qs in zip((z3, z6, z6), places)]


def _calls(folder, quick):
    """Every argv, in run order; writes the --input files into folder."""
    specs = CORPUS_DSL + ["mixed"] + [
        "synthetic:seed=%d,index=%d" % (seed, index) for seed in (1, 2, 3) for index in range(10)]
    covers = constructed_corpus() + synthetic_corpus(20, seed=1) + synthetic_corpus(6, seed=3)
    if quick:
        specs, covers = [CORPUS_DSL[0], "mixed", "synthetic:seed=1,index=0"], covers[:1]
    argvs = [cmd + ["--builtin", spec, "--format", fmt]
             for spec in specs for cmd in REPORTS for fmt in ("table", "json")]
    named = [("cover%02d.json" % i, cover_to_json(cover)) for i, cover in enumerate(covers)]
    if not quick:
        named += [("overridden%d.json" % i, cover_to_json(cover)) for i, cover in enumerate(_overridden_covers())]
        named += [("refused%d.json" % i, body) for i, body in enumerate(REFUSED_BODIES)]
    for name, text in named:
        path = os.path.join(folder, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argvs += [cmd + ["--input", path, "--format", "json"] for cmd in REPORTS]
    argvs += [["corpus", "--count", "7", "--seed", "3", "--format", fmt] for fmt in ("table", "json")]
    if not quick:
        argvs += [["gauss", "--p", str(p), "--r", str(r), "--char", str(c), "--format", fmt]
                  for p in (2, 3, 5, 7) for r in (1, 2, 3) for c in GAUSS_CHARS
                  for fmt in ("table", "json")]
    return argvs


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
