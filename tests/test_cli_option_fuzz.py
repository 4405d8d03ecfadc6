"""A seeded fuzz of main over the options of gauss and corpus, and over
a fuzzed cover with --oracle and --format on the cover commands.

gauss reads --p, --r, --char and --oracle; corpus reads --count and
--seed.  Each option is drawn valid, drawn from values that are out of
range, not integers, past Python's 4300-digit limit or not a choice, or
left out.  main must answer every argv with an exit status 0-3, no
traceback, and the stderr prefix of that status; an argv exits 0 exactly
when all its options are valid and every required one is given.  Valid fields stay at q <= 343 and valid
corpora at 2 synthetic covers, so the fuzz stays fast.

epsilon, euler and verify-* read a cover from --builtin (a corpus DSL
string, a synthetic: string with drawn seed and index, or a malformed
string) or --input (cover_to_json of a small cover, as written or with
one slot dropped or replaced), next to drawn --oracle and --format
values.  The same three answers are asked for; a bad option value is
always an input error, a good cover with good options never is, and a
malformed --builtin string is refused with status 2 or 3.
"""

import collections
import contextlib
import io
import json
import random

from epschar.cli import main
from epschar.corpus import mixed_synthetic_example
from epschar.covers import artin_schreier_cover, cover_to_json, kummer_cover

HUGE = "1" + "0" * 400
TOO_LONG = "1" * 5000  # past the 4300 digits argparse's int() reads

GAUSS = {
    "--p": (["2", "3", "5", "7"],
            ["0", "1", "-3", "4", "9", "999999", "1000003", HUGE, "-" + HUGE, TOO_LONG,
             "x", "", "3.0", "0x7"]),
    "--r": (["1", "2", "3"], ["0", "-1", "13", "1000000", HUGE, "", "two", "1e2"]),
    "--char": (["0", "1", "-1", "6", "342", "-343", HUGE, "-" + HUGE],
               ["x", "", "1.5", TOO_LONG]),
    "--oracle": (["stickelberger", "padic", "both"], ["bogus", "", "PADIC"]),
}
CORPUS = {
    "--count": (["0", "1", "2"], ["-1", "-7", "10001", HUGE, "x", "", "2.5"]),
    "--seed": (["0", "1", "-1", "12345678901234567890", HUGE, "-" + HUGE], ["x", "", "0.5"]),
}
REQUIRED = {"gauss": ("--p", "--char"), "corpus": ()}
FORMATS = (["json", "table"], ["xml"])

# what stderr starts with for each status; argparse refusals print usage
PREFIXES = {0: ("",), 1: ("check failed:",), 2: ("input error:", "usage:"), 3: ("unsupported datum:",)}


def _argv(rng):
    """(argv, True when every option is valid and every required one is given)."""
    command = rng.choice(("gauss", "corpus"))
    options = dict(GAUSS if command == "gauss" else CORPUS, **{"--format": FORMATS})
    argv, valid = [command], True
    for option, (good, bad) in options.items():
        how = rng.choice(("good", "good", "good", "bad", "absent"))
        if how == "absent":
            valid = valid and option not in REQUIRED[command]
            continue
        argv += [option, rng.choice(good if how == "good" else bad)]
        valid = valid and how == "good"
    return argv, valid


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refusals
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def test_main_answers_fuzzed_options_with_an_exit_status():
    rng = random.Random(0)
    seen = collections.Counter()
    for _ in range(100):
        argv, valid = _argv(rng)
        status, out, err = _run(argv)
        seen[status] += 1
        assert status in PREFIXES, (status, argv)
        assert "Traceback" not in err, argv
        if status == 0:
            assert err == "" and out, argv
        else:
            assert err.startswith(PREFIXES[status]), (status, err[:80], argv)
        # every value drawn from a bad list is refused, whatever else is drawn
        assert (status == 0) == valid, (status, err[:80], argv)
    # no gauss call disagrees, so 1 never occurs; every other status does
    assert set(seen) == {0, 2, 3}, seen


# -- a fuzzed cover on the cover commands -------------------------------------

COVER_COMMANDS = ("epsilon", "euler", "verify-strong", "verify-weak", "verify-all")
BUILTINS = (["mixed", "kummer:p=5,n=2,f=x(x-1)", "kummer:p=7,n=3,f=x(x-1)", "as:p=2,f=1/x(x+1)",
             "as:p=3,f=1/x"],
            ["", "bogus", "kummer:p=4,n=2,f=x", "kummer:p=5,n=2", "kummer:p=5,n=2,f=x(x-1",
             "kummer:p=5,n=3,f=x", "as:p=2,f=x", "kummer:p=5,n=2,f=(x^30000000+1)",
             "kummer:p=" + TOO_LONG + ",n=2,f=x", "synthetic:seed=x", "synthetic:index=-1",
             "synthetic:seed=0,index=" + HUGE, "synthetic:seed=1,index=100000",
             "as:p=3,f=1/x+", "as:p=3,f=1/x(x++1)", "as:p=3,f=1/x(x+-1)"])
INPUT_BASES = [mixed_synthetic_example(), kummer_cover(5, 2, [((0, 1), 1), ((4, 1), 1)]),
               artin_schreier_cover(2, [((0, 1), -1), ((1, 1), -1)])]
ODD_VALUES = [None, True, "x", [], {}, 1.5, -1, 0, 7, 10**400, [[1, 2, 3]]]
ORACLES = (["stickelberger", "padic", "both"], ["bogus", "", "PADIC"])


def _slots(obj, path=()):
    """Every (path to a container, key) inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


def _input_file(rng, directory, n):
    """(path, "good" when the body is cover_to_json as written, else None)."""
    obj = json.loads(cover_to_json(rng.choice(INPUT_BASES)))
    intact = rng.random() < 0.4
    if not intact:
        path, key = rng.choice(list(_slots(obj)))
        container = obj
        for step in path:
            container = container[step]
        if rng.random() < 0.3:
            del container[key]
        else:
            container[key] = rng.choice(ODD_VALUES)
    target = directory / ("cover%d.json" % n)
    target.write_text(json.dumps(obj), encoding="utf-8")
    return str(target), "good" if intact else None


def _cover_argv(rng, directory, n):
    """(argv, every option value good, "good" or "bad" cover or None when unknown)."""
    command = rng.choice(COVER_COMMANDS)
    argv, options_ok = [command], True
    source = rng.random()
    if source < 0.35:
        path, cover = _input_file(rng, directory, n)
        argv += ["--input", path]
    elif source < 0.6:
        seed, index = rng.choice((0, 3, 7, 123456, -3)), rng.choice((0, 2, 3))
        argv += ["--builtin", "synthetic:seed=%d,index=%d" % (seed, index)]
        cover = "good"
    else:
        cover = "good" if rng.random() < 0.6 else "bad"
        argv += ["--builtin", rng.choice(BUILTINS[0] if cover == "good" else BUILTINS[1])]
    how = rng.choice(("good", "good", "good", "bad", "absent"))
    if how != "absent":
        argv += ["--oracle", rng.choice(ORACLES[0] if how == "good" else ORACLES[1])]
        # euler takes no --oracle, and verify-all runs one oracle only
        options_ok = how == "good" and command != "euler" and \
            not (command == "verify-all" and argv[-1] == "both")
    how = rng.choice(("good", "good", "good", "bad", "absent"))
    if how != "absent":
        argv += ["--format", rng.choice(FORMATS[0] if how == "good" else FORMATS[1])]
        options_ok = options_ok and how == "good"
    return argv, options_ok, cover


def test_main_answers_a_fuzzed_cover_with_oracle_and_format_draws(tmp_path):
    rng = random.Random(0)
    seen = collections.Counter()
    for n in range(150):
        argv, options_ok, cover = _cover_argv(rng, tmp_path, n)
        status, out, err = _run(argv)
        seen[status] += 1
        assert status in PREFIXES, (status, argv)
        assert "Traceback" not in err, argv
        if status == 0:
            assert err == "" and out, argv
        else:
            assert err.startswith(PREFIXES[status]), (status, err[:80], argv)
        if not options_ok:
            assert status == 2, (status, err[:80], argv)
        elif cover == "good":
            assert status != 2, (status, err[:80], argv)
        elif cover == "bad":
            assert status in (2, 3), (status, err[:80], argv)
    assert {0, 2, 3} <= set(seen), seen
