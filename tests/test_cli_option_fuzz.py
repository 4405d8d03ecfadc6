"""A seeded fuzz of main over the options of gauss and corpus.

gauss reads --p, --r, --char and --oracle; corpus reads --count and
--seed.  Each option is drawn valid, drawn from values that are out of
range, not integers, past Python's 4300-digit limit or not a choice, or
left out.  main must answer every argv with an exit status 0-3, no
traceback, and the stderr prefix of that status; an argv exits 0 exactly
when all its options are valid and every required one is given.  Valid fields stay at q <= 343 and valid
corpora at 2 synthetic covers, so the fuzz stays fast.
"""

import collections
import contextlib
import io
import random

from epschar.cli import main

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
