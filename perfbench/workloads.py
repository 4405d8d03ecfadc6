"""Seeded inputs, operations and known answers of the three workloads.

Imported only inside a pass process (see worker.py), after ``src`` of the
checkout is on ``sys.path``.  Each workload is a function
``build(seed, scratch_dir) -> list[Op]``; an ``Op`` runs one closed-loop
operation and returns ``(output, wrong)``, where ``output`` is the
JSON-able verdict output that goes into the digest and ``wrong`` says
whether it disagrees with the known answer.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

# Modules, not names: a traced pass re-binds functions inside these modules,
# and calls made through the module see the re-bound version.
from epschar import cli, corpus, covers, cyclotomic, epsilon, fields, groups, padic
from epschar import stickelberger, verify


@dataclass
class Op:
    key: str
    run: Callable
    # what the op exercises, for attributing memory growth in traced runs
    tag: str = ""


# ---------------------------------------------------------------------------
# gauss: one Gauss sum per op, every oracle, over the criteria 1-2 fields

# every p^r with p in {2, 3, 5, 7} and r <= 3, as in the acceptance sweep,
# with its number of ops.  Op cost rises with q, so the ops sort into one
# cluster per field; these counts (122 ops) put p50 inside the F_9 cluster
# and p90 inside the F_125 cluster rather than on the edge between two,
# where the statistic would jump from run to run.
SMALL_FIELDS = {(p, r): 10 for p in (2, 3, 5, 7) for r in (1, 2, 3)}
SMALL_FIELDS[2, 1] = 14
SMALL_FIELDS[7, 3] = 5
# one op on each; p = 101 is where the dense cyclotomic table costs ~1 GB
LARGE_PRIMES = (31, 61, 101)


def _stickelberger_answer(p, c):
    """v_p(tau(chi^c)) = s_p(c) / (p - 1), from the base-p digits of c."""
    s = 0
    while c:
        c, d = divmod(c, p)
        s += d
    return Fraction(s, p - 1)


def _gauss_op(p, r, c):
    def run():
        ctx = fields.make_field(p, r)
        pp = fields.PrimePower(p, r)
        chi = cyclotomic.MultChar(ctx, c)
        tau = cyclotomic.gauss_sum(ctx, chi)
        product = cyclotomic.gauss_product_check(ctx, chi) if c else None
        datum = stickelberger.TameLocalDatum(pp, pp.q - 1)
        vals = (
            stickelberger.digit_sum_valuation(pp, c),
            stickelberger.stickelberger_valuation(datum, stickelberger.d_from_c(datum, c)),
            padic.padic_gauss_valuation(ctx, chi),
        )
        cyclotomic.complex_abs2(tau)  # non-gating float channel, computed as the CLI does
        expected = _stickelberger_answer(p, c)
        wrong = any(v != expected for v in vals) or product is False
        return {"valuations": [str(v) for v in vals], "product": product}, wrong

    return Op("gauss p=%d r=%d c=%d" % (p, r, c), run, tag="p=%d" % p if r == 1 else "")


def _reference_indices(q, k):
    """k character indices spread evenly over 1 .. q-2 (c = 0 when q = 2)."""
    if q == 2:
        return [0] * k
    return [1 + j * (q - 3) // max(k - 1, 1) for j in range(k)]


def build_gauss(seed, scratch_dir):
    """Small-field ops in seeded order, then p = 31, 61, 101.

    The cost of an op depends on the order of its character, so the seed
    moves each reference character c to a Galois conjugate c * u (u a unit
    mod q - 1) of the same order.  The large primes come last, in
    ascending order, so that peak memory does not depend on the seed.
    """
    rng = random.Random(seed)

    def conjugate(c, q):
        units = [u for u in range(1, q - 1) if gcd(u, q - 1) == 1] or [1]
        return c * rng.choice(units) % (q - 1) if q > 2 else 0

    ops = [
        _gauss_op(p, r, conjugate(c, p**r))
        for (p, r), count in SMALL_FIELDS.items()
        for c in _reference_indices(p**r, count)
    ]
    rng.shuffle(ops)
    return ops + [_gauss_op(p, 1, conjugate(1, p)) for p in LARGE_PRIMES]


# ---------------------------------------------------------------------------
# sweep: the reports of full_verification over a synthetic corpus

# A fixed corpus in its own order.  Per-cover cost spans 1 ms to 45 s and
# depends on the draw, so corpora of other seeds would move every metric by
# more than its bound; and covers share field and group tables, so a
# seeded order would move the cost of filling them from cover to cover.
# The benchmark seed therefore leaves this workload as it is.  40 covers
# (120 reports, about 11 s) let a run make two passes.
SWEEP_CORPUS_SEED = 1
SWEEP_CORPUS_COUNT = 40


def _report_op(index, kind, check, cover, **kwargs):
    def run():
        report = check(cover, **kwargs)
        # every datum of the corpus is weakly ramified and valid, so every
        # check passes
        return report.to_json_obj(), report.passed is not True

    return Op("cover %d %s" % (index, kind), run)


def sweep_reports(index, cover):
    """The reports full_verification(cover) makes, one op each.

    Synthetic data carries no genus, so full_verification makes no
    restriction reports for it.
    """
    if cover.g_cover is not None:
        raise ValueError("synthetic cover %d unexpectedly carries a genus" % index)
    ops = []
    if cover.weakly_ramified:
        ops.append(
            _report_op(index, "strong", verify.check_strong, cover, oracle=epsilon.ORACLE_PADIC)
        )
    ops.append(_report_op(index, "weak", verify.check_weak, cover))
    ops.append(_report_op(index, "invariance", verify.check_invariance, cover))
    return ops


def build_sweep(seed, scratch_dir):
    data = corpus.synthetic_corpus(SWEEP_CORPUS_COUNT, seed=SWEEP_CORPUS_SEED)
    return [op for i, cover in enumerate(data) for op in sweep_reports(i, cover)]


# ---------------------------------------------------------------------------
# cli: the command line, in process, on the constructed corpus

# The DSL spelling of corpus.kummer_corpus() and corpus.artin_schreier_corpus(),
# in order; selftest.py checks that each parses to the same datum.
CORPUS_DSL = [
    "kummer:p=3,n=2,f=x",
    "kummer:p=5,n=2,f=x(x+4)",
    "kummer:p=5,n=2,f=x(x^2+2)",
    "kummer:p=5,n=4,f=x",
    "kummer:p=5,n=4,f=x^2(x+4)",
    "kummer:p=5,n=4,f=x^2(x+3)",
    "kummer:p=7,n=2,f=x(x+6)(x+5)(x+4)",
    "kummer:p=7,n=3,f=x",
    "kummer:p=7,n=3,f=x^2(x+6)",
    "kummer:p=7,n=6,f=x(x+6)",
    "kummer:p=11,n=5,f=x(x+10)^2(x+9)^3",
    "kummer:p=11,n=2,f=x(x^2+1)",
    "kummer:p=13,n=6,f=x^2(x+12)^3",
    "kummer:p=13,n=4,f=x(x^2+2)",
    "as:p=2,f=1/x",
    "as:p=2,f=1/x(x+1)",
    "as:p=2,f=1/(x^2+x+1)",
    "as:p=2,f=1/x(x+1)(x^2+x+1)",
    "as:p=3,f=1/x",
    "as:p=3,f=1/x(x+2)",
    "as:p=3,f=1/(x^2+1)",
    "as:p=3,f=1/x(x+2)(x+1)",
    "as:p=3,f=1/(x^3+2x+1)",
    "as:p=5,f=1/x",
    "as:p=5,f=1/x(x+4)",
    "as:p=5,f=1/(x^2+2)",
]
CLI_COMMANDS = [
    ["verify-all"],
    ["verify-strong", "--oracle", "both"],
    ["epsilon"],
    ["euler"],
]
LARGE_KUMMER = ["kummer:p=13,n=12,f=x(x-1)", "kummer:p=31,n=30,f=x(x-1)"]

# stderr prefix the CLI prints for each nonzero exit status
_ERROR_PREFIX = {1: "check failed", 2: "input error", 3: "unsupported datum"}


def integrality_failure_json():
    """A lone tame place of order 8 over F_3: E is not integral (exit 1)."""
    group = groups.AbelianGroup((8,))
    full = group.full_subgroup()
    xi = groups.cyclic_character(full, (1,), 1)
    place = dict(label="q", degree=2, inertia=full, decomposition=full, tame_char=xi)
    return covers.cover_to_json(covers.synthetic_cover(group, 3, 1, 0, [place]))


def cli_negative_cases(scratch_dir):
    """(argv, expected exit status) for inputs the CLI must refuse."""
    lone = os.path.join(scratch_dir, "integrality.json")
    bad = os.path.join(scratch_dir, "malformed.json")
    absent = os.path.join(scratch_dir, "absent.json")
    with open(lone, "w", encoding="utf-8") as handle:
        handle.write(integrality_failure_json())
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    return [
        (["euler", "--input", lone], 1),
        (["epsilon", "--input", bad], 2),
        (["epsilon", "--input", absent], 2),
        (["epsilon", "--builtin", "bogus:p=5"], 2),
        (["epsilon", "--builtin", "kummer:p=5,n=2"], 2),
        (["epsilon"], 2),
        (["euler", "--builtin", "as:p=2,f=1/x", "--divisor", '{"x": 0}'], 2),
        (["epsilon", "--builtin", "kummer:p=5,n=3,f=x"], 3),
        (["epsilon", "--builtin", "kummer:p=5,n=2,f=x^2"], 3),
    ]


def run_cli(argv):
    """main(argv) with stdout and stderr captured: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _cli_op(key, argv, expected):
    def run():
        status, out, err = run_cli(argv + ["--format", "json"])
        wrong = status != expected
        if expected == 0:
            try:
                json.loads(out)
            except ValueError:
                wrong = True
        elif not err.startswith(_ERROR_PREFIX[expected]):
            wrong = True
        return {"status": status, "stdout": out}, wrong

    return Op(key, run)


def cli_cases(scratch_dir):
    """Blocks of (argv, expected exit status): one block per cover, so
    that the commands on a cover run together, then one per refused input."""
    blocks = [
        [(cmd + ["--builtin", spec], 0) for cmd in CLI_COMMANDS]
        for spec in CORPUS_DSL + ["mixed"]
    ]
    blocks += [[(["verify-all", "--builtin", spec], 0)] for spec in LARGE_KUMMER]
    return blocks + [[case] for case in cli_negative_cases(scratch_dir)]


def build_cli(seed, scratch_dir, blocks=None):
    """The cli ops, blocks in seeded order.

    The first command on a cover fills the caches the others use, so the
    order inside a block is fixed; shuffling ops across blocks would move
    that cost between commands from seed to seed.
    """
    blocks = cli_cases(scratch_dir) if blocks is None else blocks
    # keys name scratch files relative to the scratch directory, so that
    # the digest does not depend on where the pass ran
    keyed, i = [], 0
    for block in blocks:
        keyed.append([])
        for argv, expected in block:
            key = "%03d %s" % (i, " ".join(argv).replace(scratch_dir + os.sep, ""))
            keyed[-1].append(_cli_op(key, argv, expected))
            i += 1
    random.Random(seed).shuffle(keyed)
    return [op for block in keyed for op in block]


WORKLOADS = {"gauss": build_gauss, "sweep": build_sweep, "cli": build_cli}
