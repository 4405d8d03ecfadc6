"""Command-line front end.

Subcommands:

  gauss          valuation of one Gauss sum over a named finite field
  epsilon        per-character epsilon valuation ledgers of a cover
  euler          structure element and multiplicities along three routes
  verify-strong  per-character check of the valuation formula
  verify-weak    modular-basis check of the Euler characteristic formula
  verify-all     every applicable check, including restriction chains
  corpus         list the built-in and seeded synthetic cover data

Covers come from --input FILE (the JSON schema of cover_to_json) or
--builtin DSL strings such as

  kummer:p=5,n=2,f=x(x-1)
  as:p=2,f=1/x(x+1)
  synthetic:seed=3,index=0
  mixed

Exit status: 0 all requested checks passed, 1 a check failed, 2 the
input did not parse, 3 the datum is unsupported for the operation.  A
reader that closes stdout early does not change the status.
All gating numbers are exact rationals printed as a/b; floats appear
only in non-gating sanity notes.  JSON output is deterministic
(sorted keys) for a fixed configuration.
"""

import argparse
import cmath
import json
import os
import re
import sys

from .errors import CapacityError, EpscharError, InvalidInputError
from .fields import MAX_R, PrimePower, make_field
from .padic import padic_gauss_valuation
from .stickelberger import digit_sum_valuation
from .groups import K0Element, char_label, e_map, modular_basis, pairing
from .covers import (
    RationalFunctionDivisor,
    artin_schreier_cover,
    cover_from_json,
    cover_to_json,
    kummer_cover,
    read_json,
)
from .corpus import constructed_corpus, mixed_synthetic_example, synthetic_corpus
from .epsilon import ORACLE_PADIC, ORACLE_STICKELBERGER, global_epsilon_valuation
from .numutil import exact_str
from .euler import DivisorSpec, multiplicity_closed, multiplicity_direct, psi_structure
from .verify import check_strong, check_weak, full_verification

# -- builtin cover DSL ------------------------------------------------------


def _int(text: str, where: str) -> int:
    """int(text); a non-number, or one past Python's 4300-digit limit, is bad input."""
    try:
        return int(text)
    except ValueError:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise InvalidInputError("%s wants an integer of at most 4300 digits, got %r" % (where, shown))


def _parse_poly(text: str, p: int):
    """Ascending coefficient tuple mod p of a polynomial in x."""
    s = text.replace(" ", "")
    # terms joined by single signs; one leading sign, none trailing or doubled
    if not re.fullmatch(r"[+-]?[0-9x^]+(?:[+-][0-9x^]+)*", s):
        raise InvalidInputError("cannot parse polynomial %r" % text)
    coeffs = {}
    for sign, term in re.findall(r"([+-]?)([^+-]+)", s):
        sgn = -1 if sign == "-" else 1
        if "x" in term:
            m = re.fullmatch(r"(\d*)x(?:\^(\d+))?", term)
            if not m:
                raise InvalidInputError("cannot parse term %r in %r" % (term, text))
            c = _int(m.group(1), "f=") if m.group(1) else 1
            k = _int(m.group(2), "f=") if m.group(2) else 1
        else:
            if not term.isdigit():
                raise InvalidInputError("cannot parse term %r in %r" % (term, text))
            c, k = _int(term, "f="), 0
        coeffs[k] = (coeffs.get(k, 0) + sgn * c) % p
    degree = max((k for k, c in coeffs.items() if c), default=0)
    if degree > MAX_R:  # refused before the coefficient tuple is built
        raise CapacityError("polynomial %r has degree %d > %d" % (text, degree, MAX_R))
    return tuple(coeffs.get(k, 0) for k in range(degree + 1))


# A factor is (poly) with an optional ^k, or a run up to the next ( or *:
# x^k, inf or a bare polynomial.  A ( that opens no such group is a stray.
_FACTOR = re.compile(r"\(([^()]*)\)(?:\^(-?\d+))?|([^(*]+)|(\()|\*")


def _parse_factors(text: str, p: int):
    """Factored rational function -> list of (place entry, exponent).

    Accepts products of factors with optional ^k exponents, an optional
    '*' between factors, a leading '1/' inverting every exponent, and
    the token 'inf' for the place at infinity.  Sums inside a factor
    must be parenthesized, e.g. x^2*(x^2+1)^-1.  Factors are read left
    to right, so a factor past capacity is refused before a later typo.
    """
    s = text.replace(" ", "")
    sign = -1 if s.startswith("1/") else 1
    factors = []
    for match in _FACTOR.finditer(s, 2 if sign < 0 else 0):
        base, exp, run, stray = match.groups()
        if stray:
            raise InvalidInputError("unbalanced or nested parentheses in %r" % text)
        if run is not None:
            power = re.fullmatch(r"x\^(-?\d+)", run)
            base, exp = ("x", power.group(1)) if power else (run, None)
        elif base is None:
            continue  # a '*'
        entry = "inf" if base == "inf" else _parse_poly(base, p)
        factors.append((entry, sign * _int(exp or "1", "f=")))
    if not factors:
        raise InvalidInputError("no factors found in %r" % text)
    return factors


# the keys each builtin kind reads; any other key is refused
_DSL_KEYS = {
    "kummer": ("p", "n", "f"),
    "as": ("p", "f"),
    "artin-schreier": ("p", "f"),
    "synthetic": ("seed", "index"),
    "mixed": (),
}


def _dsl_params(rest: str):
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidInputError("expected key=value, got %r" % item)
        key = key.strip()
        if key in params:
            raise InvalidInputError("builtin spec repeats key %r" % key)
        params[key] = value.strip()
    return params


def _dsl_int(params, key, default=None):
    if key not in params:
        if default is None:
            raise InvalidInputError("builtin spec needs %s=" % key)
        return default
    return _int(params[key], key + "=")


def cover_from_dsl(text: str):
    """Builtin cover DSL -> CoverDatum (see module docstring for forms)."""
    kind, _, rest = text.strip().partition(":")
    params = _dsl_params(rest)
    if kind not in _DSL_KEYS:
        raise InvalidInputError(
            "unknown builtin kind %r; use kummer, as, synthetic or mixed" % kind
        )
    for key in params:
        if key not in _DSL_KEYS[kind]:
            raise InvalidInputError("%s builtin takes no key %r" % (kind, key))
    if kind in ("kummer", "as", "artin-schreier"):
        p = _dsl_int(params, "p")
        n = _dsl_int(params, "n") if kind == "kummer" else None
        if "f" not in params:
            raise InvalidInputError("%s builtin needs f=" % kind)
        if p < 2:  # f's coefficients are read mod p
            raise InvalidInputError("p must be prime, got %d" % p)
        divisor = RationalFunctionDivisor(p, _parse_factors(params["f"], p))
        return kummer_cover(p, n, divisor) if kind == "kummer" else artin_schreier_cover(p, divisor)
    if kind == "synthetic":
        seed = _dsl_int(params, "seed", 0)
        index = _dsl_int(params, "index", 0)
        if index < 0:
            raise InvalidInputError("synthetic index must be >= 0")
        return synthetic_corpus(index + 1, seed=seed)[index]
    return mixed_synthetic_example()


def _load_cover(args):
    if args.input is not None and args.builtin is not None:
        raise InvalidInputError("pass one cover: --input FILE or --builtin SPEC, not both")
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8
            raise InvalidInputError(str(exc)) from None
        return cover_from_json(text)
    if args.builtin:
        return cover_from_dsl(args.builtin)
    raise InvalidInputError("a cover is required: pass --input FILE or --builtin SPEC")


# -- output helpers ---------------------------------------------------------


def _emit(args, table_lines, json_obj) -> None:
    if args.format == "json":
        text = json.dumps(json_obj, sort_keys=True, indent=2)
    else:
        text = "\n".join(table_lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout (| head): drop the rest without a message,
        # and point stdout at devnull so that the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# -- subcommands ------------------------------------------------------------


def _cmd_gauss(args) -> int:
    ctx = make_field(args.p, args.r)
    q = ctx.q
    index = args.char % (q - 1)
    values = {}
    if args.oracle in (ORACLE_STICKELBERGER, "both"):
        values[ORACLE_STICKELBERGER] = digit_sum_valuation(PrimePower(args.p, args.r), index)
    if args.oracle in (ORACLE_PADIC, "both"):
        values[ORACLE_PADIC] = padic_gauss_valuation(ctx, index)
    agree = len(set(values.values())) == 1 if len(values) == 2 else None
    # non-gating float sanity: tau(chi) = sum over k < q - 1 of
    # zeta_(q-1)^(-index k) zeta_p^Tr(g^k), summed in complex floats
    n = q - 1
    tau = sum(cmath.exp(2j * cmath.pi * ((-index * k) % n / n + t / args.p))
              for k, t in enumerate(ctx.trace_by_log))
    abs2 = abs(tau) ** 2
    lines = ["gauss sum over F_%d, multiplicative character index %d" % (q, index)]
    for oracle in sorted(values):
        lines.append("  %-14s %s" % (oracle, exact_str(values[oracle])))
    if agree is not None:
        lines.append("  oracles agree: %s" % agree)
    lines.append("  |tau|^2 = %.6f (float sanity, expect %d)" % (abs2, q if index else 1))
    _emit(
        args,
        lines,
        {
            "q": q,
            "p": args.p,
            "r": args.r,
            "char": index,
            "valuations": {k: exact_str(v) for k, v in values.items()},
            "agree": agree,
            "abs2": abs2,
        },
    )
    return 0 if agree in (None, True) else 1


def _cmd_epsilon(args) -> int:
    cover = _load_cover(args)
    oracles = _oracles(args, ORACLE_STICKELBERGER)
    lines = ["epsilon valuations: %s" % cover.summary(), "convention: standard"]
    chars = []
    status = 0
    for chi in cover.characters():
        ledgers = {oracle: global_epsilon_valuation(cover, chi, oracle=oracle) for oracle in oracles}
        first = ledgers[oracles[0]]
        totals = {oracle: ledgers[oracle].total for oracle in oracles}
        if len(set(totals.values())) > 1:
            status = 1
        lines.append("  " + first.describe())
        if len(oracles) > 1:
            lines.append(
                "    oracle totals: "
                + ", ".join("%s=%s" % (o, exact_str(t)) for o, t in sorted(totals.items()))
            )
        chars.append(
            {
                "char": char_label(chi),
                "base": exact_str(first.base_term),
                "locals": [
                    {
                        "place": lv.place,
                        "kind": lv.kind,
                        "valuation": exact_str(lv.valuation),
                        "gauss_index": lv.gauss_index,
                    }
                    for lv in first.locals
                ],
                "totals": {o: exact_str(t) for o, t in totals.items()},
            }
        )
    _emit(
        args,
        lines,
        {
            "cover": cover.summary(),
            "convention": "standard",
            "oracles": oracles,
            "characters": chars,
        },
    )
    return status


def _cmd_euler(args) -> int:
    cover = _load_cover(args)
    if args.divisor:
        spec = read_json(args.divisor, "--divisor")
        if not isinstance(spec, dict):
            raise InvalidInputError("--divisor wants a JSON object of place: integer")
        divisor = DivisorSpec(cover, spec)
    else:
        divisor = DivisorSpec.wild_canonical(cover)
    psi = psi_structure(cover, divisor)
    projected = e_map(psi)
    lines = ["euler multiplicities: %s" % cover.summary()]
    lines.append("divisor: %s" % json.dumps(divisor.values, sort_keys=True))
    lines.append("structure element (projective basis):")
    for theta in modular_basis(cover.group, cover.p):
        c = psi.coefficient(theta)
        if c:
            lines.append("  %-14s %s" % (char_label(theta), exact_str(c)))
    status = 0
    rows = []
    total = 0
    for chi in cover.characters():
        closed = multiplicity_closed(cover, divisor, chi)
        direct = multiplicity_direct(cover, divisor, chi)
        paired = pairing(projected, K0Element.of_character(chi, p=cover.p))
        ok = closed == direct == paired
        if not ok:
            status = 1
        total += closed
        rows.append((chi, closed, direct, paired, ok))
    lines.append("multiplicities (closed | direct | pairing):")
    for chi, closed, direct, paired, ok in rows:
        lines.append(
            "  %-14s %s | %s | %s [%s]"
            % (char_label(chi), exact_str(closed), exact_str(direct), exact_str(paired),
               "ok" if ok else "FAIL")
        )
    lines.append("total over all characters: %s" % exact_str(total))
    _emit(
        args,
        lines,
        {
            "cover": cover.summary(),
            "divisor": divisor.values,
            "structure": {
                char_label(t): exact_str(psi.coefficient(t))
                for t in modular_basis(cover.group, cover.p)
            },
            "rows": [
                {
                    "char": char_label(chi),
                    "closed": exact_str(closed),
                    "direct": exact_str(direct),
                    "pairing": exact_str(paired),
                    "passed": ok,
                }
                for chi, closed, direct, paired, ok in rows
            ],
            "total": exact_str(total),
        },
    )
    return status


def _run_reports(args, reports) -> int:
    lines = []
    for rep in reports:
        lines.append(rep.describe())
        lines.append("")
    failed = [rep for rep in reports if not rep.passed]
    lines.append(
        "ALL CHECKS PASSED (%d report(s))" % len(reports)
        if not failed
        else "FAILURES in %d of %d report(s)" % (len(failed), len(reports))
    )
    _emit(args, lines, {"reports": [rep.to_json_obj() for rep in reports], "passed": not failed})
    return 1 if failed else 0


# the check each verify command runs once per oracle, as a list of reports
_CHECKS = {
    "verify-strong": lambda cover, oracle: [check_strong(cover, oracle=oracle)],
    "verify-weak": lambda cover, oracle: [check_weak(cover, oracle=oracle)],
    "verify-all": lambda cover, oracle: full_verification(cover, oracle=oracle),
}


def _oracles(args, first):
    """The oracles --oracle asks for, in run order; 'both' starts with first."""
    if args.oracle != "both":
        return [args.oracle]
    return [first, ORACLE_PADIC if first == ORACLE_STICKELBERGER else ORACLE_STICKELBERGER]


def _cmd_verify(args) -> int:
    if args.command == "verify-all" and args.oracle == "both":
        # full_verification takes one oracle, for its strong report
        raise InvalidInputError("verify-all runs one oracle: pass --oracle padic or stickelberger")
    cover = _load_cover(args)
    check = _CHECKS[args.command]
    oracles = _oracles(args, _COMMANDS[args.command][1])
    return _run_reports(args, [rep for oracle in oracles for rep in check(cover, oracle)])


def _cmd_corpus(args) -> int:
    synthetic = synthetic_corpus(args.count, seed=args.seed)  # refuses a huge count first
    covers = [(c.kind, c) for c in constructed_corpus()]
    covers.append(("mixed", mixed_synthetic_example()))
    covers += [("synthetic", c) for c in synthetic]
    lines = []
    entries = []
    for i, (family, cover) in enumerate(covers):
        lines.append("%3d  %-14s %s" % (i, family, cover.summary()))
        entries.append(
            {
                "index": i,
                "family": family,
                "summary": cover.summary(),
                "spec": json.loads(cover_to_json(cover)),
            }
        )
    _emit(args, lines, {"seed": args.seed, "count": args.count, "covers": entries})
    return 0


# -- parser -----------------------------------------------------------------


# name: (help, --oracle default or None for no --oracle, reads a cover, handler)
_COMMANDS = {
    "gauss": ("valuation of one Gauss sum", "both", False, _cmd_gauss),
    "epsilon": ("per-character epsilon ledgers", "both", True, _cmd_epsilon),
    "euler": ("structure element and multiplicities", None, True, _cmd_euler),
    "verify-strong": ("check the valuation formula", ORACLE_PADIC, True, _cmd_verify),
    "verify-weak": (
        "check the Euler characteristic formula", ORACLE_STICKELBERGER, True, _cmd_verify
    ),
    "verify-all": ("every applicable check", ORACLE_PADIC, True, _cmd_verify),
    "corpus": ("list the cover corpus", None, False, _cmd_corpus),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epschar",
        description="Exact epsilon-constant valuations and equivariant Euler "
        "characteristics of abelian covers of curves over finite fields.",
        epilog="builtin cover forms: kummer:p=5,n=2,f=x(x-1)  |  "
        "as:p=2,f=1/x(x+1)  |  synthetic:seed=3,index=0  |  mixed",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, oracle, reads_cover, handler) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--format", choices=("table", "json"), default="table", help="output format"
        )
        if oracle:
            cmd.add_argument(
                "--oracle",
                choices=(ORACLE_STICKELBERGER, ORACLE_PADIC, "both"),
                default=oracle,
                help="Gauss-sum valuation oracle (default: %(default)s)",
            )
        if reads_cover:
            cmd.add_argument("--input", metavar="FILE", help="cover description JSON file")
            cmd.add_argument("--builtin", metavar="SPEC", help="builtin cover DSL string")
        cmd.set_defaults(func=handler)

    # the options of one command only, after the shared ones
    gauss, euler, corpus = (sub.choices[name] for name in ("gauss", "euler", "corpus"))
    gauss.add_argument("--p", type=int, required=True, help="characteristic")
    gauss.add_argument("--r", type=int, default=1, help="field degree over the prime field")
    gauss.add_argument("--char", type=int, required=True, help="multiplicative character index")
    euler.add_argument(
        "--divisor",
        metavar="JSON",
        help='equivariant divisor as {"place label": n, ...}; default: canonical wild divisor',
    )
    corpus.add_argument("--seed", type=int, default=0, help="synthetic corpus seed")
    corpus.add_argument("--count", type=int, default=5, help="number of synthetic covers")
    return parser


# the stderr prefix of each exit status an error class carries
_PREFIXES = {1: "check failed", 2: "input error", 3: "unsupported datum"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EpscharError as exc:
        if exc.exit_status is None:  # a programming error: LevelError, GroupMismatchError
            raise
        print("%s: %s" % (_PREFIXES[exc.exit_status], exc), file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
