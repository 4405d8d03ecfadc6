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
input did not parse, 3 the datum is unsupported for the operation.
All gating numbers are exact rationals printed as a/b; floats appear
only in non-gating sanity notes.  JSON output is deterministic
(sorted keys) for a fixed configuration.
"""

import argparse
import cmath
import json
import re
import sys
from fractions import Fraction

from .errors import (
    CapacityError,
    ConstantExtensionError,
    CoverValidationError,
    DomainError,
    IncompleteDatumError,
    IntegralityError,
    InvalidInputError,
    NotWeaklyRamifiedError,
    PrecisionError,
    ReducibleCoverError,
    UnsupportedCoverError,
)
from .fields import PrimePower, make_field
from .cyclotomic import MultChar
from .padic import padic_gauss_valuation
from .stickelberger import digit_sum_valuation
from .groups import K0Element, char_label, e_map, modular_basis, pairing
from .covers import (
    RationalFunctionDivisor,
    artin_schreier_cover,
    cover_from_json,
    cover_to_json,
    kummer_cover,
)
from .corpus import (
    artin_schreier_corpus,
    kummer_corpus,
    mixed_synthetic_example,
    synthetic_corpus,
)
from .epsilon import ORACLE_PADIC, ORACLE_STICKELBERGER, global_epsilon_valuation
from .euler import DivisorSpec, multiplicity_closed, multiplicity_direct, psi_structure
from .verify import check_strong, check_weak, full_verification

_PARSE_ERRORS = (
    InvalidInputError,
    CoverValidationError,
    DomainError,
    PrecisionError,
    json.JSONDecodeError,
    OSError,
)
_UNSUPPORTED_ERRORS = (
    UnsupportedCoverError,
    NotWeaklyRamifiedError,
    ReducibleCoverError,
    ConstantExtensionError,
    IncompleteDatumError,
    CapacityError,
)

# -- builtin cover DSL ------------------------------------------------------


def _parse_poly(text: str, p: int):
    """Ascending coefficient tuple mod p of a polynomial in x."""
    s = text.replace(" ", "")
    if not s or not re.fullmatch(r"[0-9x^+\-]+", s):
        raise InvalidInputError("cannot parse polynomial %r" % text)
    coeffs = {}
    for sign, term in re.findall(r"([+-]?)([^+-]+)", s):
        sgn = -1 if sign == "-" else 1
        if "x" in term:
            m = re.fullmatch(r"(\d*)x(?:\^(\d+))?", term)
            if not m:
                raise InvalidInputError("cannot parse term %r in %r" % (term, text))
            c = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(2)) if m.group(2) else 1
        else:
            if not term.isdigit():
                raise InvalidInputError("cannot parse term %r in %r" % (term, text))
            c, k = int(term), 0
        coeffs[k] = (coeffs.get(k, 0) + sgn * c) % p
    degree = max(coeffs)
    while degree > 0 and coeffs.get(degree, 0) == 0:
        degree -= 1
    return tuple(coeffs.get(k, 0) for k in range(degree + 1))


def _parse_factors(text: str, p: int):
    """Factored rational function -> list of (place entry, exponent).

    Accepts products of factors with optional ^k exponents, an optional
    '*' between factors, a leading '1/' inverting every exponent, and
    the token 'inf' for the place at infinity.  Sums inside a factor
    must be parenthesized, e.g. x^2*(x^2+1)^-1.
    """
    s = text.replace(" ", "")
    invert = False
    if s.startswith("1/"):
        invert = True
        s = s[2:]
    factors = []
    i = 0
    while i < len(s):
        if s[i] == "*":
            i += 1
            continue
        if s[i] == "(":
            depth, j = 1, i + 1
            while j < len(s) and depth:
                depth += (s[j] == "(") - (s[j] == ")")
                j += 1
            if depth:
                raise InvalidInputError("unbalanced parentheses in %r" % text)
            base, i = s[i + 1 : j - 1], j
        else:
            j = i
            while j < len(s) and s[j] not in "(*":
                j += 1
            base, i = s[i:j], j
            m = re.fullmatch(r"x\^(-?\d+)", base)
            if m:
                exp = int(m.group(1))
                factors.append(((0, 1), -exp if invert else exp))
                continue
        exp = 1
        m = re.match(r"\^(-?\d+)", s[i:])
        if m:
            exp = int(m.group(1))
            i += m.end()
        if invert:
            exp = -exp
        entry = "inf" if base == "inf" else _parse_poly(base, p)
        factors.append((entry, exp))
    if not factors:
        raise InvalidInputError("no factors found in %r" % text)
    return factors


def _dsl_params(rest: str):
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidInputError("expected key=value, got %r" % item)
        params[key.strip()] = value.strip()
    return params


def _dsl_int(params, key, default=None):
    if key not in params:
        if default is None:
            raise InvalidInputError("builtin spec needs %s=" % key)
        return default
    try:
        return int(params[key])
    except ValueError:
        raise InvalidInputError("%s= wants an integer, got %r" % (key, params[key]))


def cover_from_dsl(text: str):
    """Builtin cover DSL -> CoverDatum (see module docstring for forms)."""
    kind, _, rest = text.strip().partition(":")
    params = _dsl_params(rest)
    if kind == "kummer":
        p = _dsl_int(params, "p")
        n = _dsl_int(params, "n")
        if "f" not in params:
            raise InvalidInputError("kummer builtin needs f=")
        divisor = RationalFunctionDivisor(p, _parse_factors(params["f"], p))
        return kummer_cover(p, n, divisor)
    if kind in ("as", "artin-schreier"):
        p = _dsl_int(params, "p")
        if "f" not in params:
            raise InvalidInputError("artin-schreier builtin needs f=")
        divisor = RationalFunctionDivisor(p, _parse_factors(params["f"], p))
        return artin_schreier_cover(p, divisor)
    if kind == "synthetic":
        seed = _dsl_int(params, "seed", 0)
        index = _dsl_int(params, "index", 0)
        if index < 0:
            raise InvalidInputError("synthetic index must be >= 0")
        return synthetic_corpus(index + 1, seed=seed)[index]
    if kind == "mixed":
        return mixed_synthetic_example()
    raise InvalidInputError(
        "unknown builtin kind %r; use kummer, as, synthetic or mixed" % kind
    )


def _load_cover(args):
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as handle:
            return cover_from_json(handle.read())
    if getattr(args, "builtin", None):
        return cover_from_dsl(args.builtin)
    raise InvalidInputError("a cover is required: pass --input FILE or --builtin SPEC")


# -- output helpers ---------------------------------------------------------


def _emit(args, table_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True, indent=2))
    else:
        print("\n".join(table_lines))


def _frac(x) -> str:
    return str(Fraction(x))


# -- subcommands ------------------------------------------------------------


def _cmd_gauss(args) -> int:
    ctx = make_field(args.p, args.r)
    q = ctx.q
    index = args.char % (q - 1) if q > 2 else 0
    values = {}
    if args.oracle in (ORACLE_STICKELBERGER, "both"):
        values[ORACLE_STICKELBERGER] = digit_sum_valuation(PrimePower(args.p, args.r), index)
    if args.oracle in (ORACLE_PADIC, "both"):
        values[ORACLE_PADIC] = padic_gauss_valuation(ctx, MultChar(ctx, index))
    agree = len(set(values.values())) == 1 if len(values) == 2 else None
    # non-gating float sanity: tau(chi) = sum over k < q - 1 of
    # zeta_(q-1)^(-index k) zeta_p^Tr(g^k), summed in complex floats
    n = q - 1
    tau = sum(cmath.exp(2j * cmath.pi * ((-index * k) % n / n + t / args.p))
              for k, t in enumerate(ctx.trace_by_log))
    abs2 = abs(tau) ** 2
    lines = ["gauss sum over F_%d, multiplicative character index %d" % (q, index)]
    for oracle in sorted(values):
        lines.append("  %-14s %s" % (oracle, _frac(values[oracle])))
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
            "valuations": {k: _frac(v) for k, v in values.items()},
            "agree": agree,
            "abs2": abs2,
        },
    )
    return 0 if agree in (None, True) else 1


def _cmd_epsilon(args) -> int:
    cover = _load_cover(args)
    oracles = [args.oracle] if args.oracle != "both" else [ORACLE_STICKELBERGER, ORACLE_PADIC]
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
                + ", ".join("%s=%s" % (o, _frac(t)) for o, t in sorted(totals.items()))
            )
        chars.append(
            {
                "char": char_label(chi),
                "base": _frac(first.base_term),
                "locals": [
                    {
                        "place": lv.place,
                        "kind": lv.kind,
                        "valuation": _frac(lv.valuation),
                        "gauss_index": lv.gauss_index,
                    }
                    for lv in first.locals
                ],
                "totals": {o: _frac(t) for o, t in totals.items()},
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
        spec = json.loads(args.divisor)
        # bool is an int subclass; JSON true is not a coefficient
        if not isinstance(spec, dict) or any(type(v) is not int for v in spec.values()):
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
            lines.append("  %-14s %s" % (char_label(theta), _frac(c)))
    status = 0
    rows = []
    total = Fraction(0)
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
            % (char_label(chi), _frac(closed), _frac(direct), _frac(paired), "ok" if ok else "FAIL")
        )
    lines.append("total over all characters: %s" % _frac(total))
    _emit(
        args,
        lines,
        {
            "cover": cover.summary(),
            "divisor": divisor.values,
            "structure": {
                char_label(t): _frac(psi.coefficient(t))
                for t in modular_basis(cover.group, cover.p)
            },
            "rows": [
                {
                    "char": char_label(chi),
                    "closed": _frac(closed),
                    "direct": _frac(direct),
                    "pairing": _frac(paired),
                    "passed": ok,
                }
                for chi, closed, direct, paired, ok in rows
            ],
            "total": _frac(total),
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


def _cmd_verify_strong(args) -> int:
    cover = _load_cover(args)
    oracles = [args.oracle] if args.oracle != "both" else [ORACLE_PADIC, ORACLE_STICKELBERGER]
    reports = [check_strong(cover, oracle=oracle) for oracle in oracles]
    return _run_reports(args, reports)


def _cmd_verify_weak(args) -> int:
    cover = _load_cover(args)
    oracles = (
        [args.oracle] if args.oracle != "both" else [ORACLE_STICKELBERGER, ORACLE_PADIC]
    )
    reports = [check_weak(cover, oracle=oracle) for oracle in oracles]
    return _run_reports(args, reports)


def _cmd_verify_all(args) -> int:
    if args.oracle == "both":
        # full_verification takes one oracle, for its strong report
        raise InvalidInputError("verify-all runs one oracle: pass --oracle padic or stickelberger")
    cover = _load_cover(args)
    reports = full_verification(cover, oracle=args.oracle)
    return _run_reports(args, reports)


def _cmd_corpus(args) -> int:
    synthetic = synthetic_corpus(args.count, seed=args.seed)  # refuses a huge count first
    covers = [("kummer", c) for c in kummer_corpus()]
    covers += [("artin-schreier", c) for c in artin_schreier_corpus()]
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epschar",
        description="Exact epsilon-constant valuations and equivariant Euler "
        "characteristics of abelian covers of curves over finite fields.",
        epilog="builtin cover forms: kummer:p=5,n=2,f=x(x-1)  |  "
        "as:p=2,f=1/x(x+1)  |  synthetic:seed=3,index=0  |  mixed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # argparse parents share action objects, so every subcommand gets a
    # fresh copy; a shared one would let set_defaults leak across commands
    def common(oracle_default=None):
        par = argparse.ArgumentParser(add_help=False)
        par.add_argument(
            "--format", choices=("table", "json"), default="table", help="output format"
        )
        if oracle_default:
            par.add_argument(
                "--oracle",
                choices=(ORACLE_STICKELBERGER, ORACLE_PADIC, "both"),
                default=oracle_default,
                help="Gauss-sum valuation oracle (default: %(default)s)",
            )
        return par

    def cover_in():
        par = argparse.ArgumentParser(add_help=False)
        par.add_argument("--input", metavar="FILE", help="cover description JSON file")
        par.add_argument("--builtin", metavar="SPEC", help="builtin cover DSL string")
        return par

    gauss = sub.add_parser("gauss", parents=[common("both")], help="valuation of one Gauss sum")
    gauss.add_argument("--p", type=int, required=True, help="characteristic")
    gauss.add_argument("--r", type=int, default=1, help="field degree over the prime field")
    gauss.add_argument("--char", type=int, required=True, help="multiplicative character index")
    gauss.set_defaults(func=_cmd_gauss)

    epsilon = sub.add_parser(
        "epsilon",
        parents=[common("both"), cover_in()],
        help="per-character epsilon ledgers",
    )
    epsilon.set_defaults(func=_cmd_epsilon)

    euler = sub.add_parser(
        "euler",
        parents=[common(), cover_in()],
        help="structure element and multiplicities",
    )
    euler.add_argument(
        "--divisor",
        metavar="JSON",
        help='equivariant divisor as {"place label": n, ...}; default: canonical wild divisor',
    )
    euler.set_defaults(func=_cmd_euler)

    strong = sub.add_parser(
        "verify-strong",
        parents=[common(ORACLE_PADIC), cover_in()],
        help="check the valuation formula",
    )
    strong.set_defaults(func=_cmd_verify_strong)

    weak = sub.add_parser(
        "verify-weak",
        parents=[common(ORACLE_STICKELBERGER), cover_in()],
        help="check the Euler characteristic formula",
    )
    weak.set_defaults(func=_cmd_verify_weak)

    verify_all = sub.add_parser(
        "verify-all",
        parents=[common(ORACLE_PADIC), cover_in()],
        help="every applicable check",
    )
    verify_all.set_defaults(func=_cmd_verify_all)

    corpus = sub.add_parser("corpus", parents=[common()], help="list the cover corpus")
    corpus.add_argument("--seed", type=int, default=0, help="synthetic corpus seed")
    corpus.add_argument("--count", type=int, default=5, help="number of synthetic covers")
    corpus.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegralityError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    except _PARSE_ERRORS as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except _UNSUPPORTED_ERRORS as exc:
        print("unsupported datum: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
