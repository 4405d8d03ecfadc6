"""The builtin cover DSL: pinned parses, a round trip, and a fuzz of main."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from epschar.cli import _parse_factors, main
from epschar.covers import poly_string
from epschar.errors import InvalidInputError
from epschar.fields import poly_is_irreducible

X = (0, 1)

# f= strings at p = 5 and what the parser makes of them; None means
# InvalidInputError.  A sign must be followed by a term: one leading sign
# keeps its meaning, a trailing or doubled sign is refused
PINNED = [
    ("x(x-1)", [(X, 1), ((4, 1), 1)]),
    ("x^2(x+4)", [(X, 2), ((4, 1), 1)]),
    ("1/x(x+1)", [(X, -1), ((1, 1), -1)]),
    ("x^2*(x^2+1)^-1", [(X, 2), ((1, 0, 1), -1)]),
    ("(inf)^2", [("inf", 2)]),
    ("inf", [("inf", 1)]),
    ("x^-3", [(X, -3)]),
    ("x+1(x+2)", [((1, 1), 1), ((2, 1), 1)]),
    ("**x*", [(X, 1)]),
    ("(x+1)^2^3", None),
    ("((x))", None),
    ("(x", None),
    ("x)", None),
    ("()", None),
    ("1/", None),
    ("", None),
    ("(+x+1)", [((1, 1), 1)]),
    ("(-x^2+x)", [((0, 1, 4), 1)]),
    ("x+", None),
    ("x(x++1)", None),
    ("x(x+-1)", None),
    ("x(x-)", None),
    ("(--x)", None),
    ("(+)", None),
]


@pytest.mark.parametrize("text, expected", PINNED)
def test_parse_factors_pins(text, expected):
    if expected is None:
        with pytest.raises(InvalidInputError):
            _parse_factors(text, 5)
    else:
        assert _parse_factors(text, 5) == expected


def _monic_irreducibles(p, max_degree):
    out = []
    for degree in range(1, max_degree + 1):
        for index in range(p**degree):
            poly = tuple(index // p**i % p for i in range(degree)) + (1,)
            if poly_is_irreducible(poly, p):
                out.append(poly)
    return out


IRREDUCIBLES = {p: _monic_irreducibles(p, 3) for p in (2, 3, 5, 7)}


@st.composite
def rendered_factors(draw):
    """(p, entries, DSL text) for distinct places and nonzero exponents."""
    p = draw(st.sampled_from(sorted(IRREDUCIBLES)))
    places = draw(st.lists(st.sampled_from(IRREDUCIBLES[p] + ["inf"]),
                           min_size=1, max_size=5, unique=True))
    exps = draw(st.lists(st.integers(-9, 9).filter(bool),
                         min_size=len(places), max_size=len(places)))
    invert = draw(st.booleans())
    pieces, prev_bare = [], False
    for place, exp in zip(places, exps):
        shown = -exp if invert else exp
        base = "inf" if place == "inf" else poly_string(place)
        style = draw(st.sampled_from(("paren", "bare")))
        if style == "bare" and place == X:
            piece, bare = "x^%d" % shown, True
        elif style == "bare" and shown == 1:
            piece, bare = base, True
        else:
            power = "" if shown == 1 and draw(st.booleans()) else "^%d" % shown
            piece, bare = "(%s)%s" % (base, power), False
        star = draw(st.booleans()) or (prev_bare and bare)
        if pieces and star:
            pieces.append(draw(st.sampled_from(("*", " * "))))
        pieces.append(piece)
        prev_bare = bare
    text = ("1/" if invert else "") + "".join(pieces)
    return p, list(zip(places, exps)), text


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(rendered_factors())
def test_rendered_factors_parse_back(case):
    p, entries, text = case
    assert _parse_factors(text, p) == entries


# a repeated key, or a key the kind does not read, is refused with the key named
REFUSED_KEYS = [
    ("kummer:p=5,n=2,f=x,p=7", "'p'"),
    ("kummer:p=5,n=2,f=x,q=3", "'q'"),
    ("as:p=2,f=1/x,n=3", "'n'"),
    ("mixed:p=5", "'p'"),
    ("synthetic:seed=1,index=0,bogus=1", "'bogus'"),
]


@pytest.mark.parametrize("spec, key", REFUSED_KEYS)
def test_builtin_refuses_a_repeated_or_unknown_key(spec, key):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["epsilon", "--builtin", spec]) == 2
    assert err.getvalue().startswith("input error") and key in err.getvalue()


@pytest.mark.parametrize("spec", ["kummer:p=5,n=2,f=x(x-1),", "as:,p=2,,f=1/x", "mixed:",
                                  "artin-schreier:p=2,f=1/x", "synthetic:seed=1,"])
def test_builtin_allows_empty_items(spec):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["epsilon", "--builtin", spec]) == 0


LONG_RUN = "1" * 5000
NUMBERS = ["1", "2", "4", "-3", "0", LONG_RUN]
# factor shapes with N for a drawn number, and stray characters
F_TOKENS = ["x", "x^N", "(x+N)", "(x^2+N)^N", "+N", "Nx", "(inf)^N", "inf", "(", ")", "*",
            "1/", "/", " ", "#", "\u00e9", "\x00"]
VALUES = ["0", "2", "3", "5", "7", "13", "-1", "x", "", LONG_RUN]
KEYS = {"kummer": ["p", "n", "f"], "as": ["p", "f"], "synthetic": ["seed", "index"]}


@st.composite
def builtin_specs(draw):
    """Near-miss --builtin strings: mostly the right keys, in order."""
    kind = draw(st.sampled_from(("kummer", "as", "kummer", "as", "synthetic", "mixed", "bogus")))
    keys = KEYS.get(kind, ["p"])
    if draw(st.integers(0, 3)) == 0:
        keys = draw(st.lists(st.sampled_from(("p", "n", "f", "seed", "index", "q")),
                             max_size=4))
    params = []
    for key in keys:
        if key == "f":
            tokens = draw(st.lists(st.sampled_from(F_TOKENS), min_size=1, max_size=5))
            value = "".join(t.replace("N", draw(st.sampled_from(NUMBERS))) for t in tokens)
        else:
            value = draw(st.sampled_from(VALUES))
        params.append(key + "=" + value)
    return kind + ":" + ",".join(params)


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from((["euler"], ["epsilon", "--oracle", "stickelberger"])), builtin_specs())
def test_main_never_lets_an_exception_escape(command, spec):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            status = main(command + ["--builtin=" + spec])
        except SystemExit as exc:  # argparse refusals
            assert exc.code == 2
            return
    assert status in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
