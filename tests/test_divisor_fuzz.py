"""A fuzz of main over mutated euler --divisor bodies.

Each body starts from a valid divisor of a tame Kummer cover, a wild
Artin-Schreier cover or the mixed example, and has one to three
mutations: an unknown place label, a bool, a float, a huge or negative
integer, a value that is not an integer at all, or the whole body
replaced by JSON that is not an object (deeply nested arrays included)
or by text that is not JSON.  main must answer every body with an exit
status 0-3 and no traceback.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from epschar.cli import main

# (builtin, a valid divisor): tame coefficients are free, wild ones are -1 mod e_w
COVERS = [
    ("kummer:p=5,n=2,f=x(x-1)", {"x": 3, "x+4": -1}),
    ("kummer:p=7,n=6,f=x^2(x-1)", {"x": 2, "x+6": 5, "inf": -4}),
    ("as:p=3,f=1/x(x+2)", {"x": -1, "x+2": 2}),
    ("mixed", {"w0": -1, "t0": 1}),
]

LABELS = ["x", "x+4", "x+6", "inf", "w0", "t0", "", "X", "x ", "q", "0"]
ODD_VALUES = [None, True, False, 1.5, -0.0, 1e308, "1", "", [], {}, [1], {"x": 1}]
INTS = [0, 1, -1, 2, -2, 5, -4, 2**31, -(2**63), 10**12 + 39, 10**400, -(10**400)]
NOT_OBJECTS = ["[]", "[1, 2]", '"x"', "1", "-7", "1.5", "true", "null", "[" * 5000 + "]" * 5000,
               "[" * 50000, '{"x": ' * 5000, "", "{", "{x: 1}", '{"x": 1,}', "NaN",
               '{"x": Infinity}', '{"x": 1' + "0" * 5000 + "}"]


@st.composite
def divisor_bodies(draw):
    builtin, valid = draw(st.sampled_from(COVERS))
    if draw(st.integers(0, 5)) == 0:
        return builtin, draw(st.sampled_from(NOT_OBJECTS))
    spec = dict(valid)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(("label", "value", "int", "drop")))
        if action == "label":
            spec[draw(st.sampled_from(LABELS))] = draw(st.sampled_from(INTS))
        elif action == "drop" and spec:
            del spec[draw(st.sampled_from(sorted(spec)))]
        elif spec:
            key = draw(st.sampled_from(sorted(spec)))
            spec[key] = draw(st.sampled_from(ODD_VALUES if action == "value" else INTS))
    return builtin, json.dumps(spec)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refusals
            status = exc.code
    return status, err.getvalue()


def test_the_valid_divisors_are_accepted():
    for builtin, valid in COVERS:
        status, err = _run(["euler", "--builtin", builtin, "--divisor", json.dumps(valid)])
        assert status == 0, (builtin, err)


@settings(derandomize=True, max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(divisor_bodies(), st.sampled_from((["--format", "json"], [])))
def test_main_answers_mutated_divisors_with_an_exit_status(case, fmt):
    builtin, body = case
    status, err = _run(["euler", "--builtin", builtin, "--divisor", body] + fmt)
    assert status in (0, 1, 2, 3), (status, body)
    assert "Traceback" not in err, body
