"""A fuzz of main over mutated --input cover JSON bodies.

Each body starts from the JSON of a valid cover (synthetic with and
without conductors, Kummer, Artin-Schreier) and has one to three
mutations: a dropped key, a value of the wrong type, a huge or negative
integer, or an inertia group given by elements that do not generate a
subgroup of the decomposition group (or of the root group at all).
main must answer every body with an exit status 0-3 and no traceback.
A fixed list of bodies with a float or a bool where the schema stores
an integer, or a string where it stores a bool, must exit 2, and so must
one that repeats a key, has a key its kind does not read, or labels a
place by a number.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from epschar.cli import main
from epschar import covers
from epschar.corpus import constructed_corpus, mixed_synthetic_example, synthetic_corpus
from epschar.covers import artin_schreier_cover, cover_to_json, kummer_cover, synthetic_cover
from epschar.groups import AbelianGroup


def _overridden_json():
    """Z/6 over F_3, not weakly ramified, with conductors on the wild place."""
    group = AbelianGroup((6,))
    full = group.full_subgroup()
    tame, wild = group.subgroup([(3,)]), group.subgroup([(2,)])
    conductors = {group.character((a,)): cd for a, cd in ((1, 3), (2, 3), (4, 3), (5, 3))}
    places = [
        dict(label="t", degree=2, inertia=tame, decomposition=full,
             tame_char=group.character((3,)).restrict(tame)),
        dict(label="q", degree=2, inertia=wild, decomposition=full,
             tame_char=wild.trivial_character(), conductor_overrides=conductors),
    ]
    return cover_to_json(synthetic_cover(group, 3, 1, 0, places, weakly_ramified=False))


BASES = [
    json.loads(cover_to_json(mixed_synthetic_example())),
    json.loads(_overridden_json()),
    json.loads(cover_to_json(kummer_cover(7, 6, [((0, 1), 1), ((6, 1), 1)]))),
    json.loads(cover_to_json(artin_schreier_cover(3, [((0, 1), -1), ((2, 1), -1)]))),
]

ODD_VALUES = [None, True, False, "x", "", [], {}, [[]], [None], 1.5, -1, 0, 1, 2, 7,
              2**64, 10**400, -10**400, {"a": 1}, [[1, 2, 3]]]
HUGE_INTS = [0, -1, -7, 2**31, 2**64 + 1, 10**12 + 39, 10**400]


def _slots(obj, path=()):
    """Every (path to a container, key) inside a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated_bodies(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(obj))
        if not slots:
            break
        path, key = draw(st.sampled_from(slots))
        container = _at(obj, path)
        action = draw(st.sampled_from(("drop", "type", "int", "inertia")))
        if action == "drop":
            del container[key]
        elif action == "type":
            # a copy: later mutations must not reach the shared value
            container[key] = json.loads(json.dumps(draw(st.sampled_from(ODD_VALUES))))
        elif action == "int":
            sign = draw(st.sampled_from((1, -1)))
            container[key] = sign * draw(st.sampled_from(HUGE_INTS))
        else:
            places = obj.get("places") if isinstance(obj, dict) else None
            places = [q for q in places if isinstance(q, dict)] if isinstance(places, list) else []
            if places:
                place = draw(st.sampled_from(places))
                width = draw(st.integers(0, 3))
                place["inertia"] = draw(st.lists(
                    st.lists(st.integers(-3, 40), min_size=width, max_size=width),
                    min_size=0, max_size=3))
    return json.dumps(obj)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refusals
            status = exc.code
    return status, err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from((["euler"], ["epsilon", "--oracle", "stickelberger"])), mutated_bodies())
def test_main_answers_mutated_cover_json_with_an_exit_status(command, body):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(body)
        status, err = _run(command + ["--input", path])
    finally:
        os.unlink(path)
    assert status in (0, 1, 2, 3), (status, body)
    assert "Traceback" not in err, body


def _with(base, edit):
    obj = json.loads(json.dumps(base))
    edit(obj)
    return obj


def _set_first_conductor(value):
    def edit(obj):
        place = next(q for q in obj["places"] if "conductors" in q)
        place["conductors"][0][1] = value
    return edit


# a float or a bool where an int is stored, or a non-bool weakly_ramified
NON_INTEGER_BODIES = [
    _with(BASES[0], lambda obj: obj.update(r=1.0)),
    _with(BASES[0], lambda obj: obj.update(g_base=0.0)),
    _with(BASES[0], lambda obj: obj.update(p=3.0)),
    _with(BASES[0], lambda obj: obj["places"][0].update(degree=1.0)),
    _with(BASES[0], lambda obj: obj.update(r=True)),
    _with(BASES[0], lambda obj: obj.update(weakly_ramified="no")),
    _with(BASES[1], _set_first_conductor(3.0)),
    _with(BASES[1], _set_first_conductor(True)),
    # the divisor of a constructed cover, the group and the stored characters
    {"kind": "kummer", "p": 5, "n": 2, "divisor": [[[0.0, 1], 1], [[4, 1], 1]]},
    {"kind": "kummer", "p": 5, "n": 2, "divisor": [[[0, 1], 1.0], [[4, 1], 1]]},
    {"kind": "kummer", "p": 5, "n": 2, "divisor": [[[0, 1], True], [[4, 1], 1]]},
    {"kind": "kummer", "p": 5.0, "n": 2, "divisor": [[[0, 1], 1], [[4, 1], 1]]},
    _with(BASES[3], lambda obj: obj["divisor"].__setitem__(1, [[True, 1], -1])),
    _with(BASES[3], lambda obj: obj["divisor"].__setitem__(1, [[2, 1], -1.0])),
    _with(BASES[0], lambda obj: obj.update(group=[6.0])),
    _with(BASES[0], lambda obj: obj["places"][0].update(decomposition=[[True]])),
    _with(BASES[0], lambda obj: obj["places"][1].update(inertia=[[3.0]])),
    _with(BASES[0], lambda obj: obj["places"][1].update(tame_char=[[[3], [True, 2]]])),
    _with(BASES[1], lambda obj: obj["places"][1]["conductors"][0].__setitem__(0, [True])),
]


# a repeated key (the last one would win), a key the kind does not read,
# and a place label that is not a string
_KUMMER = '{"kind":"kummer","p":5,"n":2,"divisor":[[[0,1],1],[[4,1],1],["inf",-2]]%s}'
REFUSED_BODIES = [
    _KUMMER % ',"p":7',
    _KUMMER % ',"bogus":1',
    _KUMMER % ',"r":1',
    json.dumps(BASES[3])[:-1] + ',"n":3}',
    json.dumps(BASES[0])[:-1] + ',"divisor":[]}',
    json.dumps(_with(BASES[0], lambda obj: obj["places"][0].update(label=5))),
    json.dumps(_with(BASES[0], lambda obj: obj["places"][0].update(p=5))),
    json.dumps(_with(BASES[1], lambda obj: obj["places"][1].update(conductor=[]))),
    json.dumps(BASES[0]).replace('"degree":', '"degree":1,"degree":', 1),
]


def test_cover_json_writes_only_the_keys_it_reads():
    data = constructed_corpus() + synthetic_corpus(20, seed=1)
    # BASES[1] stores conductors
    for obj in BASES + [json.loads(cover_to_json(cover)) for cover in data]:
        assert set(obj) <= set(covers._JSON_KEYS[obj["kind"]]), obj
        for place in obj.get("places", ()):
            assert set(place) <= set(covers._PLACE_KEYS), place


def _assert_each_body_exits_2(bodies):
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        for body in bodies:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(body)
            for command in (["epsilon"], ["verify-weak"], ["verify-all"]):
                status, err = _run(command + ["--input", path])
                assert status == 2 and err.startswith("input error"), (command, body, err)
    finally:
        os.unlink(path)


def test_non_integer_numbers_in_cover_json_exit_2():
    _assert_each_body_exits_2([json.dumps(body) for body in NON_INTEGER_BODIES])


def test_repeated_and_unknown_keys_and_numeric_labels_in_cover_json_exit_2():
    _assert_each_body_exits_2(REFUSED_BODIES)
