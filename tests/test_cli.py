import json
import resource
import subprocess
import sys
import time

import pytest

from epschar.cli import cover_from_dsl, main
from epschar.covers import cover_to_json, synthetic_cover
from epschar.errors import InvalidInputError
from epschar.groups import AbelianGroup, cyclic_character


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gauss_table(capsys):
    code, out, err = run(capsys, "gauss", "--p", "3", "--char", "1")
    assert code == 0 and err == ""
    assert "stickelberger  1/2" in out
    assert "padic          1/2" in out
    assert "oracles agree: True" in out
    assert "|tau|^2 = 3.0" in out


def test_gauss_json(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "5", "--r", "2", "--char", "6",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 25 and obj["char"] == 6
    assert obj["valuations"] == {"stickelberger": "1/2", "padic": "1/2"}
    assert obj["agree"] is True
    assert abs(obj["abs2"] - 25.0) < 1e-6


def test_gauss_float_note_past_q_2048(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "3", "--r", "8", "--char", "1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 6561 and obj["agree"] is True
    assert abs(obj["abs2"] - 6561) < 1e-6 * 6561


def test_gauss_single_oracle(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "7", "--char", "3",
                       "--oracle", "stickelberger", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj["valuations"]) == ["stickelberger"]
    assert obj["agree"] is None


def test_epsilon_json(capsys):
    code, out, _ = run(capsys, "epsilon", "--builtin", "kummer:p=5,n=2,f=x(x-1)",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    totals = {c["char"]: c["totals"] for c in obj["characters"]}
    assert totals["chi(0)"] == {"stickelberger": "-1", "padic": "-1"}
    assert totals["chi(1)"] == {"stickelberger": "0", "padic": "0"}
    kinds = {lv["place"]: lv["kind"] for lv in obj["characters"][1]["locals"]}
    assert kinds == {"x": "tame", "x+4": "tame"}


def test_epsilon_wild_conductor_above_two(tmp_path, capsys):
    # y^3 - y = 1/x^2 over F_3: Z/3, one degree-1 place of conductor 3
    group = AbelianGroup((3,))
    full = group.full_subgroup()
    chi = group.character((1,))
    q = dict(label="q", degree=1, inertia=full, decomposition=full,
             tame_char=full.trivial_character(), conductor_overrides={chi: 3, chi**2: 3})
    path = tmp_path / "wild.json"
    path.write_text(cover_to_json(synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)))
    code, out, _ = run(capsys, "epsilon", "--input", str(path), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["convention"] == "standard"
    ledgers = {c["char"]: c for c in obj["characters"]}
    # the local term is deg cond / 2 = 3/2, so v_p(epsilon) = -1 + 3/2 = 1/2
    for name in ("chi(1)", "chi(2)"):
        assert ledgers[name]["locals"] == [
            {"place": "q", "kind": "wild", "valuation": "3/2", "gauss_index": 0}
        ]
        assert ledgers[name]["totals"] == {"stickelberger": "1/2", "padic": "1/2"}
    assert ledgers["chi(0)"]["totals"] == {"stickelberger": "-1", "padic": "-1"}


def test_epsilon_refuses_a_character_both_wild_and_tame(tmp_path, capsys):
    # Z/6 over F_3 with all of it as inertia: chi(1) and chi(5) are
    # nontrivial on the wild Z/3 and on the tame Z/2
    group = AbelianGroup((6,))
    full = group.full_subgroup()
    conductors = {group.character((a,)): 3 for a in (1, 2, 4, 5)}
    q = dict(label="q", degree=1, inertia=full, decomposition=full,
             tame_char=group.character((3,)).restrict(full), conductor_overrides=conductors)
    path = tmp_path / "mixed.json"
    path.write_text(cover_to_json(synthetic_cover(group, 3, 1, 0, [q], weakly_ramified=False)))
    code, _, err = run(capsys, "epsilon", "--input", str(path))
    assert code == 3 and "unsupported datum" in err
    assert "wild and the tame part" in err


def test_euler_divisor(capsys):
    code, out, _ = run(capsys, "euler", "--builtin", "kummer:p=5,n=2,f=x(x-1)",
                       "--divisor", '{"x": -1}', "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["divisor"] == {"x": -1}
    assert all(row["passed"] for row in obj["rows"])
    assert {row["closed"] for row in obj["rows"]} == {row["pairing"] for row in obj["rows"]}


def test_euler_rejects_bad_divisor(capsys):
    code, _, err = run(capsys, "euler", "--builtin", "as:p=2,f=1/x",
                       "--divisor", '{"x": 0}')
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("divisor", ['{"x": "abc"}', '{"x": null}', '{"x": [1]}',
                                     '{"x": 1.5}', '{"x": true}'])
def test_euler_refuses_a_divisor_coefficient_that_is_not_an_integer(divisor, capsys):
    code, _, err = run(capsys, "euler", "--builtin", "as:p=2,f=1/x", "--divisor", divisor)
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


def test_verify_strong(capsys):
    code, out, _ = run(capsys, "verify-strong", "--builtin", "as:p=2,f=1/x")
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert "[ok]" in out and "FAIL" not in out


def test_verify_weak_both_oracles(capsys):
    code, out, _ = run(capsys, "verify-weak", "--builtin", "kummer:p=7,n=3,f=x",
                       "--oracle", "both")
    assert code == 0
    assert out.count("weak check") == 2


def test_verify_all_mixed(capsys):
    code, out, _ = run(capsys, "verify-all", "--builtin", "mixed")
    assert code == 0
    assert "ALL CHECKS PASSED" in out


def test_verify_all_synthetic_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--builtin", "synthetic:seed=3,index=1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert {rep["kind"] for rep in obj["reports"]} >= {"weak", "invariance"}


def test_corpus_deterministic(capsys):
    code, first, _ = run(capsys, "corpus", "--seed", "4", "--count", "3",
                         "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "corpus", "--seed", "4", "--count", "3",
                          "--format", "json")
    assert code == 0 and first == second
    families = {entry["family"] for entry in json.loads(first)["covers"]}
    assert {"kummer", "artin-schreier", "synthetic"} <= families


def test_input_file_round_trip(tmp_path, capsys):
    spec = cover_from_dsl("kummer:p=5,n=4,f=x")
    path = tmp_path / "cover.json"
    path.write_text(cover_to_json(spec))
    code, out, _ = run(capsys, "verify-strong", "--input", str(path))
    assert code == 0 and "ALL CHECKS PASSED" in out


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "epsilon", "--input", str(bad))
    assert code == 2 and "input error" in err

    code, _, err = run(capsys, "epsilon", "--builtin", "bogus:p=5")
    assert code == 2 and "input error" in err

    code, _, err = run(capsys, "epsilon", "--builtin", "kummer:p=5,n=2")
    assert code == 2  # missing f=

    code, _, err = run(capsys, "epsilon")
    assert code == 2  # no cover given

    code, _, err = run(capsys, "epsilon", "--input", str(tmp_path / "absent.json"))
    assert code == 2

    code, _, err = run(capsys, "epsilon", "--builtin", "kummer:p=5,n=3,f=x")
    assert code == 3 and "unsupported datum" in err

    code, _, err = run(capsys, "epsilon", "--builtin", "kummer:p=5,n=2,f=x^2")
    assert code == 3 and "unsupported datum" in err

    # verify-all runs one oracle; "both" is refused, not narrowed to one
    code, out, err = run(capsys, "verify-all", "--builtin", "mixed", "--oracle", "both")
    assert code == 2 and "input error" in err and out == ""


def test_cover_json_exit_codes_match_the_dsl(tmp_path, capsys):
    # the same unsupported Kummer datum exits 3 from JSON as from the DSL
    path = tmp_path / "kummer.json"
    path.write_text('{"kind":"kummer","p":5,"n":3,"divisor":[[[0,1],1]]}')
    code, _, err = run(capsys, "epsilon", "--input", str(path))
    assert code == 3 and "unsupported datum" in err
    # a zero denominator in a stored character value is malformed input
    place = {"label": "q", "degree": 2, "inertia": [[3]], "decomposition": [[3]],
             "tame_char": [[[3], [1, 0]]]}
    path.write_text(json.dumps({"kind": "synthetic", "group": [6], "p": 5, "places": [place]}))
    code, _, err = run(capsys, "epsilon", "--input", str(path))
    assert code == 2 and "input error" in err


def test_oversized_group_is_refused_fast(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"kind":"synthetic","group":[2000,2000],"p":5,"places":[]}')
    start = time.perf_counter()
    code, _, err = run(capsys, "verify-all", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and "unsupported datum" in err


def test_huge_synthetic_index_and_count_are_refused_fast(capsys):
    for args in (["epsilon", "--builtin", "synthetic:seed=0,index=%d" % 10**9],
                 ["corpus", "--count", str(10**9)]):
        start = time.perf_counter()
        code, _, err = run(capsys, *args)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "unsupported datum" in err


def test_huge_prime_field_is_refused_fast(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "gauss", "--p", "1000000000000000009", "--char", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and "unsupported datum" in err


def test_integrality_failure_exits_one(tmp_path, capsys):
    group = AbelianGroup((8,))
    full = group.full_subgroup()
    xi = cyclic_character(full, (1,), 1)
    q = dict(label="q", degree=2, inertia=full, decomposition=full, tame_char=xi)
    cov = synthetic_cover(group, 3, 1, 0, [q])
    path = tmp_path / "lone.json"
    path.write_text(cover_to_json(cov))
    code, _, err = run(capsys, "euler", "--input", str(path))
    assert code == 1 and "check failed" in err


def test_dsl_factors():
    cov = cover_from_dsl("kummer:p=5,n=2,f=x(x^2+2)")
    assert sorted(q.label for q in cov.places) == ["inf", "x", "x^2+2"]
    cov = cover_from_dsl("as:p=3,f=1/x(x+1)")
    assert sorted(q.label for q in cov.places) == ["x", "x+1"]
    cov = cover_from_dsl("as:p=3,f=1/(x^2+1)")
    assert [q.label for q in cov.places] == ["x^2+1"]
    cov = cover_from_dsl("kummer:p=13,n=4,f=x(x^2+2)")
    assert cov.g_cover == 3
    with pytest.raises(InvalidInputError):
        cover_from_dsl("kummer:p=5,n=2,f=")
    with pytest.raises(InvalidInputError):
        cover_from_dsl("synthetic:index=-1")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "epschar.cli", "gauss", "--p", "2", "--r", "2",
         "--char", "1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valuations"]["stickelberger"] == "1"


def test_no_numpy_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, epschar.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_large_gauss_runs_in_bounded_memory():
    # the p-adic oracle and the |tau|^2 float note are both O(q); neither
    # builds Phi_m for m = lcm(211, 210) = 44310
    proc = subprocess.run(
        [sys.executable, "-m", "epschar.cli", "gauss", "--p", "211", "--char", "1",
         "--oracle", "padic", "--format", "json"],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["valuations"] == {"padic": "1/210"}
    assert abs(obj["abs2"] - 211) < 1e-6 * 211


@pytest.mark.parametrize("argv", [
    ["euler", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--oracle", "padic"],
    ["euler", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--precision", "4"],
    ["euler", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--convention", "inverted"],
    ["corpus", "--convention", "inverted"],
    ["corpus", "--oracle", "padic"],
    ["corpus", "--precision", "4"],
    ["gauss", "--p", "5", "--char", "1", "--convention", "inverted"],
    ["gauss", "--p", "5", "--char", "1", "--precision", "4"],
    ["epsilon", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--precision", "4"],
    ["verify-strong", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--precision", "4"],
    ["verify-weak", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--precision", "4"],
    ["verify-all", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--precision", "4"],
    ["epsilon", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--convention", "inverted"],
    ["verify-strong", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--convention", "inverted"],
    ["verify-weak", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--convention", "inverted"],
    ["verify-all", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--convention", "inverted"],
])
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
