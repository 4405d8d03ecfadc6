import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import pytest

from epschar import cli, errors
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

    # nested past the recursion limit: an input error, not a traceback
    bad.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, "epsilon", "--input", str(bad))
    assert code == 2 and "input error:" in err and "Traceback" not in err and out == ""

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


def test_euler_refuses_a_repeated_divisor_place(capsys):
    # the last "x" would win, and the illegal 4 would never be checked
    code, out, err = run(capsys, "euler", "--builtin", "as:p=2,f=1/x",
                         "--divisor", '{"x": 4, "x": -1}')
    assert code == 2 and err.startswith("input error: --divisor: repeated key 'x'") and out == ""


def test_input_and_builtin_together_are_refused(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(cover_to_json(cover_from_dsl("kummer:p=5,n=2,f=x(x-1)")))
    code, out, err = run(capsys, "epsilon", "--input", str(path), "--builtin", "as:p=5,f=1/x")
    assert code == 2 and err.startswith("input error:") and out == ""


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    code, _, err = run(capsys, "epsilon", "--input", str(absent))
    assert code == 2 and err == "input error: [Errno 2] No such file or directory: %r\n" % str(absent)
    code, _, err = run(capsys, "epsilon", "--input", str(tmp_path))
    assert code == 2 and err.startswith("input error: [Errno 21]")
    # bytes that are not UTF-8: an input error, not a traceback
    absent.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "epsilon", "--input", str(absent))
    assert code == 2 and err.startswith("input error: 'utf-8' codec can't decode")


# the exit status main gave each error class through its except clauses
# before the classes carried it themselves
_EXIT_STATUS = {
    errors.IntegralityError: 1,
    errors.InvalidInputError: 2,
    errors.CoverValidationError: 2,
    errors.DomainError: 2,
    errors.PrecisionError: 2,
    errors.CapacityError: 3,
    errors.UnsupportedCoverError: 3,
    errors.NotWeaklyRamifiedError: 3,
    errors.ReducibleCoverError: 3,
    errors.ConstantExtensionError: 3,
    errors.IncompleteDatumError: 3,
}
_PREFIX = {1: "check failed: ", 2: "input error: ", 3: "unsupported datum: "}


def _raising_corpus_command(monkeypatch, exc):
    def handler(args):
        raise exc

    help_text, oracle, reads_cover, _ = cli._COMMANDS["corpus"]
    monkeypatch.setitem(cli._COMMANDS, "corpus", (help_text, oracle, reads_cover, handler))


def test_each_error_class_carries_the_exit_status_main_answers_with(monkeypatch, capsys):
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.EpscharError)}
    unanswered = {errors.EpscharError, errors.LevelError, errors.GroupMismatchError}
    assert classes == set(_EXIT_STATUS) | unanswered
    for cls, status in _EXIT_STATUS.items():
        assert cls.exit_status == status, cls
        exc = cls("boom", "why") if cls is errors.CoverValidationError else cls("boom")
        _raising_corpus_command(monkeypatch, exc)
        code, out, err = run(capsys, "corpus")
        assert (code, out, err) == (status, "", "%s%s\n" % (_PREFIX[status], exc)), cls
    for cls in unanswered:
        # programming errors, not answers: main lets them propagate
        assert getattr(cls, "exit_status", None) is None, cls
        _raising_corpus_command(monkeypatch, cls("boom"))
        with pytest.raises(cls):
            main(["corpus"])


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


def test_negative_corpus_count_is_an_input_error(capsys):
    for count in ("-1", "-5"):
        code, out, err = run(capsys, "corpus", "--count", count)
        assert code == 2 and out == "" and err.startswith("input error:")
    code, out, err = run(capsys, "corpus", "--count", "0", "--format", "json")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["count"] == 0 and "synthetic" not in {c["family"] for c in obj["covers"]}


def test_huge_prime_field_is_refused_fast(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "gauss", "--p", "1000000000000000009", "--char", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and "unsupported datum" in err


@pytest.mark.parametrize("args", [
    ["gauss", "--p", "10007", "--char", "1"],
    ["gauss", "--p", "10007", "--char", "1", "--oracle", "padic"],
    ["verify-strong", "--builtin", "kummer:p=10007,n=2,f=x(x-1)"],
])
def test_p_adic_oracle_past_its_prime_bound_is_refused_fast(args, capsys):
    # refused before the per-field tables of F_10007 are built
    start = time.perf_counter()
    code, _, err = run(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and "unsupported datum" in err and "p <= 4500" in err


@pytest.mark.parametrize("args", [
    ["gauss", "--p", "3", "--r", "12", "--char", "1"],
    ["gauss", "--p", "3", "--r", "12", "--char", "1", "--oracle", "padic"],
])
def test_p_adic_oracle_past_its_table_bound_is_refused_fast(args, capsys):
    # F_3^12's packed Teichmueller powers would hold 2.7e8 bits; refused
    # before the field's trace table or the p-adic tables are built
    start = time.perf_counter()
    code, _, err = run(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and "unsupported datum" in err and "at most 200000000 bits" in err


def test_stickelberger_oracle_runs_past_the_p_adic_bound(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "gauss", "--p", "10007", "--char", "1",
                         "--oracle", "stickelberger", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert json.loads(out)["valuations"] == {"stickelberger": "1/10006"}


@pytest.mark.parametrize("spec", [
    "kummer:p=1000000000000000003,n=2,f=x",
    "as:p=1000000000000000003,f=1/x",
    "kummer:p=5,n=2,f=(x^30000000+1)",
])
def test_huge_builtin_prime_or_degree_is_refused_fast(spec, capsys):
    # refused before trial division of p or a 3*10^7-tuple of coefficients
    start = time.perf_counter()
    code, _, err = run(capsys, "epsilon", "--builtin", spec)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and "unsupported datum" in err


@pytest.mark.parametrize("obj", [
    {"kind": "kummer", "p": 10**18 + 3, "n": 2, "divisor": [[[0, 1], 1]]},
    {"kind": "synthetic", "group": [6], "p": 10**18 + 3, "places": []},
    {"kind": "synthetic", "group": [6], "p": 5, "places": [
        {"label": "q", "degree": 2 * 10**9, "inertia": [[3]], "decomposition": [[3]],
         "tame_char": [[[3], [1, 2]]]}]},
])
def test_huge_cover_json_prime_or_degree_is_refused_fast(obj, tmp_path, capsys):
    # refused before trial division of p or the power p^degree
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, _, err = run(capsys, "epsilon", "--input", str(path))
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


@pytest.mark.parametrize("f", ["1/x+", "1/x(x++1)", "1/x(x+-1)"])
def test_dsl_refuses_a_dangling_or_doubled_sign(f, capsys):
    code, out, err = run(capsys, "epsilon", "--builtin", "as:p=3,f=" + f)
    assert code == 2 and out == "" and err.startswith("input error: cannot parse polynomial")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "epschar.cli", "gauss", "--p", "2", "--r", "2",
         "--char", "1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valuations"]["stickelberger"] == "1"


@pytest.mark.parametrize("argv", [
    ["corpus", "--count", "3"],
    ["verify-all", "--builtin", "kummer:p=5,n=2,f=x(x-1)", "--format", "json"],
])
def test_a_closed_stdout_is_not_an_error(argv):
    # the read end is closed before the child writes, so every write to
    # stdout fails with EPIPE, as after `| head -1` has exited; stdout is
    # block-buffered, so output left in its buffer is written again at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "epschar.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0 and err == b""


def test_no_numpy_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, epschar.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_the_cli_does_not_import_the_cyclotomic_ring():
    # the p-adic oracle reads a Gauss index as an int, so no command needs Z[zeta_m]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, epschar.cli; print('epschar.cyclotomic' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_large_gauss_runs_in_bounded_memory():
    # the |tau|^2 float note is O(q) and the p-adic oracle O(q + p^3) in
    # bit operations, with one int of p slots per coordinate; neither
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


def test_the_subcommand_lists_agree():
    # the module docstring, the README's command block and the parser table
    doc = cli.__doc__.split("Subcommands:\n\n")[1].split("\n\n")[0]
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line")[1].split("```text\n")[1].split("```")[0]
    doc_names = re.findall(r"^ *(\S+) ", doc, re.MULTILINE)
    readme_names = re.findall(r"^(\S+) ", block, re.MULTILINE)
    assert doc_names == readme_names == list(cli._COMMANDS)


LONG_NUMBER = "1" * 5000  # past Python's 4300-digit limit for int(str)


@pytest.mark.parametrize("spec", [
    "kummer:p=5,n=2,f=x+" + LONG_NUMBER,
    "kummer:p=5,n=2,f=x^" + LONG_NUMBER,
    "kummer:p=5,n=2,f=(x+1)^-" + LONG_NUMBER,
], ids=["coefficient", "power-of-x", "factor-exponent"])
def test_oversized_dsl_number_is_an_input_error(spec, capsys):
    code, out, err = run(capsys, "epsilon", "--builtin", spec)
    assert code == 2 and out == "" and err.startswith("input error:")


def test_oversized_json_number_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"kind":"kummer","p":%s}' % LONG_NUMBER)
    code, out, err = run(capsys, "epsilon", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("input error:")


def test_oversized_divisor_number_is_an_input_error(capsys):
    code, out, err = run(capsys, "euler", "--builtin", "as:p=2,f=1/x",
                         "--divisor", '{"x": %s}' % LONG_NUMBER)
    assert code == 2 and out == "" and err.startswith("input error:")


def test_zero_dsl_prime_is_an_input_error(capsys):
    for spec in ("kummer:p=0,n=2,f=x+1", "as:p=0,f=1/x"):
        code, out, err = run(capsys, "epsilon", "--builtin", spec)
        assert code == 2 and out == "" and err.startswith("input error:")


def test_quintic_place_near_the_prime_bound_is_fast(capsys):
    # an irreducible quintic over F_999907: p^5 - 1 is never factored
    start = time.perf_counter()
    code, out, _ = run(capsys, "euler", "--builtin",
                       "kummer:p=999907,n=2,f=(x^5+526455x^4+466463x^3+981164x^2+570610x+390133)")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "[ok]" in out
