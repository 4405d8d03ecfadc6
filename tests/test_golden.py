"""Golden outputs: the JSON of four commands on the constructed corpus,
the verification reports on a prefix of a seeded synthetic corpus,
verify-all on a Kummer cover over F_211, and the --help texts.

The digests below were recorded from a known-good build.  Any change to a
printed label, to the order of characters or rows, or to a reported
number changes them; a refactor that keeps the outputs leaves them alone.
"""

import hashlib
import json

import pytest

from epschar.cli import main
from epschar.corpus import constructed_corpus, synthetic_corpus
from epschar.covers import cover_to_json
from epschar.verify import full_verification

COMMANDS = [
    ["verify-all"],
    ["verify-strong", "--oracle", "both"],
    ["epsilon"],
    ["euler"],
]

GOLDEN_SHA256 = "ee71dde1cab734474415fa361742326c0da859f94ff1e651333414a3e3cb022a"

# synthetic_corpus(40, seed=1)[:SYNTHETIC_PREFIX]; cover 6 has places of
# residue degree 8 over F_3, so the p-adic oracle runs on F_3^8.
SYNTHETIC_PREFIX = 8
SYNTHETIC_SHA256 = "d8aff53af7ef525a9c10fa81343b46518040f4f6ab639bee87072efa4440b03b"

# the rest of the same corpus, covers SYNTHETIC_PREFIX to 39
SYNTHETIC_TAIL_SHA256 = "2d61a1b3208a8a7f7bec0ed05eefbd0e0660534232167e365c532ea383089c66"

# tame places over F_211 put the p-adic oracle on p = 211
KUMMER_211 = ["verify-all", "--builtin", "kummer:p=211,n=70,f=x(x-1)", "--format", "json"]
KUMMER_211_SHA256 = "fa17ebbdcc201453037e68b8743b810b354cb1b0692a7871a80400cace12baa5"

# --help of the top-level parser and of every subcommand, at 80 columns
HELP_COMMANDS = [[], ["gauss"], ["epsilon"], ["euler"], ["verify-strong"], ["verify-weak"],
                 ["verify-all"], ["corpus"]]
HELP_SHA256 = "abf1cc8fee944f0292bdcc6ad02980a39e6282de0c62c8ed83694b34876647d4"


def test_cli_json_outputs_are_unchanged(tmp_path, capsys):
    inputs = []
    for i, cover in enumerate(constructed_corpus()):
        path = tmp_path / ("cover%02d.json" % i)
        path.write_text(cover_to_json(cover))
        inputs.append(["--input", str(path)])
    inputs.append(["--builtin", "mixed"])
    digest = hashlib.sha256()
    for source in inputs:
        for command in COMMANDS:
            status = main(command + source + ["--format", "json"])
            out = capsys.readouterr().out
            assert status == 0, (command, source)
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_SHA256


def test_synthetic_reports_are_unchanged():
    covers = synthetic_corpus(40, seed=1)[:SYNTHETIC_PREFIX]
    assert any(q.degree == 8 and c.p == 3 for c in covers for q in c.places)
    digest = hashlib.sha256()
    for cover in covers:
        for rep in full_verification(cover):
            digest.update(json.dumps(rep.to_json_obj(), sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == SYNTHETIC_SHA256


def test_synthetic_reports_past_the_prefix_are_unchanged():
    covers = synthetic_corpus(40, seed=1)[SYNTHETIC_PREFIX:]
    assert len(covers) == 32
    digest = hashlib.sha256()
    for cover in covers:
        for rep in full_verification(cover):
            digest.update(json.dumps(rep.to_json_obj(), sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == SYNTHETIC_TAIL_SHA256


def test_large_prime_kummer_cover_output_is_unchanged(capsys):
    assert main(KUMMER_211) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == KUMMER_211_SHA256


def test_help_texts_are_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    digest = hashlib.sha256()
    for command in HELP_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0, command
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == HELP_SHA256
