"""Golden CLI output: the JSON of four commands on the constructed corpus.

The digest below was recorded from a known-good build.  Any change to a
printed label, to the order of characters or rows, or to a reported
number changes it; a refactor that keeps the outputs leaves it alone.
"""

import hashlib

from epschar.cli import main
from epschar.corpus import constructed_corpus
from epschar.covers import cover_to_json

COMMANDS = [
    ["verify-all"],
    ["verify-strong", "--oracle", "both"],
    ["epsilon"],
    ["euler"],
]

GOLDEN_SHA256 = "ee71dde1cab734474415fa361742326c0da859f94ff1e651333414a3e3cb022a"


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
