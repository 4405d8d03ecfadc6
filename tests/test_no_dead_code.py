"""Every function, class and method in src/epschar has a reader.

A definition counts as read when its name appears anywhere in src/,
demos/ or perfbench/ other than on its own def line (perfbench names
its tracer targets in strings, so the search is textual).  Dunder
methods are called by the language and are not checked.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epschar"
SEARCHED = ("src", "demos", "perfbench")

# tests use these as references (ROADMAP item 11); no program code needs them
ALLOWED = {
    "K0Element.regular": "[k[G]] is the reference term of the tabled psi in test_character_tables",
    "DivisorSpec.degree_bar": "deg(D-bar) in test_euler's Riemann-Roch check of the multiplicities",
}


def _definitions():
    """(qualified name, bare name) for every def and class in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    out.append((prefix + child.name, child.name))
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return out


def _name_counts():
    counts = collections.Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            counts.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text(encoding="utf-8")))
    return counts


def _unread():
    counts = _name_counts()
    definitions = _definitions()
    defined = collections.Counter(name for _, name in definitions)
    return sorted(
        qualified
        for qualified, name in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and counts[name] <= defined[name]
    )


def test_every_definition_is_read_outside_its_def_line():
    assert _unread() == sorted(ALLOWED)


def test_the_allowlist_names_existing_definitions():
    qualified = {q for q, _ in _definitions()}
    assert set(ALLOWED) <= qualified
