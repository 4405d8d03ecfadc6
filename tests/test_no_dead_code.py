"""Every function, class and method in src/epschar has a reader.

A definition counts as read when code in src/, demos/ or perfbench/
names it, or when perfbench/tracer.py resolves it from a string.  A
module-level def is read through a bare name, an imported name, or an
attribute of an epschar module (covers.kummer_cover); a method or
property only through an attribute access.  So a local variable does
not count for a method, and a method or attribute does not count for a
module-level def of the same name.  Words in comments and docstrings do
not count.  Dunder methods are called by the language and are not
checked.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epschar"
SEARCHED = ("src", "demos", "perfbench")
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} | {"epschar"}

# tests use these as references (ROADMAP item 11); no program code needs them
ALLOWED = {
    "K0Element.regular": "[k[G]] is the reference term of the tabled psi in test_character_tables",
    "DivisorSpec.degree_bar": "deg(D-bar) in test_euler's Riemann-Roch check of the multiplicities",
    "g_term": "the per-embedding term test_euler sums to check the closed route's _closed_numerator",
    "CyclotomicInt.zeta": "the generator test_cyclotomic's order and Galois-twist tests start from",
    "prime_divisors": "the relevant primes of each group in test_acceptance's criterion 4",
}


def _definitions():
    """(qualified name, bare name, whether a class holds it) for every def
    and class in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    out.append((prefix + child.name, child.name, in_class))
                    walk(child, prefix + child.name + ".", isinstance(child, ast.ClassDef))
                else:
                    walk(child, prefix, in_class)

        walk(tree, "", False)
    return out


def _tracer_names():
    """The module-level names and the member names the tracer resolves: a
    TARGETS entry is module.name[.member], a CACHES entry names a module
    attribute."""
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("TARGETS", "CACHES")
    }
    parts = [target.split(".") for _, target, _ in tables["TARGETS"]]
    top = [name for _, name, *_ in parts] + [attr for _, _, attr in tables["CACHES"]]
    return top, [member for _, _, *rest in parts for member in rest]


def _is_module(node):
    """Whether an expression names an epschar module: covers, epschar.covers."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in MODULES


def _name_counts():
    """Reads of each name as a module-level def, and as a method or property."""
    names, member_names = _tracer_names()
    counts, members = collections.Counter(names), collections.Counter(member_names)
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    members[node.attr] += 1
                    if _is_module(node.value):
                        counts[node.attr] += 1
                elif isinstance(node, ast.alias):
                    counts.update(node.name.split("."))
    return counts, members


def _unread():
    counts, members = _name_counts()
    return sorted(
        qualified
        for qualified, name, in_class in _definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and not (members if in_class else counts)[name]
    )


def test_every_definition_is_read_outside_its_def_line():
    assert _unread() == sorted(ALLOWED)


def test_the_allowlist_names_existing_definitions():
    qualified = {q for q, _, _ in _definitions()}
    assert set(ALLOWED) <= qualified
