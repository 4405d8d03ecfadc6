"""Every function, class and method in src/epschar has a reader.

A definition counts as read when code in src/, demos/ or perfbench/
names it, or when perfbench/tracer.py resolves it from a string.  A
module-level def is read through a bare name, an imported name, or an
attribute of an epschar module (covers.kummer_cover); a method or
property only through an attribute access on something other than an
epschar module.  So a local variable does not count for a method, and a
method or attribute does not count for a module-level def of the same
name.  An attribute name that several classes define (Subgroup.mul,
FieldContext.mul) cannot tell them apart, so such a method counts as
read only when SHARED_READERS quotes a line of program code that reads
it.  Words in comments and docstrings do not count.  Dunder methods are
called by the language and are not checked.  ALLOWED holds the
definitions only tests read, and a test must read each of them.
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
}

# methods whose name another class also defines, each with a line of program
# code that reads it: (file under the repository root, text of that line)
SHARED_READERS = {
    "AbelianGroup.characters": ("src/epschar/covers.py", "return self.group.characters()"),
    "Subgroup.characters": ("src/epschar/verify.py", "sub.characters(), restrict(e_cover, sub)"),
    "CoverDatum.characters": ("src/epschar/euler.py", "chars = cover.characters()"),
    "EpsilonLedger.describe": ("src/epschar/cli.py", "first.describe()"),
    "VerificationReport.describe": ("src/epschar/cli.py", "rep.describe()"),
    "RationalFunctionDivisor.function_label": ("src/epschar/covers.py", "self.divisor.function_label()"),
    "CoverDatum.function_label": ("src/epschar/covers.py", 'f=%s" % self.function_label'),
    "FieldContext.mul": ("perfbench/tracer.py", '"fields.FieldContext.mul"'),
    "Subgroup.mul": ("src/epschar/groups.py", "step = root.mul(step, g)"),
    "Subgroup.order": ("src/epschar/covers.py", "return self.inertia.order"),
    "Character.order": ("src/epschar/covers.py", "xi.order != q.e_t"),
    "PrimePower.q": ("src/epschar/stickelberger.py", "pp.q - 2"),
    "TameLocalDatum.q": ("src/epschar/stickelberger.py", "% (datum.q - 1)"),
    "DivisorSpec.value": ("src/epschar/euler.py", "lm_decompose(q, D.value(q))"),
    "Character.value": ("src/epschar/groups.py", "chi.value(generator) == target"),
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


def _reads(tops):
    """Reads of each name as a module-level def, and as a method or property,
    in the Python files under the given folders of the repository."""
    counts, members = collections.Counter(), collections.Counter()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    if _is_module(node.value):
                        counts[node.attr] += 1
                    else:
                        members[node.attr] += 1
                elif isinstance(node, ast.alias):
                    counts.update(node.name.split("."))
    return counts, members


def _name_counts():
    """Reads in program code and through the tracer's strings."""
    names, member_names = _tracer_names()
    counts, members = _reads(SEARCHED)
    counts.update(names)
    members.update(member_names)
    return counts, members


def _shared_names():
    """Method names that more than one class defines."""
    names = collections.Counter(name for _, name, in_class in _definitions() if in_class)
    return {name for name, n in names.items() if n > 1}


def _unread():
    counts, members = _name_counts()
    shared = _shared_names()
    return sorted(
        qualified
        for qualified, name, in_class in _definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and (not (members if in_class else counts)[name]
             or in_class and name in shared and qualified not in SHARED_READERS)
    )


def test_every_definition_is_read_outside_its_def_line():
    assert _unread() == sorted(ALLOWED)


def test_the_allowlist_names_existing_definitions():
    qualified = {q for q, _, _ in _definitions()}
    assert set(ALLOWED) <= qualified
    assert set(SHARED_READERS) <= qualified


def test_each_allowed_definition_is_read_by_a_test():
    counts, members = _reads(("tests",))
    for qualified in ALLOWED:
        owner, _, name = qualified.rpartition(".")
        assert (members if owner else counts)[name], qualified


def test_each_shared_method_has_its_quoted_reader():
    shared = _shared_names()
    for qualified, (path, text) in SHARED_READERS.items():
        name = qualified.rsplit(".", 1)[1]
        assert name in shared, qualified
        assert "." + name in text, (qualified, text)
        lines = (ROOT / path).read_text(encoding="utf-8").splitlines()
        assert any(text in line and not line.lstrip().startswith("#") for line in lines), (qualified, text)
