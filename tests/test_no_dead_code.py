"""Every function, class and method in src/epschar has a reader.

A definition counts as read when code in src/, demos/ or perfbench/
names it, or when perfbench/tracer.py resolves it from a string.  A
module-level def is read through a bare name, an imported name, or an
attribute of an epschar module (covers.kummer_cover); a method or
property only through an attribute access on something other than an
epschar module.  So a local variable does not count for a method, and a
method or attribute does not count for a module-level def of the same
name.  An attribute name that several classes define (Subgroup.elements,
FieldContext.elements) cannot tell them apart, so such a method counts
as read only when SHARED_READERS quotes a line of program code that
reads it.  Words in comments and docstrings do not count.  Dunder
methods are called by the language and are not checked.
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
    "Character.is_trivial": "test_groups checks that chi * chi.inverse() and trivial_character() are trivial",
    "MultChar.inverse": "the inverse character's index in test_cyclotomic's test_multchar_basics",
    "FieldContext.elements": "the elements of F_q that test_padic's Teichmuller-lift tests run over",
    "DivisorSpec.zero": "the zero divisor of test_acceptance's criterion 6, the Riemann-Roch totals",
}

# methods whose name another class also defines, each with a line of program
# code that reads it: (file under the repository root, text of that line)
SHARED_READERS = {
    "AbelianGroup.characters": ("src/epschar/covers.py", "return self.group.characters()"),
    "Subgroup.characters": ("src/epschar/verify.py", "sub.characters(), restrict(e_cover, sub)"),
    "CoverDatum.characters": ("src/epschar/euler.py", "chars = cover.characters()"),
    "EpsilonLedger.describe": ("src/epschar/cli.py", "first.describe()"),
    "VerificationReport.describe": ("src/epschar/cli.py", "rep.describe()"),
    "Subgroup.elements": ("src/epschar/verify.py", "for g in group.elements():"),
    "RationalFunctionDivisor.function_label": ("src/epschar/covers.py", "self.divisor.function_label()"),
    "CoverDatum.function_label": ("src/epschar/covers.py", 'f=%s" % self.function_label'),
    "Character.inverse": ("src/epschar/covers.py", "xi.inverse()"),
    "MultChar.is_trivial": ("src/epschar/cyclotomic.py", "if chi.is_trivial:"),
    "FieldContext.mul": ("perfbench/tracer.py", '"fields.FieldContext.mul"'),
    "Subgroup.mul": ("src/epschar/groups.py", "step = root.mul(step, g)"),
    "Subgroup.order": ("src/epschar/covers.py", "return self.inertia.order"),
    "Character.order": ("src/epschar/covers.py", "xi.order != q.e_t"),
    "PrimePower.q": ("src/epschar/stickelberger.py", "pp.q - 2"),
    "TameLocalDatum.q": ("src/epschar/stickelberger.py", "% (datum.q - 1)"),
    "DivisorSpec.value": ("src/epschar/euler.py", "lm_decompose(q, D.value(q))"),
    "Character.value": ("src/epschar/groups.py", "chi.value(generator) == target"),
    "K0Element.zero": ("src/epschar/euler.py", "K0Element.zero(cover.group"),
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
                    if _is_module(node.value):
                        counts[node.attr] += 1
                    else:
                        members[node.attr] += 1
                elif isinstance(node, ast.alias):
                    counts.update(node.name.split("."))
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


def test_each_shared_method_has_its_quoted_reader():
    shared = _shared_names()
    for qualified, (path, text) in SHARED_READERS.items():
        name = qualified.rsplit(".", 1)[1]
        assert name in shared, qualified
        assert "." + name in text, (qualified, text)
        lines = (ROOT / path).read_text(encoding="utf-8").splitlines()
        assert any(text in line and not line.lstrip().startswith("#") for line in lines), (qualified, text)
