"""Rules on the package source that no runtime test would notice being broken."""

import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zetatower"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a correctness check written as one
    # silently stops checking; the package raises instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


MEMO_NAMES = {"cache", "lru_cache"}


def _module_level_memos(source: str, filename: str) -> list:
    """Lines where functools.cache or lru_cache is used outside every function body.

    A decorator of a top-level function or of a method is evaluated at import,
    so its memo lives as long as the module does.
    """
    found, stack = [], [ast.parse(source, filename=filename)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
        elif isinstance(node, ast.Lambda):
            continue
        elif getattr(node, "id", None) in MEMO_NAMES or getattr(node, "attr", None) in MEMO_NAMES:
            found.append(node.lineno)  # a Name or an Attribute
        else:
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_memos_live_inside_functions():
    # a memo at module level would carry work and memory from one sweep into
    # the next; the tower's memos and derive_step's live for one call
    sample = """import functools
@functools.cache
def f(): pass
class C:
    @lru_cache
    def m(self): pass
g = cache(len)
def h():
    @cache
    def inner(): pass
"""
    assert _module_level_memos(sample, "sample") == [2, 5, 7]
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in _module_level_memos(path.read_text(encoding="utf-8"), str(path))
    ]
    assert found == []


def test_a_level_is_its_numerator():
    # steps, Q, genus and P describe a level; its integer view lives on P
    from dataclasses import fields

    from zetatower.curves import ZetaLevel

    assert [f.name for f in fields(ZetaLevel)] == ["steps", "Q", "genus", "P"]
    assert "__post_init__" not in vars(ZetaLevel)


# the Fraction polynomial ring, which lives in tests/ratfunc_oracle.py as RingPoly
RING_NAMES = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__call__", "coeffs", "is_zero"
)


def test_the_package_poly_is_its_view_not_a_ring():
    # a level is its numerator's integer view; a Poly is no iterable either, since __getitem__
    # reads zeros past the degree, so an iteration through it would never end.  The names are
    # looked up on an instance, since every class has a __call__ (its constructor)
    from zetatower import exact_arith
    from zetatower.exact_arith import Poly

    assert [name for name in RING_NAMES if hasattr(Poly([1, 2]), name)] == []
    assert [name for name in ("ZERO", "ONE", "BigRat", "_as_poly") if hasattr(exact_arith, name)] == []
    with pytest.raises(TypeError):
        iter(Poly([1, 2]))


def test_a_base_level_has_one_route_per_job():
    # curves.py turns counts into P and P into counts by one integer Newton recurrence, and reduces
    # mod p through one _reduce; the Fraction forms live in tests/ratfunc_oracle.py
    from zetatower import curves, exact_arith

    assert [name for name in ("newton_power_sums",) if hasattr(exact_arith, name)] == []
    assert [name for name in ("_is_irreducible", "_poly_mod_mul") if hasattr(curves, name)] == []
    path = PACKAGE / "curves.py"
    assert "series_exp" not in _names(path.read_text(encoding="utf-8"), str(path))


def test_only_a_spec_builds_its_base_level():
    # the spec keeps the level artin_zeta built; a second call would build and validate it again
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                called = [node.func for node in ast.walk(fn) if isinstance(node, ast.Call)]
                if any("artin_zeta" in (getattr(f, "id", None), getattr(f, "attr", None)) for f in called):
                    callers.append(f"{path.name}:{fn.name}")
    assert callers == ["curves.py:__post_init__"]


DERIVATIONS = {"derive_step", "derive_tower", "special_values", "interlacing_poly"}


def _names(source: str, filename: str) -> set:
    """Every name a module imports (under its own name) or reads, as a variable or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_cli_reads_levels_only_from_the_tower():
    # derive, invariants and rh-check read rh_lab.curve_tower, so one memo rule serves
    # every command; a derivation used in the CLI would be a second path
    assert _names("from m import derive_step as d\nimport e\ne.special_values", "sample") >= {
        "derive_step", "special_values"
    }
    path = PACKAGE / "cli.py"
    names = _names(path.read_text(encoding="utf-8"), str(path))
    assert "curve_tower" in names
    assert names & DERIVATIONS == set()


def test_the_tower_step_names_no_fraction():
    # the step, its table and its special values run on int pairs; a Fraction there
    # would be one gcd per operation
    assert "Fraction" in _names("import fractions\nfractions.Fraction(1)", "sample")
    path = PACKAGE / "derived_engine.py"
    assert "Fraction" not in _names(path.read_text(encoding="utf-8"), str(path))


def test_the_elliptic_checks_name_no_fraction():
    # the elliptic recursion and the ratio bounds run on int pairs; the Fraction routes
    # to them, the exp series among them, live in tests/ratfunc_oracle.py
    path = PACKAGE / "mult_struct.py"
    assert "Fraction" not in _names(path.read_text(encoding="utf-8"), str(path))


# what forms a Fraction when read: the class and its alias, a coercion, a residue, the coefficient tuple, a
# rational's string (a report string of int pairs goes through exact_arith.pair_str), and a coefficient P[i]
FRACTION_NAMES = {"Fraction", "BigRat", "as_rat", "rat_str", "residue", "residue_inv_q", "coeffs"}

# the functions the sweep's checks run on a level's view ints; "f.g" is g defined in f, a class stands for its methods
CHECK_BODIES = {
    "rh_lab.py": ("rh_exact_genus1", "curve_tower.by_step"),
    "invariants.py": (
        "InvariantSet",
        "reconstruct_numerator",
        "extract_invariants",
        "beta_closed_form",
        "beta_routes_check",
        "counting_miracle_check",
        "interlacing_sign_check",
    ),
    "mult_struct.py": ("elliptic_beta_recursion", "ratio_bounds", "ratio_bounds_check", "step_ratio_checks"),
    "derived_engine.py": ("SpecialValues", "special_values", "composition_sums", "derive_step"),
}


def _fraction_reads(source: str, filename: str, path: str) -> set:
    """What the def at ``path`` ("f", "f.g" nested, or a class for its methods) reads of FRACTION_NAMES, and "P[]".

    KeyError when there is no such def, so a renamed function cannot slip out of the rule.
    """
    nodes = ast.parse(source, filename=filename).body
    for name in path.split("."):
        node = {n.name: n for n in nodes if isinstance(n, (*FUNCTIONS, ast.ClassDef))}[name]
        nodes = node.body
    bodies = [n for n in node.body if isinstance(n, FUNCTIONS)] if isinstance(node, ast.ClassDef) else [node]
    found = set()
    for body in bodies:
        found |= {body_name for body_name in _named([body]) if body_name in FRACTION_NAMES}
        for n in ast.walk(body):
            if isinstance(n, ast.Subscript) and "P" in (getattr(n.value, "id", None), getattr(n.value, "attr", None)):
                found.add("P[]")
    return found


def test_the_sweeps_checks_name_no_fraction():
    # the genus-1 checks compare a level's view ints by cross-multiplication; a Fraction there
    # would be one gcd per operation, as in the step
    sample = (
        "def outer(z):\n"
        "    def inner(w):\n"
        "        return w.P[1] * z.residue()\n"
        "    return inner(z) + Fraction(1)\n"
        "class C:\n"
        "    x = Fraction(1)\n"
        "    def m(self, P):\n"
        "        return P[0] + rat_str(self.coeffs)\n"
    )
    assert _fraction_reads(sample, "sample", "outer.inner") == {"P[]", "residue"}
    assert _fraction_reads(sample, "sample", "outer") == {"P[]", "residue", "Fraction"}
    assert _fraction_reads(sample, "sample", "C") == {"P[]", "rat_str", "coeffs"}
    found = {}
    for module, paths in CHECK_BODIES.items():
        path = PACKAGE / module
        source = path.read_text(encoding="utf-8")
        for name in paths:
            reads = _fraction_reads(source, str(path), name)
            if reads:
                found[f"{module}:{name}"] = sorted(reads)
    assert found == {}


# top-level defs that no command reaches, each kept for the reader named
REACH_ALLOWLIST = {
    "derived_engine.compositions": "perfbench/tracer.py counts what it yields",
    "derived_engine.derive_tower": "perfbench/tracer.py times it",
    "exact_arith.poly_gcd": "perfbench/tracer.py times it",
    "invariants.interlacing_poly": "perfbench/tracer.py times it; tests/test_numerator_pins.py pins it",
}


def _named(nodes) -> set:
    """Every name the nodes read, as a variable or an attribute."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for node in nodes for n in ast.walk(node)} - {None}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own(node) -> list:
    """What a def names when it is reached: a class's decorators, bases and statements, not its methods."""
    if isinstance(node, ast.ClassDef):
        statements = [n for n in node.body if not isinstance(n, FUNCTIONS)]
        return [*node.decorator_list, *node.bases, *node.keywords, *statements]
    return [node]


def _unreached(sources: dict, entry: str) -> list:
    """The top-level defs ("module.name") and methods ("module.Class.name") that a walk from entry never names.

    sources maps a module name to its text.  A top-level def is reached when
    the entry, a reached def or a module-level statement names it; a method
    (a property too) when its class is reached and its name is read, and a
    dunder method with its class.  Names are matched across modules, so the
    walk can only over-reach.
    """
    defs, named = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source, filename=module).body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    defs |= {f"{module}.{node.name}.{n.name}": n for n in node.body if isinstance(n, FUNCTIONS)}
            else:
                named |= _named([node])

    def live(key: str) -> bool:
        owner, _, name = key.rpartition(".")
        if owner not in defs:  # a top-level def
            return name in named
        return owner in reached and (name in named or name.startswith("__") and name.endswith("__"))

    reached, frontier = set(), {entry}
    while frontier:
        reached |= frontier
        named |= _named(n for key in frontier for n in _own(defs[key]))
        frontier = {key for key in defs if live(key)} - reached
    return sorted(defs.keys() - reached)


def test_src_holds_what_the_commands_reach():
    # a def that no command reaches is test or script code; it lives in tests/ or scripts/
    sample = {
        "cli": "from m import helper\ndef main():\n    return helper()\ndef dead():\n    pass\n",
        "m": "TABLE = {'k': Row}\nclass Row:\n    def __init__(self):\n        pass\n"
        "    def cell(self):\n        return leaf()\n    def unread(self):\n        pass\n"
        "def helper():\n    return TABLE['k']().cell()\ndef leaf():\n    pass\ndef planted():\n    return leaf()\n",
    }
    assert _unreached(sample, "cli.main") == ["cli.dead", "m.Row.unread", "m.planted"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreached(sources, "cli.main") == sorted(REACH_ALLOWLIST)


def _load_src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", PACKAGE.parents[1] / "scripts" / "src_lines.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_src_lines_counts_docstrings_and_code_apart(tmp_path, capsys):
    # a docstring line is a line of a module, class or function docstring; a code line is any other line that
    # is neither blank nor a comment only, a string that is not a docstring among them
    script = _load_src_lines()
    sample = (
        '"""Module.\n\nMore."""\n'
        "\n"
        "# a comment\n"
        "class C:\n"
        '    """One line."""\n'
        "    def m(self):\n"
        '        """Two\n        lines."""\n'
        "        x = 1  # code with a comment\n"
        '        "not a docstring"\n'
        "        return x\n"
    )
    assert script.line_counts(sample) == (13, 6, 5)
    (tmp_path / "a.py").write_text(sample, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert script.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "total", "doc", "code"], ["a", "13", "6", "5"], ["b", "2", "0", "1"], ["all", "15", "6", "6"]]


def _unused_imports(source: str, filename: str) -> list:
    """The names a module imports and never reads, ``from __future__ import annotations`` aside.

    A name counts as read where it is a variable, also inside a string annotation.
    """
    tree = ast.parse(source, filename=filename)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported |= {(alias.asname or alias.name).partition(".")[0]: node.lineno for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            note = getattr(node, "annotation", None) or getattr(node, "returns", None)
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted(f"{name}:{line}" for name, line in imported.items() if name not in read)


def test_src_imports_only_what_it_reads():
    # an import nothing reads is a dependency that nothing needs; __init__.py imports to re-export
    sample = (
        "from __future__ import annotations\n"
        "import os.path\nimport mpmath as mp\nfrom itertools import zip_longest\nfrom typing import Sequence\n"
        "def f(x: 'Sequence') -> int:\n    return mp.mpf(x)\n"
    )
    assert _unused_imports(sample, "sample") == ["os:2", "zip_longest:4"]
    found = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text(encoding="utf-8"), str(path))
    ]
    assert found == []
