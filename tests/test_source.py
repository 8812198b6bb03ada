"""Rules on the package source itself."""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import tropical_refine

SRC = Path(__file__).resolve().parents[1] / "src"


def _raised_name(node) -> str | None:
    """The name a `raise` raises: X of `raise X`, `raise X(...)` or
    `raise module.X(...)`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def _raises_assertion_error(node) -> bool:
    return _raised_name(node) == "AssertionError"


def test_no_assert_statements_in_src():
    # invariants are enforced with exceptions: `python -O` strips asserts,
    # and a hand-raised AssertionError is not a TropicalError callers catch
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.relative_to(SRC)}:{node.lineno}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)
                     or isinstance(node, ast.Raise) and node.exc is not None
                     and _raises_assertion_error(node))
    assert found == []


def test_the_source_rule_sees_hand_raised_assertion_errors():
    code = ("raise AssertionError('x')\nraise AssertionError\n"
            "raise ValueError\nraise builtins.AssertionError\n")
    raised = [node for node in ast.walk(ast.parse(code))
              if isinstance(node, ast.Raise)]
    assert [_raises_assertion_error(node) for node in raised] == [
        True, True, False, True]


def _sites(code: str, module: str, hit) -> list[str]:
    """The innermost function or class around every node of a module that
    `hit` accepts, as `module.Class.method`, once per node;
    `module.<module>` outside any."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, owner + (child.name,))
                continue
            if hit(child):
                found.append(".".join((module,) + (owner or ("<module>",))))
            visit(child, owner)

    visit(ast.parse(code), ())
    return found


def _raise_sites(code: str, module: str, name: str) -> list[str]:
    """The `_sites` of every `raise` of the exception `name`."""
    return _sites(code, module, lambda node: isinstance(node, ast.Raise)
                  and _raised_name(node) == name)


TYPE_CHECKERS = {"lattice._int", "laurent._poly", "lattice.as_fraction",
                 "lattice.Vec.__new__", "laurent.HalfLaurent.__init__"}


def test_every_type_error_is_raised_by_a_checker():
    # one argument policy: `_int` and `_poly` refuse a wrong type and name
    # the argument, `as_fraction` is the one exact-rational check, and the
    # Vec and HalfLaurent constructors check their shapes; a hand-written
    # refusal elsewhere is a new message shape and a check to keep in step
    found = [site for path in sorted(SRC.rglob("*.py"))
             for site in _raise_sites(path.read_text(encoding="utf-8"),
                                      path.stem, "TypeError")]
    assert [site for site in found if site not in TYPE_CHECKERS] == []
    assert set(found) == TYPE_CHECKERS


def test_the_type_error_rule_sees_each_kind():
    code = ("raise TypeError\n"
            "def _int(v):\n    raise TypeError(f'{v}')\n"
            "class K:\n    def __init__(self):\n"
            "        raise TypeError('x') from None\n"
            "    def m(self):\n        def inner():\n            raise TypeError\n"
            "        raise ValueError('y')\n"
            "async def a():\n    raise TypeError()\n"
            "def f():\n    raise\n")
    assert sorted(_raise_sites(code, "mod", "TypeError")) == [
        "mod.<module>", "mod.K.__init__", "mod.K.m.inner", "mod._int",
        "mod.a"]
    assert _raise_sites(code, "mod", "ValueError") == ["mod.K.m"]


def test_every_wall_is_raised_by_the_solve_or_the_tie_test():
    # a draw on a wall raises NonGenericMoments in two places only: the
    # per-type solve, on a zero length, and the count's tie test, where a
    # child split sits at its parent's key; a second site in the count is
    # a second wall test to keep in step with the first
    found = sorted(site for path in sorted(SRC.rglob("*.py"))
                   for site in _raise_sites(path.read_text(encoding="utf-8"),
                                            path.stem, "NonGenericMoments"))
    assert found == ["solver._side", "solver.solve"]


def test_the_wall_rule_sees_each_kind():
    code = ("def solve(t):\n    raise NonGenericMoments('zero length')\n"
            "def _side(rows):\n    if rows:\n"
            "        raise NonGenericMoments('tie')\n"
            "def _subtrees():\n    raise errors.NonGenericMoments\n"
            "def other():\n    raise TypeError('x')\n")
    assert _raise_sites(code, "solver", "NonGenericMoments") == [
        "solver.solve", "solver._side", "solver._subtrees"]


def _name_sites(code: str, module: str, name: str) -> list[str]:
    """The innermost function or class around every place a module names
    `name` (a name, an attribute, an import or a definition), as
    `module.Class.method`, once per place; `module.<module>` outside any.
    A definition is placed where it is made, not inside itself."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            names = {getattr(child, field, None)
                     for field in ("id", "attr", "name", "asname")}
            if name in names:
                found.append(".".join((module,) + (owner or ("<module>",))))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, owner + (child.name,))
            else:
                visit(child, owner)

    visit(ast.parse(code), ())
    return found


def test_one_place_builds_a_tree_from_splits():
    # a counted curve's tree comes from its splits in one place, the
    # record's lazy tree; no other module rebuilds one
    found = sorted(site for path in sorted(SRC.rglob("*.py"))
                   for site in _name_sites(path.read_text(encoding="utf-8"),
                                           path.stem, "type_from_clades"))
    assert found == ["solver.<module>", "solver.TropicalSolution._typed",
                     "trees.<module>"]


def test_the_name_rule_sees_each_kind():
    code = ("from .trees import type_from_clades\n"
            "import trees as type_from_clades\n"
            "def type_from_clades(dirs, splits):\n    return dirs\n"
            "class K:\n    built = type_from_clades\n"
            "    def m(self):\n        return trees.type_from_clades(1, 2)\n"
            "def f():\n    def g():\n        return type_from_clades\n"
            "    return 'type_from_clades'\n"
            "def other(type_from):\n    return type_from\n")
    assert _name_sites(code, "mod", "type_from_clades") == [
        "mod.<module>", "mod.<module>", "mod.<module>", "mod.K", "mod.K.m",
        "mod.f.g"]


def test_one_place_sums_n_from_a_count():
    # a count becomes N in its TrialRecord, which sums it from the tally of
    # its split tuples and which refined_count and sample_trial both build;
    # the brute-force oracle sums its own N
    found = sorted(site for path in sorted(SRC.rglob("*.py"))
                   for site in _name_sites(path.read_text(encoding="utf-8"),
                                           path.stem, "_n_from_mults"))
    assert found == ["invariants.<module>", "invariants.TrialRecord.__init__",
                     "invariants.refined_count_brute"]


def test_the_n_rule_sees_each_caller():
    code = ("def _n_from_mults(mults):\n    return mults\n"
            "class TrialRecord:\n    def __init__(self, curves):\n"
            "        self.n = _n_from_mults(c.mults for c in curves)\n"
            "def refined_count(mu):\n"
            "    return invariants._n_from_mults(mu), mu\n"
            "def sample_trial(seed):\n    n = _n_from_mults\n"
            "    return '_n_from_mults', seed\n")
    assert _name_sites(code, "invariants", "_n_from_mults") == [
        "invariants.<module>", "invariants.TrialRecord.__init__",
        "invariants.refined_count", "invariants.sample_trial"]


def _message_sites(code: str, module: str, text: str) -> list[str]:
    """The `_sites` of every `raise` whose message holds `text`, in a
    plain string or in a literal part of an f-string."""
    return _sites(code, module, lambda node: isinstance(node, ast.Raise)
                  and node.exc is not None
                  and any(isinstance(part, ast.Constant)
                          and isinstance(part.value, str)
                          and text in part.value
                          for part in ast.walk(node.exc)))


RULE_CHECKERS = {
    "a curve needs at least 3 ends": "lattice._three_ends",
    "degree entries must sum to zero": "lattice._balanced",
    "not supported, only 1 and 2": "lattice._end_weight",
    "directions, need exactly one": "lattice._one_divisor",
    "all directions lie on one line": "lattice._spans_plane",
    "moments for a degree with": "lattice._moment_count",
    "ends is past the bound of": "lattice._at_most_max_ends",
    "must be at least 1": "realsplit._at_least_1",
    "is empty": "cli._fields",
}


@pytest.mark.parametrize("text", RULE_CHECKERS)
def test_each_rule_is_raised_by_its_one_checker(text):
    # the end rules a count rests on are written once, in lattice, and
    # shared by degrees, trees and the real side; the quantum helpers'
    # range and the CLI's empty field have one checker each too. A second
    # raise of one is a second copy of its test and its words
    found = sorted(site for path in sorted(SRC.rglob("*.py"))
                   for site in _message_sites(path.read_text(encoding="utf-8"),
                                              path.stem, text))
    assert found == [RULE_CHECKERS[text]]


def test_the_message_rule_sees_each_kind():
    code = ("raise TooFewEnds('a curve needs at least 3 ends')\n"
            "def f(n):\n"
            "    raise errors.TooFewEnds(f'a curve needs at least 3 ends, "
            "got {n}') from None\n"
            "def g(n):\n    raise ValueError(n, 'so a curve needs at least "
            "3 ends')\n"
            "def h(n):\n    text = 'a curve needs at least 3 ends'\n"
            "    raise TooFewEnds(f'need at least 3 ends, got {n}')\n")
    assert _message_sites(code, "mod", "a curve needs at least 3 ends") == [
        "mod.<module>", "mod.f", "mod.g"]


COPY_LINES = 4


def _code_lines(code: str) -> list[tuple[int, str]]:
    """(line number, text) of every code line of a module, with comments
    cut off and runs of whitespace made one space; blank lines, comments,
    docstrings and imports are left out."""
    skip = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    lines = code.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(code).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    return [(number, " ".join(text.split()))
            for number, text in enumerate(lines, 1)
            if number not in skip and text.strip()]


def _copied_blocks(modules: dict[str, str]) -> list[list[str]]:
    """Every run of COPY_LINES consecutive code lines that occurs more than
    once in the modules (name: source), as the `name:line` where each copy
    starts."""
    starts: dict[tuple[str, ...], list[str]] = {}
    for name, code in modules.items():
        lines = _code_lines(code)
        for i in range(len(lines) - COPY_LINES + 1):
            block = tuple(text for _, text in lines[i:i + COPY_LINES])
            starts.setdefault(block, []).append(f"{name}:{lines[i][0]}")
    return [places for places in starts.values() if len(places) > 1]


def test_no_block_of_code_is_written_twice():
    # a copied block is a second place to keep in step with the first;
    # it becomes one helper. trees._grow and type_from_clades share a
    # three-line leaf insertion, under the limit, on purpose (see trees)
    modules = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    assert _copied_blocks(modules) == []


def test_the_copy_rule_sees_each_kind():
    head = ('"""A module."""\nimport os\nimport sys\n'
            'from json import (dumps,\n                  loads)\n')
    one = head + ("def f(xs):\n"
                  "    \"\"\"Sum xs.\n\n    Each one.\n    \"\"\"\n"
                  "    total = 0\n    for x in xs:  # each\n\n"
                  "        total += x\n    return total\n")
    two = head + ("class K:\n    \"\"\"Sum xs.\n\n    Each one.\n    \"\"\"\n"
                  "    def g(self, xs):\n        total  =  0\n"
                  "        # every x\n        for x in xs:\n"
                  "            total += x\n        return total\n"
                  "def h(xs):\n    total = 0\n    for x in xs:\n"
                  "        total -= x\n    return total\n")
    # the docstrings and imports repeat, and so do three lines of h
    assert _copied_blocks({"one": one, "two": two}) == [["one:11",
                                                         "two:12"]]
    assert _code_lines(one)[:2] == [(6, "def f(xs):"), (11, "total = 0")]
    assert _copied_blocks({"one": one}) == []


def _camel_keyed_dict(node) -> bool:
    """A dict display with a camelCase string key, as a payload has."""
    return isinstance(node, ast.Dict) and any(
        isinstance(key, ast.Constant) and isinstance(key.value, str)
        and key.value[:1].islower() and not key.value.islower()
        for key in node.keys)


def _json_functions(code: str, module: str) -> list[str]:
    """Every function of a module whose name says json, as
    `module.Class.function`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if ("json" in child.name
                        and not isinstance(child, ast.ClassDef)):
                    found.append(".".join((module, *owner, child.name)))
                visit(child, owner + (child.name,))

    visit(ast.parse(code), ())
    return found


JSON_VALUE_FORMATS = ["lattice.Degree.from_json", "lattice.Degree.to_json",
                      "laurent.HalfLaurent.from_json_pairs",
                      "laurent.HalfLaurent.to_json_pairs"]


def test_only_cli_builds_a_command_payload():
    # each command's JSON shape lives in cli, next to its runner; the other
    # modules keep only the value formats a payload is made of
    payloads, functions = set(), []
    for path in sorted(SRC.rglob("*.py")):
        code = path.read_text(encoding="utf-8")
        payloads |= {site.split(".")[0]
                     for site in _sites(code, path.stem, _camel_keyed_dict)}
        if path.stem != "cli":
            functions += _json_functions(code, path.stem)
    assert payloads == {"cli"}
    assert sorted(functions) == JSON_VALUE_FORMATS


def test_the_payload_rules_see_each_kind():
    code = ("PAYLOAD = {'solutionCount': 1}\n"
            "class Report:\n    def to_json(self):\n"
            "        return {'seed': 1, **{'refinedCountText': ''}}\n"
            "    def text(self):\n        return {'seed': 1, 'Name': 2}\n"
            "def solution_json(sol):\n    return dict(solutionCount=1)\n"
            "async def as_json():\n    def inner_json(): pass\n")
    assert _sites(code, "mod", _camel_keyed_dict) == [
        "mod.<module>", "mod.Report.to_json"]
    assert _json_functions(code, "mod") == [
        "mod.Report.to_json", "mod.solution_json", "mod.as_json",
        "mod.as_json.inner_json"]


def test_every_export_exists_once():
    # a deleted name left in __all__ breaks `from tropical_refine import *`
    names = tropical_refine.__all__
    assert len(set(names)) == len(names)
    star = {}
    exec("from tropical_refine import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(names)
    # each export is the very object its defining module holds
    assert [n for n in names if star[n] is not getattr(
        sys.modules[star[n].__module__], n)] == []
    assert set(names) <= set(dir(tropical_refine))
    with pytest.raises(AttributeError, match="no_such_name"):
        tropical_refine.no_such_name


def _defaulted_parameters(code: str, module: str) -> list[str]:
    """Every function of a module with a parameter that has a default, as
    `module.function(parameters)`; an `__init__` is named by its class."""
    tree = ast.parse(code)
    found = []
    for owner in ast.walk(tree):
        body = getattr(owner, "body", ())
        for fn in body if isinstance(body, list) else ():
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional)
                                               - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            if names:
                name = (owner.name if fn.name == "__init__"
                        and isinstance(owner, ast.ClassDef) else fn.name)
                found.append(f"{module}.{name}({', '.join(names)})")
    return found


def test_every_default_parameter_is_pinned():
    # an option only tests set is a second path to keep working; a new
    # default has to be added here, where review sees it
    found = sorted(entry for path in SRC.rglob("*.py")
                   for entry in _defaulted_parameters(
                       path.read_text(encoding="utf-8"), path.stem))
    assert found == ["cli.main(argv)", "lattice.Degree(name)"]


def test_the_default_rule_sees_each_kind():
    code = ("def f(a, b=1, *, c, d=2): pass\n"
            "def g(a): pass\n"
            "class K:\n    def __init__(self, x=0): pass\n"
            "    def m(self, y=None): pass\n"
            "def outer():\n    def inner(z=3): pass\n")
    assert sorted(_defaulted_parameters(code, "mod")) == [
        "mod.K(x)", "mod.f(b, d)", "mod.inner(z)", "mod.m(y)"]


CONTRACT = ("__setattr__", "__delattr__", "__eq__", "__hash__")


def test_the_record_contract_is_written_once():
    # the guards, equality and hash of every record live in lattice.Record;
    # HalfLaurent alone keeps its own equality, under which a constant
    # polynomial equals its int
    found = {name: [] for name in CONTRACT}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                names = ([stmt.name] if isinstance(stmt, ast.FunctionDef)
                         else [t.id for t in getattr(stmt, "targets", ())
                               if isinstance(t, ast.Name)])
                for name in set(names) & found.keys():
                    found[name].append(f"{path.name}:{cls.name}")
    assert found == {"__setattr__": ["lattice.py:Record"],
                     "__delattr__": ["lattice.py:Record"],
                     "__eq__": ["lattice.py:Record", "laurent.py:HalfLaurent"],
                     "__hash__": ["lattice.py:Record",
                                  "laurent.py:HalfLaurent"]}


STORES = {"__setattr__", "_set", "setattr"}


def _stores(node) -> bool:
    """A call that stores an attribute by name: `object.__setattr__`, any
    other `__setattr__`, a `_set` helper or the builtin `setattr`."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        getattr(func, "attr", None) in STORES
        or getattr(func, "id", None) in STORES)


def test_every_record_field_is_stored_by_its_constructor():
    # a record's fields are stored once, by its own constructor, past the
    # guard lattice.Record puts on setting them; the one lazy field is the
    # curve's tree, and a pickled or copied record is rebuilt by its
    # constructor. A store anywhere else writes into a record that may
    # already be shared, hashed or a cache key, so a new writer has to be
    # added here, where review sees it. functools.cached_property values
    # are derived, not fields, and bypass the guard by design.
    found = sorted({site for path in sorted(SRC.rglob("*.py"))
                    for site in _sites(path.read_text(encoding="utf-8"),
                                       path.stem, _stores)})
    assert found == ["invariants.TrialRecord.__init__",
                     "lattice.Degree.__init__",
                     "lattice.MomentVector.__init__",
                     "laurent.HalfLaurent.__init__",
                     "laurent.HalfLaurent._of",
                     "realsplit.RealSplit.__init__",
                     "realsplit.WeightedPlaneParam.__init__",
                     "solver.TropicalSolution.__init__",
                     "solver.TropicalSolution._typed",
                     "trees.CombinatorialType.__init__"]


def test_the_store_rule_sees_each_kind():
    code = ("object.__setattr__(x, 'a', 1)\n"
            "class K:\n    def __init__(self, a):\n"
            "        object.__setattr__(self, 'a', a)\n"
            "        self._set(b=a)\n"
            "    @classmethod\n    def _of(cls, a):\n"
            "        def inner(s):\n            setattr(s, 'a', a)\n"
            "        return super().__setattr__('a', a)\n"
            "def f(r):\n    r.a = 1\n    getattr(r, 'a')\n"
            "    return r.__setattr__\n")
    assert _sites(code, "mod", _stores) == [
        "mod.<module>", "mod.K.__init__", "mod.K.__init__", "mod.K._of.inner",
        "mod.K._of"]


def _fresh_load(code: str) -> set[str]:
    """The modules a fresh interpreter loads to run code; those it held
    before (the ones `site` imports) do not count."""
    probe = ("import sys\n_before = set(sys.modules)\n" + code
             + "\nprint(*sorted(set(sys.modules) - _before))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _cli_main(*argv: str) -> str:
    return ("import contextlib, io\nfrom tropical_refine.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = main({list(argv)!r})\n"
            "if status:\n    raise SystemExit(status)")


BASE = {"errors", "lattice", "laurent"}
CLI = BASE | {"cli"}
COUNTING = CLI | {"invariants", "solver", "trees"}
TRIANGLE = "--degree=-1,0;0,-1;1,1"


@pytest.mark.parametrize("code, loaded", [
    ("import tropical_refine", set()),
    ("import tropical_refine\ntropical_refine.realsplit", BASE | {"realsplit"}),
    ("import tropical_refine.svgplot", {"errors", "lattice", "svgplot"}),
    ("import tropical_refine.cli", CLI),
    (_cli_main("quantum", "--m1", "3"), CLI | {"realsplit"}),
    (_cli_main("enumerate", TRIANGLE, "--moments=3,2"), COUNTING),
    (_cli_main("invariant", TRIANGLE, "--trials=2"), COUNTING),
    (_cli_main("realize", "--degree=-1,0;-1,0;0,-1;0,-1;1,1;1,1", "--s=1"),
     COUNTING | {"realsplit"}),
    (_cli_main("plot", TRIANGLE, "--moments=3,2"), COUNTING | {"svgplot"}),
], ids=["package", "package-realsplit", "svgplot", "cli", "cli-quantum",
        "cli-enumerate", "cli-invariant", "cli-realize", "cli-plot"])
def test_fresh_interpreter_loads_only_what_it_uses(code, loaded):
    # exactly these modules: none is imported at load time only for an
    # annotation or for a command that does not run
    new = _fresh_load(code)
    modules = {m.removeprefix("tropical_refine.") for m in new
               if m.startswith("tropical_refine.")}
    assert modules == loaded
    # records are NamedTuples or small classes, so that no cold command
    # pays for importing dataclasses and the inspect module it pulls in
    assert new.isdisjoint({"dataclasses", "inspect"})


def _loaded(tree, attributes: bool = True) -> set[str]:
    """Every name the module reads: plain names, names in quoted annotations,
    the strings of __all__ and, unless `attributes` is False, attribute
    names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and attributes:
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _loaded(ast.parse(node.value, mode="eval"),
                                 attributes)
            except SyntaxError:
                pass
    return names


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unused_names(code: str) -> list[str]:
    """Imported names a module never reads by name, and private names or
    ALL-CAPS constants it defines at module or class level and never reads.

    An import counts as read only where the module names it, in code or in
    an annotation; `obj.name` reads an attribute, not the imported `name`.
    A private name also counts as read as an attribute, as `self._slot`.
    """
    tree = ast.parse(code)
    imported, defined = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) and _private(stmt.name):
                    defined.append(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = (stmt.targets if isinstance(stmt, ast.Assign)
                               else [stmt.target])
                    defined += [t.id for t in targets
                                if isinstance(t, ast.Name)
                                and (_private(t.id) or t.id.isupper())]
    named, loaded = _loaded(tree, attributes=False), _loaded(tree)
    return sorted([name for name in imported if name not in named]
                  + [name for name in defined if name not in loaded])


def _package_imports(code: str) -> set[tuple[str, str]]:
    """(module, name) for every `from .module import name` of a module."""
    return {(node.module, alias.name) for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module for alias in node.names}


def test_no_unused_imports_or_private_names_in_src():
    # a deleted helper must take its imports and constants with it; a
    # private helper another module imports, as `lattice._int`, has a caller
    paths = sorted(SRC.rglob("*.py"))
    imported = {pair for path in paths
                for pair in _package_imports(path.read_text(encoding="utf-8"))}
    found = [f"{path.relative_to(SRC)}: {name}" for path in paths
             for name in _unused_names(path.read_text(encoding="utf-8"))
             if not (_private(name) and (path.stem, name) in imported)]
    assert found == []


def test_the_package_import_rule_reads_relative_imports():
    code = ("from .lattice import _int, Vec as V\nfrom . import solver\n"
            "from lattice import _three_ends\nimport trees\n"
            "def f():\n    from .laurent import _poly\n")
    assert _package_imports(code) == {("lattice", "_int"), ("lattice", "Vec"),
                                      ("laurent", "_poly")}


def test_the_unused_name_rule_sees_each_kind():
    code = ("from __future__ import annotations\n"
            "import os, json\nfrom m import a, b as c\n"
            "_SEEN = 1\n_UNSEEN = 2\nTOLD = 3\nPUBLIC = 4\n"
            "def _helper(): return json.dumps(_SEEN)\n"
            "def public(x: 'a') -> None: return TOLD\n"
            "class K:\n    _slot = 1\n    def _m(self): return self._slot\n")
    assert _unused_names(code) == ["PUBLIC", "_UNSEEN", "_helper", "_m", "c",
                                   "os"]


def test_the_unused_import_rule_reads_names_not_attributes():
    # an import read only as some object's attribute is left behind, as
    # `solve` would be if the module only called `solver.solve`; a
    # TYPE_CHECKING import is read where an annotation names it
    code = ("from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "from . import solver\nfrom .solver import solve\n"
            "if TYPE_CHECKING:\n    from .trees import Tree, Unread\n"
            "def count(t: Tree, u: 'Forest') -> int:\n"
            "    return solver.solve(t).Unread\n")
    assert _unused_names(code) == ["Unread", "solve"]


def _call_sites(code: str, module: str, method: str) -> list[str]:
    """The innermost function around every `.method(...)` call of a module,
    as `module.function`, once per call; `module.<module>` outside any."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == method):
                found.append(f"{module}.{owner}")
            visit(child, owner)

    visit(ast.parse(code), "<module>")
    return found


def test_every_division_is_pinned():
    # the theorem's division, the Broccoli definition and sum m'/4; m' and
    # the quantum table multiply, so a division there fails this test
    found = sorted(site for path in SRC.rglob("*.py")
                   for site in _call_sites(path.read_text(encoding="utf-8"),
                                           path.stem, "exact_div"))
    assert found == ["cli.run_realize", "invariants._r_and_bg",
                     "invariants.broccoli_from_r"]


def test_the_call_site_rule_sees_each_kind():
    code = ("x.exact_div(y)\n"
            "def f(a):\n    return a.exact_div(2).exact_div(3)\n"
            "class K:\n    def m(self):\n"
            "        def inner(): return self.exact_div(1)\n"
            "        return exact_div(self)\n")
    assert sorted(_call_sites(code, "mod", "exact_div")) == [
        "mod.<module>", "mod.f", "mod.f", "mod.inner"]


def _self_referring_defs(code: str, module: str) -> list[str]:
    """Every function defined inside another function that names itself,
    in its own body or in a function nested in it, as `module.name`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = {fn for outer in ast.walk(ast.parse(code))
              if isinstance(outer, functions)
              for fn in ast.walk(outer)
              if fn is not outer and isinstance(fn, functions)}
    return [f"{module}.{fn.name}" for fn in nested
            if any(isinstance(node, ast.Name) and node.id == fn.name
                   for node in ast.walk(fn))]


def test_no_nested_function_refers_to_itself():
    # a nested function that names itself holds its own closure cell, a
    # reference cycle that keeps everything it closes over alive until the
    # cyclic collector runs; recursion lives in module-level helpers that
    # take their state as arguments
    found = sorted(site for path in SRC.rglob("*.py")
                   for site in _self_referring_defs(
                       path.read_text(encoding="utf-8"), path.stem))
    assert found == []


def test_the_self_reference_rule_sees_each_kind():
    code = ("def top(n): return top(n - 1)\n"
            "def outer():\n"
            "    def rec(n): return rec(n - 1)\n"
            "    def flat(n): return n\n"
            "    def deep():\n"
            "        def inner(): return deep()\n"
            "        return inner\n"
            "    async def gen(): yield gen\n"
            "class K:\n"
            "    def m(self): return self.m()\n"
            "    def w(self):\n"
            "        def mid():\n"
            "            def walk(x): return [walk(y) for y in x]\n")
    assert sorted(_self_referring_defs(code, "mod")) == [
        "mod.deep", "mod.gen", "mod.rec", "mod.walk"]


CACHES = {"cache", "lru_cache"}


def _caches(code: str, module: str) -> list[str]:
    """Every function of a module under a `functools.cache` or `lru_cache`
    decorator, bare, called or imported by name, as `module.function`."""
    found = []
    for fn in ast.walk(ast.parse(code)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            name = (dec.attr if isinstance(dec, ast.Attribute)
                    else getattr(dec, "id", None))
            if name in CACHES:
                found.append(f"{module}.{fn.name}")
    return found


def test_every_cache_is_pinned():
    # a process-wide cache lives as long as the process and is keyed on
    # what its callers pass; a new one has to be added here, where review
    # sees it
    found = sorted(site for path in SRC.rglob("*.py")
                   for site in _caches(path.read_text(encoding="utf-8"),
                                       path.stem))
    assert found == ["invariants._r_and_bg", "solver._q_product"]


def test_the_cache_rule_sees_each_kind():
    code = ("import functools\nfrom functools import cache, lru_cache\n"
            "@functools.cache\ndef a(): pass\n"
            "@functools.lru_cache(maxsize=8)\ndef b(): pass\n"
            "@cache\ndef c(): pass\n@lru_cache\ndef d(): pass\n"
            "class K:\n    @functools.cached_property\n    def e(self): pass\n"
            "    @staticmethod\n    @functools.cache\n    def f(): pass\n"
            "@functools.wraps(a)\ndef g(): pass\n")
    assert sorted(_caches(code, "mod")) == [
        "mod.a", "mod.b", "mod.c", "mod.d", "mod.f"]
