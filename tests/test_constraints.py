"""The library's standing constraints: exact arithmetic only, stdlib only,
and checks that hold under ``python -O``.

Every module under ``src/puiseux`` is parsed, not imported, and its syntax
tree is searched for a float literal, the name ``float``, an import of
``decimal``, ``cmath`` or ``statistics``, a float-returning ``math``
function (``log``, ``log2``, ``log10``, ``sqrt``, ``exp``, ``pow``,
``fsum``), any import of a module that is neither in the standard library
nor the package itself, and any ``assert`` statement, which ``python -O``
strips. No floating-point use is allowed anywhere: ``Recurrence.step``
compares logarithms through integer log2 brackets. In ``monoid.py`` and
``accp.py`` a comparison that has a power among its operands, a ``**`` or
a call of ``ratio._ipow``, sits in ``monoid._rank`` alone, the one exact
test of d^a >= n^b and of d^(a+1) >= n^b beside it, which ``_at_least``
and the counterexample checks call. The gcd-free
constructor ``Ratio._reduced``, a call that passes the class ``Ratio``
itself, as ``object.__new__(Ratio)`` does, and a store into a Ratio's
fields, by ``Ratio.num.__set__``, ``Ratio.den.__set__`` or a ``"num"`` or
``"den"`` set through ``__setattr__``, are found in ``ratio.py`` alone, so
each value built without a gcd sits beside the argument that it is coprime.
``evaluate`` and ``series_partial_sums`` build every value over a power of
d(r) by ``Ratio.over_power``, and ``witness_chain`` reads its elements,
quotients of powers of n(r) and d(r), off ``Ratio.power_quotients``; none
calls a two-argument ``Ratio(num, den)``. That rule sees calls by name
only; the Ratio arithmetic in those functions, which reduces by a gcd of
its own, is held to no gcd of two long integers at run time by the
``long_gcds`` guards of ``test_accp.py`` and ``test_factorization.py``.
The value check of the rewrites and of a membership witness,
``factorization._checked``, and every package function or class
``__init__`` that it reaches by calls, call none of ``evaluate``,
``Ratio``, ``over_power`` or ``gcd``: it decides by one integer identity.
``Factorization.make``, which checks input from outside the library, is
called from ``cli.py`` alone. A ``DomainError`` becomes a ``ParseError``
in one except clause of each parser, and nowhere else. A gap is read by a
``.delta.delta(...)`` call only in ``oracle.py`` and in the two sparse
readers ``min_normal_form`` and ``rewrite_down_step``; every in-order walk
over the gaps reads ``DeltaSpec.gaps``. ``membership.py`` imports neither
the search nor a pass that rewrites a factorization, and ``length_set``
calls neither the carry sweep nor the least-form walk. In
``factorization.py`` a modular inverse, a ``pow`` with a negative exponent
and a modulus, is taken in the level table ``_levels`` alone, and the
least-form walk and the search both read that table. No module imports
``dataclasses``, whose decorators would compile code at every start, and
``__init__.py`` has no relative import at its top, so importing the package
loads no module. No module binds a name by import, at its top or under a
module-level ``if``, that it never reads. ``semiring.py`` takes no memo
from ``functools``. Every third-party module that a test imports is named
in the ``test`` extra of ``pyproject.toml``.
Only ``ratio.py`` calls ``Ratio(1)``: elsewhere r is set against 1 by its
integers, ``r.num`` against ``r.den``, which builds no value and multiplies
nothing. Only ``_Value`` defines a hook of the copy and pickle protocol, so
every copy goes through a constructor, and a cache (the ``Recurrence`` gaps,
the ``Polynomial`` Newton form) is rebuilt there, never carried over.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "puiseux"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_the_package_is_found():
    assert "monoid.py" in {path.name for path in MODULES}


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []  # relative imports stay inside the package


FLOAT_MODULES = {"decimal", "cmath", "statistics"}
FLOAT_MATH = {"log", "log2", "log10", "sqrt", "exp", "pow", "fsum"}
# no floating-point use is left: (module, scope, what) entries listed here
# would be forgiven, and the list stays empty
FLOAT_ALLOWED = set()


def _scoped(tree):
    """(node, scope) for each node of tree, where scope is the dotted name of
    the class and def around it."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        yield node, scope
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def _floating_point(tree):
    """(scope, line, what) for each float literal, the name float, import of
    a floating-point module and float-returning math function in tree."""
    maths = {"math"} | {alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names if alias.name == "math" and alias.asname}
    for node, scope in _scoped(tree):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield scope, line, f"float literal {node.value!r}"
        if isinstance(node, ast.Name) and node.id == "float":
            yield scope, line, "the name float"
        for root in _imported_roots(node):
            if root in FLOAT_MODULES:
                yield scope, line, f"import of {root}"
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield scope, line, f"math.{alias.name}"
        if (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
                and getattr(node.value, "id", None) in maths):
            yield scope, line, f"math.{node.attr}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_floating_point_and_no_third_party_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = [f"line {line}: {what}" for scope, line, what in _floating_point(tree)
                if (path.name, scope, what) not in FLOAT_ALLOWED]
    for node in ast.walk(tree):
        for root in _imported_roots(node):
            if root not in sys.stdlib_module_names and root != "puiseux":
                problems.append(f"line {getattr(node, 'lineno', '?')}: import of {root}")
    assert not problems, f"{path.name}: " + "; ".join(problems)


@pytest.mark.parametrize("source", [
    "x = 0.5", "y = 2j", "float(3)", "import decimal", "from decimal import Decimal",
    "import cmath", "from statistics import mean", "from math import log, gcd",
    "import math\nmath.sqrt(2)", "import math as m\nm.fsum([1])", "math.pow(2, 3)",
    "from math import exp", "math.log2(8)", "math.log10(8)"])
def test_each_floating_point_use_is_seen(source):
    assert list(_floating_point(ast.parse(source)))


@pytest.mark.parametrize("source", [
    "from math import gcd, isqrt, comb", "import math\nmath.isqrt(9)", "x = 7 // 2",
    "pow(2, 3, 5)", "Ratio(1, 2)", "from fractions import Fraction", "log = 1\nlog + 1"])
def test_exact_arithmetic_is_not_flagged(source):
    assert not list(_floating_point(ast.parse(source)))


def test_the_package_has_no_floating_point_use():
    found = [f"{path.name}:{line} in {scope or '<module>'}: {what}" for path in MODULES
             for scope, line, what in _floating_point(ast.parse(path.read_text()))]
    assert not found and not FLOAT_ALLOWED, found


def _is_power(node) -> bool:
    """node is a ** power or a call of the power kernel _ipow, under either spelling."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.Pow)
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_ipow")


def _power_comparisons(tree):
    """(scope, line) of each comparison in tree with a power in an operand."""
    for node, scope in _scoped(tree):
        if isinstance(node, ast.Compare) and any(
                _is_power(sub) for operand in (node.left, *node.comparators)
                for sub in ast.walk(operand)):
            yield scope, node.lineno


def test_powers_are_compared_in_at_least_alone():
    # _rank, which _at_least calls, decides d^a >= n^b from log2 brackets past
    # 4096 bits and forms one pair of powers below; a comparison of formed
    # powers elsewhere pays for every bit of them, and a counterexample check
    # that compared them in place formed b^delta_j twice
    found = [f"{name}:{scope or '<module>'}:{line}" for name in ("monoid.py", "accp.py")
             for scope, line in _power_comparisons(ast.parse((PACKAGE / name).read_text()))
             if (name, scope) != ("monoid.py", "_rank")]
    assert not found, f"a ** or _ipow power compared outside monoid._rank at {found}"


@pytest.mark.parametrize("source", [
    "d >= n ** c", "{d ** a >= n ** b for a, b in pairs}", "f(x ** 2) < 1",
    "while a ** (m + 1) < target:\n    m += 1", "0 < 2 ** k <= y",
    "_ipow(d, a) >= n", "x < ratio._ipow(b, e) * c", "not _ipow(a, m) < t"])
def test_each_power_comparison_is_seen(source):
    assert list(_power_comparisons(ast.parse(source)))


@pytest.mark.parametrize("source", [
    "c = d ** a - n ** b\nc > 0", "_at_least(d, a, n, b)", "x < y", "x = 2 ** k",
    "_rank(d, a, n, b) > 0", "x = _ipow(d, a)\nx >= y"])
def test_a_comparison_without_a_power_is_not_flagged(source):
    assert not list(_power_comparisons(ast.parse(source)))


def _modular_inverses(tree):
    """(scope, line) of each three-argument pow in tree whose exponent is
    negative, a negation or a negative literal: a modular inverse."""
    for node, scope in _scoped(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
                and len(node.args) == 3):
            continue
        e = node.args[1]
        if (isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub)) or (
                isinstance(e, ast.Constant) and isinstance(e.value, int) and e.value < 0):
            yield scope, node.lineno


def test_modular_inverses_sit_in_the_level_table_alone():
    # the least-form walk and the search read one table of (a^gap, b^{S-u},
    # inverse) per level; a second walk with inverses of its own would keep a
    # second copy of the residue arithmetic on a second integer scale
    tree = ast.parse((PACKAGE / "factorization.py").read_text())
    found = {scope.split(".")[0] for scope, _ in _modular_inverses(tree)}
    assert found == {"_levels"}, found
    callers = {scope for node, scope in _scoped(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_levels"}
    assert callers == {"_least_form", "_leaves"}, callers


@pytest.mark.parametrize("source", [
    "pow(w, -1, m)", "x = pow(d ** s, -e, n)", "def f():\n    return pow(a, -2, b) % b"])
def test_each_modular_inverse_is_seen(source):
    assert list(_modular_inverses(ast.parse(source)))


@pytest.mark.parametrize("source", ["pow(d, s, q)", "pow(2, 3)", "x ** -1", "pow(w, e - 1, m)"])
def test_a_power_that_is_no_inverse_is_not_flagged(source):
    assert not list(_modular_inverses(ast.parse(source)))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}; raise instead"


def _builds_a_ratio_without_a_gcd(node) -> bool:
    """node names _reduced, passes the class Ratio first to a call (as
    object.__new__(Ratio) does, under any alias), reads a field's slot store
    Ratio.num.__set__ or Ratio.den.__set__, or sets "num" or "den" through
    __setattr__ or its alias _set."""
    if isinstance(node, ast.Attribute) and node.attr == "__set__":
        field = node.value
        return (isinstance(field, ast.Attribute) and field.attr in ("num", "den")
                and getattr(field.value, "id", None) == "Ratio")
    if isinstance(node, ast.Call):
        args = node.args
        if args and getattr(args[0], "id", None) == "Ratio":
            return True
        setter = getattr(node.func, "attr", getattr(node.func, "id", None))
        return (setter in ("__setattr__", "_set") and len(args) > 1
                and getattr(args[1], "value", None) in ("num", "den"))
    return ((isinstance(node, ast.Attribute) and node.attr == "_reduced")
            or (isinstance(node, ast.Name) and node.id == "_reduced")
            or (isinstance(node, ast.Constant) and node.value == "_reduced"))


def test_the_gcd_free_constructor_stays_in_ratio():
    uses = [f"{path.name}:{node.lineno}" for path in MODULES if path.name != "ratio.py"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if _builds_a_ratio_without_a_gcd(node)]
    assert not uses, f"a Ratio built without a gcd outside ratio.py at {uses}"


@pytest.mark.parametrize("source", [
    "Ratio._reduced(1, 2)", "object.__new__(Ratio)", "new(Ratio)", "Ratio.__new__(Ratio)",
    "Ratio.num.__set__(x, 1)", "f = Ratio.den.__set__", "_set(x, 'num', 1)",
    "object.__setattr__(x, 'den', 2)"])
def test_each_gcd_free_construction_is_seen(source):
    assert any(map(_builds_a_ratio_without_a_gcd, ast.walk(ast.parse(source))))


@pytest.mark.parametrize("source", [
    "Ratio(1, 2)", "object.__new__(Factorization)", "isinstance(x, Ratio)",
    "Factorization.coeffs.__set__", "_set(x, 'value', 1)", "Ratio.over_power(1, 2, 2)"])
def test_a_reducing_construction_is_not_flagged(source):
    assert not any(map(_builds_a_ratio_without_a_gcd, ast.walk(ast.parse(source))))


def test_values_over_a_power_of_d_are_reduced_by_over_power():
    # Ratio(num, d^e) would take a gcd of two long integers, over_power one
    # of num and d^3; Ratio(k) takes no gcd
    owners = {"factorization.py": {"evaluate"},
              "accp.py": {"series_partial_sums", "witness_chain"}}
    found, calls = set(), []
    for name, functions in owners.items():
        for top in ast.parse((PACKAGE / name).read_text()).body:
            if isinstance(top, ast.FunctionDef) and top.name in functions:
                found.add(top.name)
                calls += [f"{top.name}:{node.lineno}" for node in ast.walk(top)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "Ratio" and len(node.args) == 2]
    assert found == set().union(*owners.values())
    assert not calls, f"Ratio(num, den) called directly at {calls}"


VALUE_CHECK_BANS = {"evaluate", "Ratio", "over_power", "gcd"}


def _callee(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def _value_check_calls(trees, start="_checked"):
    """The functions that start reaches by calls through trees, and (function,
    line, name) of each call in them of a name in VALUE_CHECK_BANS. A call
    by name or attribute reaches each module-level function of that name and
    the __init__ of each class of that name, in any of the trees."""
    defs = {}
    for tree in trees:
        for top in tree.body:
            body = top
            if isinstance(top, ast.ClassDef):
                body = next((node for node in top.body
                             if getattr(node, "name", None) == "__init__"), None)
            if isinstance(body, ast.FunctionDef):
                defs.setdefault(top.name, []).append(body)
    seen, todo, banned = set(), [start], []
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in (node for body in defs[name] for node in ast.walk(body)):
            if isinstance(node, ast.Call):
                todo.append(_callee(node))
                if _callee(node) in VALUE_CHECK_BANS:
                    banned.append((name, node.lineno, _callee(node)))
    return seen, banned


def test_the_value_check_builds_no_value_and_takes_no_gcd():
    # a result is checked by one integer identity over d^S: evaluating both
    # sides built two Ratios, each with a gcd, and cost more than the rewrite
    reached, banned = _value_check_calls([ast.parse(path.read_text()) for path in MODULES])
    assert {"_checked", "_scaled_sum", "s_index", "Factorization"} <= reached, reached
    assert not banned, f"the value check calls {banned}"


@pytest.mark.parametrize("source", [
    "def _checked(M, c, v, w):\n    return evaluate(z) != v",
    "def _checked(M, c, v, w):\n    return Ratio(1, 2)",
    "def _checked(M, c, v, w):\n    return _sum(c)\ndef _sum(c):\n    return Ratio.over_power(c, 3, 3)",
    "def _checked(M, c, v, w):\n    return m.f(c)\ndef f(c):\n    return g(c)\n"
    "def g(c):\n    return math.gcd(c, 3)",
    "def _checked(M, c, v, w):\n    return Out(c)\nclass Out:\n    def __init__(self, c):\n"
    "        self.v = gcd(c, 3)"])
def test_each_value_check_call_is_seen(source):
    assert _value_check_calls([ast.parse(source)])[1]


@pytest.mark.parametrize("source", [
    "def _checked(M, c, v, w):\n    return _sum(M, c)[0] * v.den\ndef _sum(M, c):\n    return 0, 0",
    "def _checked(M, c, v, w):\n    return isinstance(v, Ratio)",
    "def _checked(M, c, v, w):\n    return c\ndef evaluate_all(z):\n    return evaluate(z)",
    "def _checked(M, c, v, w):\n    return Out(c)\nclass Out:\n    def value(self):\n"
    "        return gcd(self.c, 3)"])
def test_a_value_check_without_those_calls_is_not_flagged(source):
    reached, banned = _value_check_calls([ast.parse(source)])
    assert "_checked" in reached and not banned


def test_r_is_set_against_1_by_its_integers():
    calls = [f"{path.name}:{node.lineno}" for path in MODULES if path.name != "ratio.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Ratio"
             and [getattr(arg, "value", None) for arg in node.args] == [1]]
    assert not calls, f"Ratio(1) built at {calls}; compare r.num with r.den"


COPY_HOOKS = {"__reduce__", "__reduce_ex__", "__getstate__", "__setstate__", "__copy__",
              "__deepcopy__"}


def test_only_the_value_base_defines_a_copy_hook():
    hooks = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef) or (path.name, cls.name) == ("ratio.py", "_Value"):
                continue
            for node in cls.body:
                names = [getattr(target, "id", None) for target in getattr(node, "targets", [])]
                names.append(getattr(node, "name", None))
                hooks += [f"{path.name}:{cls.name}.{name}" for name in names if name in COPY_HOOKS]
    assert not hooks, f"copy hooks outside _Value: {hooks}"


def test_only_the_cli_validates_factorizations():
    # the library builds its own sorted pairs; make is for input from outside
    callers = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            owner = getattr(func, "value", None)
            if (isinstance(func, ast.Attribute) and func.attr == "make"
                    and "Factorization" in (getattr(owner, "id", None),
                                            getattr(owner, "attr", None))):
                callers.append(f"{path.name}:{node.lineno}")
    assert {caller.split(":")[0] for caller in callers} == {"cli.py"}, callers


def test_gaps_are_walked_in_order_and_read_one_by_one_only_where_sparse():
    # the frozen oracle and the two downward passes over the levels that hold
    # a coefficient read single gaps; any other reader walks DeltaSpec.gaps
    readers = set()
    for path in MODULES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if (isinstance(func, ast.Attribute) and func.attr == "delta"
                        and getattr(func.value, "attr", None) == "delta"):
                    where = getattr(top, "name", "<module>")
                    readers.add(path.name if path.name == "oracle.py" else f"{path.name}:{where}")
    assert readers <= {"oracle.py", "factorization.py:min_normal_form",
                       "factorization.py:rewrite_down_step"}, readers


def test_membership_has_no_second_path():
    # is_member reads its witness off one walk; the search, the carry sweep
    # and the normal-form pass stay out of membership.py
    tree = ast.parse((PACKAGE / "membership.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"_leaves", "_expand", "_sweep", "min_normal_form"}, imported


def test_length_set_runs_one_search_and_no_second_walk():
    # both exactness flags come off the search: length_set neither sweeps
    # nor walks to a least form
    tree = ast.parse((PACKAGE / "factorization.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "length_set")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(body) if isinstance(node, ast.Call)}
    assert "_leaves" in called
    assert not called & {"max_length_sweep", "_least_form"}, called


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # value classes sit on the slotted base in ratio.py, which compiles nothing
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "dataclasses" in _imported_roots(node)]
    assert not lines, f"{path.name}: import of dataclasses at line(s) {lines}"


def _import_bindings(body):
    """(name, line) for each name that an import among these statements, or
    in the branches of an if among them, binds; __future__ imports bind none."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _import_bindings(node.body + node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [(name, line) for name, line in _import_bindings(tree.body) if name not in read]
    assert not unused, unused


def test_the_semiring_layer_keeps_no_memo():
    # no memo may outlive a call: the bench asks one exponent set again and
    # again, so a cache would time the repetition, not the work
    tree = ast.parse((PACKAGE / "semiring.py").read_text())
    memos = {"cache", "lru_cache", "cached_property"}
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                 and any(alias.name in memos for alias in node.names))
             or (isinstance(node, ast.Attribute) and node.attr in memos
                 and isinstance(node.value, ast.Name) and node.value.id == "functools")]
    assert not found, f"semiring.py: functools memo at line(s) {found}"


def test_the_package_namespace_imports_no_module_at_its_top():
    # __init__.py resolves each name on first use; one relative import at its
    # top would load that module, and all it imports, in every process
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    lines = [node.lineno for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not lines, f"__init__.py: relative import at line(s) {lines}"


def test_every_third_party_test_import_is_in_the_test_extra():
    tomllib = pytest.importorskip("tomllib")
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "optional-dependencies"]["test"]
    named = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
             for req in extra}
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"puiseux"}
    imported = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for root in _imported_roots(node):
                if root not in sys.stdlib_module_names and root not in local:
                    imported.setdefault(root, path.name)
    missing = {root: name for root, name in imported.items() if root.lower() not in named}
    assert not missing, f"imported by a test but not in the test extra: {missing}"


# each parser turns a DomainError into a ParseError in one except clause
RELAYS = [("monoid.py", "monoid_from_json"), ("monoid.py", "parse_delta"),
          ("ratio.py", "Ratio.parse"), ("semiring.py", "parse_exponent_set")]


def _is_relay(handler):
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return (any(getattr(name, "id", None) == "DomainError" for name in caught)
            and any(isinstance(node, ast.Raise)
                    and getattr(getattr(node.exc, "func", None), "id", None) == "ParseError"
                    for node in ast.walk(handler)))


def _relays(scope, prefix=""):
    """The name of the top-level definition around each relaying except clause."""
    for node in scope.body:
        if isinstance(node, ast.ClassDef):
            yield from _relays(node, f"{node.name}.")
            continue
        for handler in ast.walk(node):
            if isinstance(handler, ast.ExceptHandler) and _is_relay(handler):
                yield prefix + getattr(node, "name", "<module>")


def test_the_domain_error_relays_sit_in_the_parsers_alone():
    found = sorted((path.name, name) for path in MODULES
                   for name in _relays(ast.parse(path.read_text(), filename=str(path))))
    assert found == RELAYS
