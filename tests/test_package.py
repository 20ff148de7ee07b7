"""The package surface: every exported name resolves, no module imports a
name it never uses, every import is from the standard library, no private
helper is left without a caller, and every name the benchmark reaches into
still exists."""

import ast
import collections
import importlib
import pathlib
import re
import sys

import nilalg3
from nilalg3.fields import RATIONALS
from nilalg3.polyring import RationalFunctionField


def test_every_export_imports():
    assert len(set(nilalg3.__all__)) == len(nilalg3.__all__)
    for name in nilalg3.__all__:
        exec(f"from nilalg3 import {name}", {})


def test_no_unused_imports():
    # __init__.py imports in order to re-export, so it is left out
    unused = []
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_imports_are_standard_library_only():
    # nilalg3 runs on Python alone: every absolute import is a stdlib module
    outside = []
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside


def _references(node) -> collections.Counter:
    """Every name node refers to: plain names, attributes, imported names."""
    refs = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def _defined_names(node) -> list:
    """The names a top-level statement binds: a def or class, or the plain
    names assigned to (``_X = ...``, ``_a, _b = ...``, ``_X: int = ...``)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def test_every_export_has_a_user():
    # an exported name is used by a module of the package other than
    # __init__, or named by the benchmark (read as text: some of its names
    # sit in strings) or by README, which then says whom it serves
    root = pathlib.Path(__file__).resolve().parent.parent
    package = pathlib.Path(nilalg3.__file__).parent
    refs = sum((_references(ast.parse(path.read_text()))
                for path in sorted(package.glob("*.py"))
                if path.name != "__init__.py"), collections.Counter())
    text = "\n".join(path.read_text() for path in
                     [*sorted((root / "bench").glob("*.py")), root / "README.md"])
    unused = [name for name in nilalg3.__all__ if not refs[name]
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, unused


def test_no_dead_private_helpers():
    # a private top-level def, class or assigned name must be used somewhere
    # in the package outside its own statement, so a removed caller cannot
    # leave its helper behind
    trees = {path.name: ast.parse(path.read_text()) for path in
             sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()),
               collections.Counter())
    dead = [f"{name}:{node.lineno} {defined}"
            for name, tree in trees.items() for node in tree.body
            for defined in _defined_names(node)
            if defined.startswith("_") and not defined.startswith("__")
            and refs[defined] == _references(node)[defined]]
    assert not dead, dead


def test_no_kernel_asks_whether_a_value_has_a_rep():
    # every scalar has a rep (a polynomial and an element of F(d) are their
    # own), so a getattr(x, "rep", ...) fallback is refused anywhere
    found = []
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "rep"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_kernel_asks_whether_a_value_has_an_attribute():
    # every scalar is a ScalarOps, whose _no_division names the error of a
    # ring without division, so no kernel probes a value with hasattr
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "hasattr"]
    assert not found, found


def test_the_benchmark_finds_every_name_it_uses():
    # bench/ wraps the names in spans.TRACED through getattr and imports
    # others (one import sits inside a string in run.py), so deleting one of
    # them breaks the benchmark without failing any other test; bench/ is
    # read as text here, never imported
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    traced = next(node.value for node in ast.parse((bench / "spans.py").read_text()).body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED")
    wanted = [tuple(name.split(".")) for name in ast.literal_eval(traced)]
    for path in sorted(bench.glob("*.py")):
        for module, names in re.findall(r"from nilalg3\.(\w+) import ([\w, ]+)",
                                        path.read_text()):
            wanted += [(module, name.strip()) for name in names.split(",")]
    assert len(wanted) > len(ast.literal_eval(traced))
    missing = []
    for module, *attrs in wanted:
        obj = importlib.import_module(f"nilalg3.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(".".join((module, *attrs)))
    assert not missing, missing


def test_the_base_obstruction_reads_no_node_name():
    # the family and the quarter class are read off the pairing matrix B of
    # each node, so _node_profile and _base_obstruction read no tag or
    # parameter, call no quarter() and test no characteristic
    path = pathlib.Path(nilalg3.__file__).parent / "degeneration.py"
    functions = {node.name: node for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)
                 and node.name in ("_node_profile", "_base_obstruction")}
    assert len(functions) == 2
    found = []
    for name, function in functions.items():
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute) and node.attr in ("tag", "param")
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "quarter"
                    or isinstance(node, ast.Compare)
                    and any(isinstance(n, ast.Attribute) and n.attr == "char"
                            for n in ast.walk(node))):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


# the operators of every scalar: ScalarOps defines them once, on the hooks
_SCALAR_OPERATORS = {"__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__pow__", "inverse", "__eq__", "is_zero"}


def _delegates(node) -> bool:
    """Whether node names an ``operator`` function or a methodcaller."""
    return any(isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
               and n.value.id == "operator"
               or isinstance(n, ast.Name) and n.id == "methodcaller"
               for n in ast.walk(node))


def test_scalar_ops_is_the_one_operator_set():
    # the scalar types store; their domains' rep hooks hold the arithmetic,
    # and ScalarOps alone runs the operators on those hooks
    scalars = ("FieldElement", "MultiPoly", "RationalFunction")
    domains = ("PolyRing", "RationalFunctionField")
    classes, found = {}, []
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif isinstance(node, ast.Assign):   # Cls.attr = ... after the class
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and (target.value.id in scalars
                                 and target.attr in _SCALAR_OPERATORS
                                 or target.value.id in domains
                                 and _delegates(node.value))):
                        found.append(f"{path.name}:{node.lineno}")
    defined = {name: {n for stmt in classes[name].body for n in _defined_names(stmt)}
               for name in ("ScalarOps",) + scalars}
    assert _SCALAR_OPERATORS <= defined["ScalarOps"]
    for name in scalars:
        found += [f"{name}.{op}" for op in sorted(defined[name] & _SCALAR_OPERATORS)]
    for name in domains:
        found += [f"{name}:{stmt.lineno}" for stmt in classes[name].body
                  if isinstance(stmt, ast.Assign) and _delegates(stmt.value)]
    assert not found, found


def _class_bindings() -> dict:
    """Every class of the package, by name: (its bases' names, the names
    its body binds by def or assignment)."""
    out = {}
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                out[node.name] = bases, {n for stmt in node.body
                                         for n in _defined_names(stmt)}
    return out


def _is_bare_not_implemented(function) -> bool:
    """Whether a def's body, past its docstring, is only a raise of
    NotImplementedError."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def test_domain_is_the_one_entry_into_every_scalar_domain():
    # fields.Domain alone defines element and its names const and from_int;
    # only F(t)'s num/den pair adds a form of element (an extension's
    # coefficient lists go through _image), a field is finite exactly when
    # char > 0, no hook is a stub, and a polynomial and an element of F(t)
    # are their own rep
    classes = _class_bindings()
    fields = {"Field"}
    while grown := {name for name, (bases, _) in classes.items()
                    if bases & fields} - fields:
        fields |= grown
    assert {"Rationals", "PrimeField", "SimpleExtension", "FiniteField"} <= fields

    def binding(name):
        return {cls for cls, (_, names) in classes.items() if name in names}

    assert binding("element") == {"Domain", "RationalFunctionField"}
    assert binding("const") == binding("from_int") == {"Domain"}
    assert not binding("is_finite") & (fields - {"Field"})
    stubs = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and _is_bare_not_implemented(node)]
    assert not stubs, stubs
    K = RationalFunctionField(RATIONALS)
    for domain, value in ((K.ring, K.ring.var("t")), (K, K.gen())):
        assert isinstance(type(domain).__dict__["_elem"], staticmethod)
        assert domain._elem != domain.element and domain._elem(value) is value


def _is_power_loop(node) -> bool:
    """Whether node is a loop over an exponent's bits: one that halves it
    (``x >>= 1``) or one that runs over its binary digits (``bin(...)``)."""
    if not isinstance(node, (ast.While, ast.For)):
        return False
    if isinstance(node, ast.For) and any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "bin" for n in ast.walk(node.iter)):
        return True
    return any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift)
               and isinstance(n.value, ast.Constant) and n.value.value == 1
               for n in ast.walk(node))


def _innermost_functions(tree, holds) -> list:
    """(line, name of the innermost enclosing def, or None) of every node
    for which ``holds`` is true."""
    found = {n.lineno: None for n in ast.walk(tree) if holds(n)}
    for func in ast.walk(tree):     # breadth first: inner defs come later
        if isinstance(func, ast.FunctionDef):
            found.update((n.lineno, func.name) for n in ast.walk(func) if holds(n))
    return sorted(found.items())


def test_the_field_tower_and_integer_powers_stay_in_fields():
    # each field records the reps of its tower's generators (_gens) and
    # fields._power is the one square-and-multiply, so no other module walks
    # the tower or raises to a power by its own loop, and inside fields no
    # other function does
    found = []
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        loops = _innermost_functions(tree, _is_power_loop)
        if path.name == "fields.py":
            assert [name for _, name in loops] == ["_power"], loops
            continue
        refs = _references(tree)
        found += [f"{path.name} {name}" for name in ("_Extension", "_tower_names")
                  if refs[name]]
        found += [f"{path.name}:{line}" for line, _ in loops]
    assert not found, found


def _boolean_leaves(node) -> int:
    return sum(_boolean_leaves(v) if isinstance(v, ast.BoolOp) else 1
               for v in node.values)


def test_the_structural_singularity_test_is_written_once():
    # whether some term of det P meets no zero cell is one boolean of 15
    # truth values over the nine cells; _moved_limit and search's mask table
    # both call degeneration._regular, so no other function spells it out
    def is_long_boolean(node):
        return isinstance(node, ast.BoolOp) and _boolean_leaves(node) >= 12

    found = []
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, name) for _, name
                  in _innermost_functions(tree, is_long_boolean)]
    assert found == [("degeneration.py", "_regular")], found


def _cache_imports(tree) -> set:
    """The names under which a module imports cache or lru_cache from
    functools."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names if alias.name in ("cache", "lru_cache")}


def _names_a_cache(node, imported) -> bool:
    """Whether node names functools.cache or functools.lru_cache, also as a
    name imported from functools."""
    if isinstance(node, ast.Attribute):
        return (node.attr in ("cache", "lru_cache") and isinstance(node.value, ast.Name)
                and node.value.id == "functools")
    return isinstance(node, ast.Name) and node.id in imported


def test_caches_only_decorate_module_level_functions():
    # a cache lives as long as what holds it: on a module-level function,
    # the process; wrapped around a function inside a call, it is built
    # again on every call, with its wrapper, for a memo a dict would give
    found = []
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = _cache_imports(tree)
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    allowed.add(dec.func if isinstance(dec, ast.Call) else dec)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _names_a_cache(node, imported) and node not in allowed]
    assert not found, found


def test_no_cache_is_keyed_by_a_scalar_domain():
    # what is derived from a field is kept in the field (Domain._once) and
    # dies with it; a functools cache keyed by a field would pin it for the
    # life of the process
    found = []
    for path in sorted(pathlib.Path(nilalg3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = _cache_imports(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and any(
                    _names_a_cache(dec.func if isinstance(dec, ast.Call) else dec,
                                   imported) for dec in node.decorator_list)):
                continue
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                if arg.arg == "field" or re.search(r"\b(Field|Domain)\b", annotation):
                    found.append(f"{path.name}:{node.lineno} {node.name}({arg.arg})")
    assert not found, found


def test_the_identity_suite_builds_one_ring():
    # every matrix group of the suite is a specialisation of one generic
    # matrix, so it builds one polynomial ring, one pinched product and one
    # mutation, and each group's identities are read in that ring
    path = pathlib.Path(nilalg3.__file__).parent / "degeneration.py"
    suite = next(node for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "verify_lemma_identities")
    calls = collections.Counter(node.func.id for node in ast.walk(suite)
                                if isinstance(node, ast.Call)
                                and isinstance(node.func, ast.Name))
    mutations = [node for node in ast.walk(suite) if isinstance(node, ast.Starred)
                 and isinstance(node.value, ast.Name) and node.value.id == "mutate"]
    assert (calls["PolyRing"], calls["hbeta"], len(mutations)) == (1, 1, 1)
