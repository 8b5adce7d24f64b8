"""Source hygiene: every imported name is used, every function, class and
method of the library is reached by a use that binds to it, somewhere and
outside tests too (but for a short list of kept names, and for dunders
and overrides of a standard-library base class's hooks, which the runtime
calls), every name that only the benchmark reaches is listed with the
item that retires it, only the listed definitions name the exhaustive
submodule search, every parameter of a library function is read,
sympy loads only inside the functions that call it, no library module
imports ``dataclasses``, no library module reaches a private name of
another (but for one kept name), and every field class in ``exactlin``
implements the whole field protocol.  No linter is a dependency, so the
checks walk the syntax tree themselves."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for d in ("src/tiltlab", "tests") for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements and never referenced as a name
    or as the base of an attribute access."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nimport x.y\nx.y.z(e)\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def hooks(node: ast.ClassDef) -> set[str]:
    """The attribute names of the bases of ``node`` written ``module.Class``,
    such as ``argparse.ArgumentParser``; the library names its own classes
    bare, so these bases lie outside it.  A method of one of these names
    overrides a hook that the base class itself calls, so, like a dunder,
    it needs no use in the library."""
    return {name for base in node.bases if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
            for name in dir(getattr(importlib.import_module(base.value.id), base.attr))}


def definitions(library: dict[str, ast.Module]) -> list[tuple[str, str, tuple]]:
    """Every ``def`` and ``class`` of the library, other than dunders and
    :func:`hooks`, as ``(printed name, name, key)``, where ``key`` is the
    use that reaches it: any ``.name`` attribute for a method,
    ``Class.name`` for a classmethod, and the defining module's binding of
    the name for anything else, at the top level or nested."""
    found = []
    for mod, tree in library.items():
        pending = [(node, None, set()) for node in tree.body]
        while pending:
            node, cls, overridden = pending.pop()
            if (isinstance(node, DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in overridden):
                if cls is None:
                    found.append((node.name, node.name, ("def", mod, node.name)))
                elif any(isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list):
                    found.append((f"{cls}.{node.name}", node.name, ("classmethod", cls, node.name)))
                else:
                    found.append((f"{cls}.{node.name}", node.name, ("attr", node.name)))
            inner, inner_hooks = (node.name, hooks(node)) if isinstance(node, ast.ClassDef) else (None, set())
            pending.extend((child, inner, inner_hooks) for child in ast.iter_child_nodes(node))
    return found


def uses(mod: str, tree: ast.Module, library: set[str]) -> set[tuple]:
    """The keys of :func:`definitions` that the module ``mod`` reaches:
    ``from lib import name``, ``alias.name`` with ``alias`` bound to a
    library module, a bare name read inside its own module, ``Class.name``
    and ``cls.name`` (the enclosing class), and ``.name`` on anything, but
    only in a library module or in one that imports the library's package
    (``tiltlab``) somewhere: a module that imports none holds no library
    object to read a method off.  A use inside a definition of the same
    name is recursion, not a use."""
    package = mod.rpartition(".")[0]
    roots = {m.split(".")[0] for m in library}
    modules: dict[str, str] = {}  # local name -> the library module it is bound to
    found = set()
    holds_library = mod in library
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names if alias.name in library)
            holds_library |= any(alias.name.split(".")[0] in roots for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            holds_library |= not node.level and (node.module or "").split(".")[0] in roots
            base = ".".join(filter(None, (package, node.module))) if node.level else node.module
            for alias in node.names:
                if f"{base}.{alias.name}" in library:
                    modules[alias.asname or alias.name] = f"{base}.{alias.name}"
                else:
                    found.add(("def", base, alias.name))
    pending = [(tree, frozenset(), None)]
    while pending:
        node, enclosing, cls = pending.pop()
        if isinstance(node, DEFINITIONS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in enclosing:
            found.add(("def", mod, node.id))
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            value = node.value
            owner = cls if isinstance(value, ast.Name) and value.id == "cls" else getattr(value, "id", getattr(value, "attr", None))
            found.add(("classmethod", owner, node.attr))
            if holds_library:
                found.add(("attr", node.attr))
            if isinstance(value, ast.Name) and value.id in modules:
                found.add(("def", modules[value.id], node.attr))
        inner = node.name if isinstance(node, ast.ClassDef) else cls
        pending.extend((child, enclosing, inner) for child in ast.iter_child_nodes(node))
    return found


def unreferenced(library: dict[str, ast.Module], users: dict[str, ast.Module], late: list[ast.Module]) -> list[str]:
    """Library definitions that no module in ``users`` reaches (see
    :func:`uses`).  The benchmark looks some names up late, so a string
    constant in a ``late`` tree counts as a use of every definition of that
    name."""
    reached = set().union(*(uses(mod, tree, set(library)) for mod, tree in users.items()))
    strings = {node.value for tree in late for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(printed for printed, name, key in definitions(library) if key not in reached and name not in strings)


def test_detector_flags_an_unreferenced_definition():
    lib = ast.parse(
        "class Used:\n"
        "    def method(self): pass\n"
        "    def dead_method(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n"
        "    def unused(self): pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def outer():\n"
        "    def inner(): pass\n"
        "    return inner()\n"
    )
    user = ast.parse("from lib import Parser, Used, outer\nUsed().method()\nouter()\nParser()\n")
    assert unreferenced({"lib": lib}, {"lib": lib, "user": user}, []) == [
        "Parser.unused", "Used.dead_method", "recursive"]


def test_detector_resolves_uses_by_binding():
    # each name below is spelled at a use that does not bind to it: the
    # function as an attribute, the classmethod as a local variable, and
    # the classmethod as another class's method
    lib = ast.parse(
        "def image(f): pass\n"
        "class Module:\n"
        "    @classmethod\n"
        "    def free(cls, rank): return cls.zero()\n"
        "    @classmethod\n"
        "    def zero(cls): pass\n"
        "class IntMatrix:\n"
        "    @classmethod\n"
        "    def identity(cls, n): pass\n"
        "class Matrix:\n"
        "    def identity(self): pass\n"
    )
    shadows = ast.parse(
        "from lib import IntMatrix, Matrix, Module\n"
        "def f(witness, m):\n"
        "    free = witness.image\n"
        "    return free, m.identity()\n"
    )
    users = {"lib": lib, "shadows": shadows}
    assert unreferenced({"lib": lib}, users, []) == ["IntMatrix.identity", "Module.free", "image"]
    bound = ast.parse("import lib as m\nfrom lib import IntMatrix, Module\nm.image(0)\nModule.free(1)\nIntMatrix.identity(2)\n")
    assert unreferenced({"lib": lib}, users | {"bound": bound}, []) == []


def test_detector_credits_a_method_read_only_where_the_library_is_imported():
    # a module that imports no tiltlab holds no library object, so its
    # ``rec.method`` reads some other object's attribute
    lib = ast.parse("class Used:\n    def method(self): pass\n")
    user = ast.parse("from tiltlab import lib\nlib.Used()\n")
    stranger = ast.parse("import json\ndef f(rec): return rec.method\n")
    reader = ast.parse("import tiltlab.lib\ndef f(rec): return rec.method\n")
    assert unreferenced({"tiltlab.lib": lib}, {"user": user, "stranger": stranger}, []) == ["Used.method"]
    assert unreferenced({"tiltlab.lib": lib}, {"user": user, "reader": reader}, []) == []
    own = ast.parse("class Used:\n    def method(self): pass\ndef f(u): return u.method\n")
    assert unreferenced({"tiltlab.lib": own}, {"tiltlab.lib": own}, []) == ["Used", "f"]


def trees(d: str) -> dict[str, ast.Module]:
    """The modules under ``d`` by import name: ``tiltlab.<stem>`` in the
    package, the bare stem elsewhere."""
    prefix = "tiltlab." if d == "src/tiltlab" else ""
    return {prefix + p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / d).glob("*.py"))}


def test_every_library_definition_is_referenced():
    library, bench = trees("src/tiltlab"), trees("perfbench")
    assert unreferenced(library, library | trees("tests") | bench, list(bench.values())) == []


# Library definitions that only tests reach, each kept for a reason.
TEST_ONLY_KEPT = {
    "strip_projective_summands": "test_tau_round_trips and test_tau_minus_round_trips (tau and tau^- are "
                                 "inverse only off the projective and injective summands)",
    "tau_minus": "ROADMAP item 4: the main theorem on every finite tilting module",
}


def test_detector_flags_a_definition_only_tests_reach():
    lib = ast.parse(
        "def used(): return helper()\n"
        "def helper(): pass\n"
        "def test_only_fn(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def benchmarked(): pass\n"
        "def looked_up(): pass\n"
        "class Tested:\n"
        "    def method(self): pass\n"
    )
    bench = ast.parse("import lib\nlib.used()\nlib.benchmarked()\ngetattr(lib, 'looked_up')()\n")
    assert unreferenced({"lib": lib}, {"lib": lib, "bench": bench}, [bench]) == [
        "Tested", "Tested.method", "recursive", "test_only_fn"]


def test_no_library_definition_is_reached_only_from_tests():
    """What the library and the benchmark reach, without the tests."""
    library, bench = trees("src/tiltlab"), trees("perfbench")
    assert unreferenced(library, library | bench, list(bench.values())) == sorted(TEST_ONLY_KEPT)


# Library definitions that no library code reaches and that are not
# TEST_ONLY_KEPT: perfbench times, traces or verifies with them, so each is
# kept until the ROADMAP item named here retires it or gives it a caller.
BENCH_ONLY_KEPT = {
    "GroupAlgElem.zero": "ROADMAP item 16: goes with envelope_value_alg",
    "Matrix.rref": "ROADMAP item 9: the exactlin.rref counters wrap the forward pass instead",
    "RepMap.is_valid": "ROADMAP item 16: moves into perfbench as a checker, or checks item 12's relations",
    "TubeCatalog.ranks": "ROADMAP item 16: item 5's sum of (r - 1) line",
    "divisible_radical": "ROADMAP item 16: a PASS line's caller, or it goes with its ar-search op; no search",
    "envelope_value_alg": "ROADMAP item 16: goes unless free-envelope gains a group-algebra line",
    "hom": "ROADMAP item 16: item 15's Hom(T1, T0) line",
    "is_simple_regular": "ROADMAP item 19: goes with the submodule search",
    "tor1": "ROADMAP item 16: item 15's Hom(T1, T0) line",
}


def test_library_definitions_only_the_benchmark_reaches_are_listed():
    """What the library reaches from itself alone, without the tests and
    the benchmark, beside the names that only tests reach."""
    library = trees("src/tiltlab")
    assert sorted(set(unreferenced(library, library, [])) - set(TEST_ONLY_KEPT)) == sorted(BENCH_ONLY_KEPT)


def naming(library: dict[str, ast.Module], name: str) -> list[str]:
    """The top-level definitions, as ``module.definition``, and the
    modules, for a statement outside every definition, whose code names
    ``name``: as a name, an attribute or an imported name.  The definition
    of ``name`` itself is left out."""
    found = set()
    for mod, tree in library.items():
        for node in tree.body:
            named = any(isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name
                        or isinstance(n, ast.alias) and n.name == name for n in ast.walk(node))
            if named and getattr(node, "name", None) != name:
                found.add(f"{mod}.{node.name}" if isinstance(node, DEFINITIONS) else mod)
    return sorted(found)


def test_detector_flags_every_definition_naming_a_function():
    lib = ast.parse(
        "from other import search as found\n"
        "def search(): return search()\n"
        "def caller(): return [x for x in search()]\n"
        "def by_attribute(m): return m.search\n"
        "def unrelated(): return 'search'\n"
    )
    assert naming({"lib": lib}, "search") == ["lib", "lib.by_attribute", "lib.caller"]


# Library definitions that run the exhaustive submodule search, each kept
# until the ROADMAP item named here retires it.
SEARCH_CALLERS = {"tiltlab.artheory.is_simple_regular": "ROADMAP item 19"}


def test_only_the_listed_definitions_run_the_submodule_search():
    assert naming(trees("src/tiltlab"), "all_submodules") == sorted(SEARCH_CALLERS)


def unread_parameters(tree: ast.Module) -> list[str]:
    """Parameters, other than ``self`` and ``cls``, that a function or
    lambda never reads in its body, nested functions included: a dead knob
    such as a ``seed`` left behind when its search went away."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            found += [(node.lineno, f"line {node.lineno}: {name}({p})") for p in params
                      if p not in read and p not in ("self", "cls")]
    return [text for _, text in sorted(found)]


def test_detector_flags_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, *args, c=0, **kw):\n"
        "    return a + sum(args)\n"
        "class C:\n"
        "    def m(self, x, seed=0):\n"
        "        return lambda y, z: y + x\n"
        "def g(n):\n"
        "    def inner():\n"
        "        return n\n"
        "    return inner\n"
    )
    assert unread_parameters(tree) == [
        "line 1: f(b)", "line 1: f(c)", "line 1: f(kw)", "line 4: m(seed)", "line 5: lambda(z)"]


def test_every_library_parameter_is_read():
    found = {
        path.name: hits
        for path in sorted((ROOT / "src/tiltlab").glob("*.py"))
        if (hits := unread_parameters(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def module_level_sympy_imports(tree: ast.Module) -> list[int]:
    """Lines of the sympy imports that run when the module is imported:
    those outside every function body.  sympy takes most of the package's
    import time, so only the functions that call it may load it."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name == "sympy" or name.startswith("sympy.") for name in names):
            found.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_detector_flags_a_module_level_sympy_import():
    tree = ast.parse(
        "import sympy\n"
        "from sympy.ntheory import isprime\n"
        "def f():\n"
        "    from sympy import factorint\n"
        "class C:\n"
        "    import sympy as sp\n"
        "import sympyx\n"
        "if True:\n"
        "    import os, sympy.polys\n"
    )
    assert module_level_sympy_imports(tree) == [1, 2, 6, 9]


def test_no_module_level_sympy_import():
    found = {
        path.name: lines
        for path in sorted((ROOT / "src/tiltlab").glob("*.py"))
        if (lines := module_level_sympy_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def dataclasses_imports(tree: ast.Module) -> list[int]:
    """Lines that import ``dataclasses``, inside functions too.  It loads
    ``inspect``, ``ast``, ``dis`` and ``tokenize``, about 10 ms of every
    cold command, so the library's records are plain slotted classes."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name == "dataclasses" or name.startswith("dataclasses.") for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_detector_flags_a_dataclasses_import():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "import os, dataclasses as dc\n"
        "import dataclasses_json\n"
        "from .dataclasses import field\n"
        "def f():\n"
        "    from dataclasses import field\n"
    )
    assert dataclasses_imports(tree) == [1, 2, 6]


def test_no_library_module_imports_dataclasses():
    found = {
        path.name: lines
        for path in sorted((ROOT / "src/tiltlab").glob("*.py"))
        if (lines := dataclasses_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


FIELD_PROTOCOL = ("coerce", "add", "mul", "neg", "inv", "scale_row", "sub_scaled", "dot")


def incomplete_fields(tree: ast.Module) -> dict[str, list[str]]:
    """Classes that define part of the field protocol, with the methods
    they lack.  A field missing one would import fine and fail only at
    the first matrix operation that calls it."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            if defined & set(FIELD_PROTOCOL):
                found[node.name] = [name for name in FIELD_PROTOCOL if name not in defined]
    return found


def test_detector_flags_an_incomplete_field():
    tree = ast.parse(
        "class Full:\n" + "".join(f"    def {name}(self): pass\n" for name in FIELD_PROTOCOL)
        + "class Partial:\n    def coerce(self, x): pass\n    def mul(self, a, b): pass\n"
        "class NotAField:\n    def __add__(self, other): pass\n"
    )
    assert incomplete_fields(tree) == {
        "Full": [], "Partial": ["add", "neg", "inv", "scale_row", "sub_scaled", "dot"]}


def test_fields_implement_the_whole_protocol():
    found = incomplete_fields(ast.parse((ROOT / "src/tiltlab/exactlin.py").read_text(encoding="utf-8")))
    assert found == {"PrimeField": [], "Rationals": []}


def private_imports(mod: str, tree: ast.Module, library: set[str]) -> list[str]:
    """Underscore names that the module ``mod`` takes from another library
    module, by ``from lib import _name`` or as ``alias._name`` with
    ``alias`` bound to a library module.  A private name is one module's
    own; a second module that needs it is a second route to its job."""
    package = mod.rpartition(".")[0]
    modules: dict[str, str] = {}  # local name -> the library module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names if alias.name in library)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, (package, node.module))) if node.level else node.module
            for alias in node.names:
                if f"{base}.{alias.name}" in library:
                    modules[alias.asname or alias.name] = f"{base}.{alias.name}"
                elif base in library and base != mod and alias.name.startswith("_"):
                    found.append(f"{base}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and modules[node.value.id] != mod and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return sorted(set(found))


def test_detector_flags_a_private_import():
    library = {"pkg.a", "pkg.b", "pkg.c"}
    tree = ast.parse(
        "from .a import _helper, public\n"
        "from .b import _kept as kept\n"
        "from . import c\n"
        "import pkg.a as a\n"
        "from .d import _outside\n"
        "def f():\n"
        "    return c._inner(a._other, a.__name__, public, kept)\n"
    )
    assert private_imports("pkg.e", tree, library) == ["pkg.a._helper", "pkg.a._other", "pkg.b._kept", "pkg.c._inner"]
    assert private_imports("pkg.a", ast.parse("from .a import _own\n"), library) == []


# Private names one library module takes from another, each kept for a reason.
PRIVATE_KEPT = {
    ("tiltlab.artheory", "tiltlab.exactlin._gf_factor"): "ROADMAP item 15 makes the _gf_* helpers public",
}


def test_no_library_module_imports_a_private_name_of_another():
    library = trees("src/tiltlab")
    found = {(mod, name) for mod, tree in library.items() for name in private_imports(mod, tree, set(library))}
    assert found == set(PRIVATE_KEPT)
