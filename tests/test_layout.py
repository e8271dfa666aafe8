"""Layout guard: every public top-level function or class and every
upper-case module-level constant of the package has a reader in the library
or the benchmark, and the package's caches and its reads of another
module's private names are the listed ones; the package's own imports
form no cycle.

A name counts as referenced when some file under ``src/`` or ``bench/``
reads it (a bare name, an attribute or an import) outside its own
definition or assignment. Test-only entry points belong in the tests, next
to the assertions that use them, and a deleted code path takes its
constants with it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qostbc"

#: public names with no caller yet. search_t8_cr_steps is the paper's T8_CR
#: rotation-step search; ROADMAP item 3 adds it to the gain_search workload.
UNCALLED = {"search_t8_cr_steps"}

#: (module, function) of every ``functools`` cache in the package. A cache
#: keeps its arguments and results alive and hands one result to every
#: caller, so adding or removing one is a decision made here too.
CACHES = {("catalog", "build"), ("cli", "build_parser"),
          ("transforms", "_identity"), ("gain", "_stack_forms"),
          ("decoder", "detection_plan")}

CACHE_DECORATORS = {"cache", "lru_cache"}

#: (reader, module, name) of every read in ``src/`` of another module's
#: private name. simulate.transmit checks its channels, noise and rho with
#: the rule the decoder's detectors check them by.
PRIVATE_READS = {("simulate", "decoder", "_check_batch")}


def _names(node) -> set:
    """Every name that ``node`` reads: bare names not assigned to,
    attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _public_definitions():
    """(name, path) of every public top-level function or class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield node.name, path


def _constants():
    """(name, path) of every upper-case module-level constant."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and sub.id.isupper():
                            yield sub.id, path


def _references() -> dict:
    """Map each name to the (path, definition) places that refer to it;
    a reference inside a top-level definition is keyed by that
    definition's name, any other by None."""
    refs = {}
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "bench").rglob("*.py"))
    for path in files:
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            for name in _names(node):
                refs.setdefault(name, set()).add((path, owner))
    return refs


def test_every_public_name_has_a_library_or_bench_caller():
    refs = _references()
    uncalled = {
        name for name, path in _public_definitions()
        if not refs.get(name, set()) - {(path, name)}
    }
    assert uncalled == UNCALLED


def test_every_constant_is_read_in_the_library_or_bench():
    refs = _references()
    unread = {name for name, _ in _constants() if name not in refs}
    assert unread == set()


def _aliases(trees) -> dict:
    """Module-level ``alias = name`` (or ``= module.name``) assignments of
    the parsed modules ``trees``, alias -> name."""
    aliases = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, (ast.Name, ast.Attribute)):
                value = node.value
                aliases[node.targets[0].id] = getattr(value, "id", None) \
                    or value.attr
    return aliases


def _calls():
    """(called name, positional count, keywords, caller) of every call in
    ``src/`` and ``bench/``, the called name read through the module-level
    aliases of either; caller is the enclosing top-level definition's name, or None.
    A ``*args`` counts as every position and a ``**kwargs`` as every
    keyword."""
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src").rglob("*.py"))
             + sorted((ROOT / "bench").rglob("*.py"))]
    aliases = _aliases(trees)
    for tree in trees:
        for top in tree.body:
            owner = getattr(top, "name", None)
            for call in ast.walk(top):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                keywords = {k.arg for k in call.keywords}
                yield (aliases.get(name, name),
                       float("inf") if starred else len(call.args),
                       None if None in keywords else keywords, owner)


def _defaulted_parameters():
    """(function, parameter, position or None) of every parameter with a
    default of a public top-level function of the package; keyword-only
    parameters have no position."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) \
                    or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(args.defaults):
                    yield node.name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def test_every_defaulted_parameter_is_set_by_a_library_or_bench_caller():
    # a knob no caller turns is a constant: the default is the only value
    # the library and the benchmark ever use
    calls = list(_calls())
    unset = set()
    for function, param, position in _defaulted_parameters():
        if not any(name == function and owner != function
                   and (keywords is None or param in keywords
                        or position is not None and count > position)
                   for name, count, keywords, owner in calls):
            unset.add(f"{function}({param}=)")
    assert unset == set()


def _is_cache(node, imported: set) -> bool:
    """Whether ``node`` names ``functools.cache`` or ``functools.lru_cache``
    (``imported`` holds the names they were imported under)."""
    if isinstance(node, ast.Attribute):
        return (node.attr in CACHE_DECORATORS
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools")
    return isinstance(node, ast.Name) and node.id in imported


def test_every_cache_is_listed():
    # a cache applied other than as a decorator is reported without its
    # function, so it fails the comparison too
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "functools"
                    for alias in node.names
                    if alias.name in CACHE_DECORATORS}
        decorated = 0
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    if _is_cache(getattr(deco, "func", deco), imported):
                        found.append((path.stem, node.name))
                        decorated += 1
        uses = sum(_is_cache(node, imported) for node in ast.walk(tree))
        found += [(path.stem, None)] * (uses - decorated)
    assert sorted(found, key=str) == sorted(CACHES, key=str)


def _private_reads():
    """(reader, module, name) of every ``from .module import _name`` and
    every ``module._name`` in ``src/`` that names a module of the package;
    dunder names are not private."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level
                    and not node.module for alias in node.names
                    if alias.name in modules}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level \
                    and node.module in modules:
                yield from ((path.stem, node.module, alias.name)
                            for alias in node.names if private(alias.name))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in imported and private(node.attr):
                yield path.stem, node.value.id, node.attr


def test_private_names_are_read_only_where_listed():
    assert set(_private_reads()) == PRIVATE_READS


def _imports() -> dict:
    """Map each module of the package to the package modules it imports,
    at module level or inside a function (``from .module import name`` and
    ``from . import module``)."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                deps.update([node.module] if node.module else
                            [a.name for a in node.names if a.name in modules])
    return graph


def test_package_imports_form_no_cycle():
    # drop, until none is left to drop, every module that imports no
    # remaining module or that no remaining module imports; what is left
    # lies on a cycle (an import cycle is what forces an import into a
    # function, or a module passed as an argument)
    graph = _imports()
    while True:
        imported = set().union(*graph.values())
        left = {m for m, deps in graph.items() if deps and m in imported}
        if left == graph.keys():
            break
        graph = {m: graph[m] & left for m in left}
    assert graph == {}
