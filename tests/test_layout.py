"""Layout guard: every public top-level function or class and every
upper-case module-level constant of the package has a reader in the library
or the benchmark.

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
