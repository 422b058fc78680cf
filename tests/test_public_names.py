"""Every public name of ``ctc`` has a caller in the engine or the benchmark.

A name listed in a module's ``__all__``, and a public method of a class
listed there, must be read somewhere in ``src/ctc`` outside its own
definition, or named in ``bench/``, where ``spans.py`` binds functions by
strings such as ``("linalg", "rref")``.  Docstrings do not count, and
neither do imports or ``__all__`` itself.  A method counts as read when
any attribute of its name is, so one that shares a name with a read
attribute passes unseen.  A helper that only the tests use belongs in
the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ctc"
BENCH = ROOT / "bench"

# names kept for the open items of ROADMAP.md that will call them
AWAITING_CALLERS = {
    "categorical_dim",  # item 6: the SU(2)_k data checks dim C / dim A
    "is_twisted_local",  # item 7: locality up to the parity automorphism in C ⊠ sVec
}


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _uses(tree, skip=(), strings=False):
    """The names ``tree`` reads, leaving out the definitions in ``skip``;
    with ``strings``, also the dotted parts of string constants other than
    docstrings and the names it imports."""
    docs = _docstrings(tree)
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif strings and isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            found.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _defined(tree, name):
    """The top-level definitions of ``name`` in ``tree``."""
    return [node for node in tree.body if getattr(node, "name", None) == name]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
BENCH_USES = set().union(
    *(_uses(ast.parse(path.read_text(encoding="utf-8")), strings=True) for path in sorted(BENCH.glob("*.py")))
)
USES = {module: _uses(tree) for module, tree in TREES.items()}


def test_every_library_module_lists_its_public_names():
    # the command-line module is an entry point and exports nothing
    assert [name for name, tree in TREES.items() if not _exported(tree)] == ["cli"]


def _read(name, module, definitions):
    """Whether ``name`` is named in ``bench/`` or read in ``src/ctc``
    outside ``definitions``, which lie in ``module``."""
    return (
        name in BENCH_USES
        or any(name in uses for other, uses in USES.items() if other != module)
        or name in _uses(TREES[module], definitions)
    )


@pytest.mark.parametrize("module", sorted(TREES))
def test_public_names_have_callers(module):
    tree = TREES[module]
    uncalled = [
        name
        for name in _exported(tree)
        if name not in AWAITING_CALLERS and not _read(name, module, _defined(tree, name))
    ]
    assert uncalled == []


def _public_methods(tree):
    """The definitions of the public methods of the classes ``tree`` exports."""
    exported = set(_exported(tree))
    return [
        item
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]


@pytest.mark.parametrize("module", sorted(TREES))
def test_public_methods_have_callers(module):
    uncalled = [method.name for method in _public_methods(TREES[module]) if not _read(method.name, module, [method])]
    assert uncalled == []


def test_names_awaiting_callers_are_still_uncalled_and_public():
    exported = set().union(*(_exported(tree) for tree in TREES.values()))
    assert AWAITING_CALLERS <= exported
    called = set().union(*USES.values())
    assert not AWAITING_CALLERS & (called | BENCH_USES)
