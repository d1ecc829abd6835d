"""Every name a package module imports is read somewhere in that module,
every name it lists in __all__ is defined there and read by some package
module, and every module-level private name it defines is read by some
package module."""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

import levyestim

MODULES = sorted(Path(levyestim.__file__).parent.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    # names listed in a top-level __all__ count as read: they are re-exports
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    read |= _exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_checker_sees_unused_and_exported_names():
    source = ("import math\nimport os.path\n"
              "from numpy import sqrt as root, pi\nfrom x import y\n"
              "__all__ = ['y']\nprint(os.path.sep, root(pi))\n")
    assert _unused_imports(source) == ["math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf8")) == []


def _stale_exports(module: types.ModuleType) -> list[str]:
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_checker_sees_stale_exports():
    module = types.ModuleType("sample")
    exec("import math\n__all__ = ['math', 'kept', 'gone']\nkept = 1\n",
         module.__dict__)
    assert _stale_exports(module) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_every_export(path):
    name = "levyestim" if path.stem == "__init__" else f"levyestim.{path.stem}"
    assert _stale_exports(importlib.import_module(name)) == []


def _defined(stmt: ast.stmt) -> list[str]:
    # the module-level names a top-level statement defines: a function,
    # class or assigned constant
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _reads(tree: ast.Module, outside: str | None = None) -> set[str]:
    # the names and attributes the module reads, leaving out the top-level
    # statement that defines ``outside``
    read = set()
    for stmt in tree.body:
        if outside in _defined(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _private_definitions(tree: ast.Module) -> list[str]:
    # module-level _name functions, classes and constants (no dunders)
    return [name for stmt in tree.body for name in _defined(stmt)
            if name.startswith("_") and not name.startswith("__")]


def _orphaned_privates(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) if name not in read)


def test_checker_sees_orphaned_privates():
    sources = {
        "a": ("_KEPT = 1\n_GONE: int = 2\n__all__ = []\n"
              "def _used():\n    return _KEPT\n"
              "def _orphan():\n    pass\nclass _Unused:\n    pass\n"),
        "b": "from . import a\nfrom .a import _used\nprint(_used, a._x)\n",
        "c": "_x = 3\n_y = 4\n",
    }
    assert _orphaned_privates(sources) == ["a._GONE", "a._Unused",
                                           "a._orphan", "c._y"]


def test_package_reads_every_private_name():
    assert _orphaned_privates({path.stem: path.read_text(encoding="utf8")
                               for path in MODULES}) == []


# __all__ entries that no package module reads, each kept for a reader
# outside the package; a listed name that gains a caller or goes away fails
_PUBLIC_READERS = {
    # the variance-stabilizing map of the log-moment index estimate; its
    # caller is to be a ci_beta interval in the log report
    "symmetric.psi_transform",
}


def _unread_exports(sources: dict[str, str]) -> list[str]:
    # the package's own __init__ lists its submodules, not definitions
    trees = {module: ast.parse(text) for module, text in sources.items()
             if module != "__init__"}
    return sorted(
        f"{module}.{name}" for module, tree in trees.items()
        for name in _exported(tree)
        if not any(name in _reads(other, name if other is tree else None)
                   for other in trees.values()))


def test_checker_sees_unread_exports():
    sources = {
        "__init__": "from . import a\n__all__ = ['a']\n",
        "a": ("__all__ = ['used', 'recursive', 'LIMIT', 'local']\n"
              "LIMIT = 3\n"
              "def used():\n    return 1\n"
              "def recursive(k):\n    return recursive(k - 1)\n"
              "def local():\n    return used()\n"),
        "b": "from . import a\n__all__ = []\nprint(a.LIMIT)\n",
    }
    assert _unread_exports(sources) == ["a.local", "a.recursive"]


def test_every_export_has_a_reader():
    unread = _unread_exports({path.stem: path.read_text(encoding="utf8")
                              for path in MODULES})
    assert unread == sorted(_PUBLIC_READERS), f"unread exports: {unread}"


# public methods and properties of package classes that no package module
# reads, each kept for a reader outside the package; a listed member that
# gains a caller or goes away fails
_MEMBER_READERS = {
    # sigma*_q of a scale path; its caller is to be the truth-side sigma*_q
    # of the skewed covariances
    "stable_core.ScalePath.sigma_star",
}


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and not isinstance(n.ctx, ast.Store))


def _unread_members(sources: dict[str, str]) -> list[str]:
    # a member counts as read where its name is read as an attribute
    # outside its own definition.  The scan sees names, not types, so a
    # member that shares its name with a read one passes: an unread
    # ExperimentConfig.to_json_dict would hide behind the read
    # LevyEstimError.to_json_dict
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum(map(_attribute_reads, trees.values()), Counter())
    return sorted(
        f"{module}.{cls.name}.{member.name}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and read[member.name] == _attribute_reads(member)[member.name])


def test_checker_sees_unread_members():
    sources = {
        "a": ("class Box:\n"
              "    def __init__(self):\n        self.size = 1\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    def used(self):\n        return self.used\n"
              "    def again(self):\n        return self.again()\n"
              "    @classmethod\n    def make(cls):\n        return cls()\n"
              "    def _private(self):\n        pass\n"),
        "b": "from .a import Box\nBox.make().used()\n",
    }
    assert _unread_members(sources) == ["a.Box.again", "a.Box.size"]


def test_every_public_member_has_a_reader():
    unread = _unread_members({path.stem: path.read_text(encoding="utf8")
                              for path in MODULES})
    assert unread == sorted(_MEMBER_READERS), f"unread members: {unread}"
