"""No name that nothing uses.

Walks the syntax tree of every module of `src/enrlat` and collects each
module-level function and class, each private module-level constant
(dunder names such as `__version__` exempt) and each public method and
property of those classes. Each one must be read somewhere in
`src/enrlat` (not counting the re-exports of `__init__.py`) or in
`demos/`, as a name or an attribute, outside its own definition. An
import alone is not a use, and neither is a test: code kept alive only by
its own tests is dead code.

Likewise every name that a module other than `__init__.py` imports, at
module level or inside a function, must be read in that module.

And every backticked identifier with an underscore in `README.md`,
`docs/*.md` and the modules of `src/enrlat`, dotted or not, must name
something the package binds, or be one of its string constants, so no
text points at a name that is gone.
"""

import ast
import re
from pathlib import Path

import enrlat

PACKAGE = Path(enrlat.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _assigned(node):
    """Names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def definitions(path, tree):
    """(label, name, node) for each module-level function and class, each
    private module-level constant and each public method or property of
    those classes; dunder names are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            out += [("%s.%s" % (path.stem, name), name, node) for name in _assigned(node)
                    if name.startswith("_") and not name.startswith("__")]
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
            continue
        out.append(("%s.%s" % (path.stem, node.name), node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append(("%s.%s.%s" % (path.stem, node.name, item.name), item.name, item))
    return out


def _reads(tree):
    """(name, node id) of every ast.Name and ast.Attribute in the tree that
    is not assigned to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, id(node)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, id(node)


def dead_names(package, demos):
    """Labels of the definitions in package that nothing reads."""
    modules = {p: _parse(p) for p in sorted(package.glob("*.py"))}
    users = [tree for p, tree in modules.items() if p.name != "__init__.py"]
    users += [_parse(p) for p in sorted(demos.glob("*.py"))]
    reads = {}
    for tree in users:
        for name, node_id in _reads(tree):
            reads.setdefault(name, set()).add(node_id)
    dead = []
    for path, tree in modules.items():
        for label, name, node in definitions(path, tree):
            inside = {id(n) for n in ast.walk(node)}
            if not reads.get(name, set()) - inside:
                dead.append(label)
    return dead


def test_every_public_name_has_a_user():
    assert (PACKAGE / "fqf.py").exists() and any(DEMOS.glob("*.py"))
    assert dead_names(PACKAGE, DEMOS) == []


def test_guard_catches_each_pattern(tmp_path):
    package, demos = tmp_path / "pkg", tmp_path / "demos"
    package.mkdir()
    demos.mkdir()
    (package / "__init__.py").write_text("from .mod import exported, used\n")
    (package / "mod.py").write_text(
        "__version__ = '1'\n_KEPT = 1\n_UNREAD = 2\n\n"
        "def used():\n    return _helper()\n\n"
        "def exported():\n    return 2\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "def _helper():\n    return _KEPT\n\n"
        "def _private():\n    return 3\n\n"
        "def _rebinds():\n    global _UNREAD\n    _UNREAD = _private()\n\n"
        "class Box:\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def shown(self):\n        return self.size\n\n"
        "    def unread(self):\n        return 0\n"
    )
    (demos / "demo.py").write_text(
        "from pkg.mod import Box, imported_only\nprint(Box().shown())\n"
    )
    assert dead_names(package, demos) == [
        "mod._UNREAD", "mod.exported", "mod.recursive", "mod._rebinds", "mod.Box.unread"]


def unused_imports(package):
    """module:name for each name a module other than `__init__.py`
    imports and never reads as a name."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        out.append("%s:%s" % (path.stem, name))
    return out


def test_every_import_is_read():
    assert unused_imports(PACKAGE) == []


def test_import_guard_catches_each_pattern(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import used\n")
    (package / "mod.py").write_text(
        "import math\nimport os.path\nimport re\n"
        "from itertools import product as iproduct, chain\n"
        "from .other import identity, gram_of_rows\n\n"
        "def used():\n    import random\n    import json\n"
        "    return math.pi, os.sep, iproduct, random.random(), identity\n\n"
        "def rebinds():\n    global re\n    re = 1\n"
    )
    assert unused_imports(package) == [
        "mod:re", "mod:chain", "mod:gram_of_rows", "mod:json"]


# a backticked identifier, dotted or not, such as `fqf._dual_basis`
_TICKED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def bound_names(package):
    """Every module name of the package, and every name it binds (def,
    class, argument, assignment, attribute store) or holds as a string
    constant."""
    names = {p.stem for p in package.glob("*.py")}
    for path in package.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def stale_references(package, texts):
    """(count, stale): how many backticked identifiers with an underscore
    the texts hold, and "file: name" for each one whose whole text and
    last dotted part are both unknown to `bound_names`."""
    names = bound_names(package)
    refs = [(path.name, m.group(1)) for path in texts
            for m in _TICKED.finditer(path.read_text()) if "_" in m.group(1)]
    return len(refs), ["%s: %s" % (name, ref) for name, ref in refs
                       if ref not in names and ref.rsplit(".", 1)[-1] not in names]


def test_every_backticked_name_is_bound():
    texts = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
             *sorted(PACKAGE.glob("*.py"))]
    count, stale = stale_references(PACKAGE, texts)
    assert count > 100 and stale == []


def test_reference_guard_catches_each_pattern(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "_util.py").write_text("")
    (package / "mod.py").write_text(
        '"""Uses `_util`, `mod.kept_fn` and `gone_fn`."""\n\n'
        "LIMIT_CAP = 1\n\n"
        "def kept_fn(arg_name):\n    return {'json_key': arg_name}\n\n"
        "class Box:\n    def __init__(self):\n        self.kept_attr = 0\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text(
        "`LIMIT_CAP`, `arg_name`, `json_key`, `Box.kept_attr`, `pkg._util`, `plain`,\n"
        "`two words_here`, `old.gone_fn`, `gone_attr`\n"
    )
    assert stale_references(package, [readme, package / "mod.py"]) == (
        10, ["README.md: old.gone_fn", "README.md: gone_attr", "mod.py: gone_fn"])
