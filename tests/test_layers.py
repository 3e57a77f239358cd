"""Each module imports only the layers below it.

Walks the syntax tree of every module of `src/enrlat` and collects the
package modules it imports, at any depth of the module (an import inside a
function counts too): `from .x import ...`, `from . import x`,
`from enrlat.x import ...`, `from enrlat import x` and `import enrlat.x`.
Each must be in the module's layer below:

    _store                        nothing
    errors                        _store
    intmat                        _store, errors
    lattice                       _store, errors, intmat
    fqf, enriques, classgroups    _store, errors, intmat, lattice
    embeddings                    those four and enriques
    nikulin                       those four, enriques and fqf

so the bounded store knows nothing of the package, the integer matrix
layer nothing of lattices, and a lattice nothing of forms or embeddings. The front ends (`__init__`, `__main__`,
`cli`, `acceptance`) may import anything; a module that is in neither
list fails until it is given a place.

A second guard keeps one group-enumeration kernel: `.elements()`, the
walk over every element of a finite quadratic form, is called only inside
`fqf`, in any module of `src/enrlat`, front ends included.
"""

import ast
from pathlib import Path

import enrlat

PACKAGE = Path(enrlat.__file__).parent

_BASE = {"_store", "errors", "intmat", "lattice"}
LAYERS = {
    "_store": set(),
    "errors": {"_store"},
    "intmat": {"_store", "errors"},
    "lattice": {"_store", "errors", "intmat"},
    "fqf": _BASE,
    "enriques": _BASE,
    "classgroups": _BASE,
    "embeddings": _BASE | {"enriques"},
    "nikulin": _BASE | {"enriques", "fqf"},
}
FRONT_ENDS = {"__init__", "__main__", "cli", "acceptance"}


def imported_modules(tree, name):
    """Modules of the package `name` that the tree imports; a bare
    `import name` is its `__init__`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == name:
                parts = node.module.split(".")[1:]
            else:
                continue
            out.update(parts[:1] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == name:
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def layer_breaches(package, name, layers=LAYERS, front_ends=FRONT_ENDS):
    """'module imports other' for each import outside a module's layer,
    and 'module has no layer' for a module in neither table."""
    out = []
    for path in sorted(package.glob("*.py")):
        mod = path.stem
        if mod in front_ends:
            continue
        if mod not in layers:
            out.append("%s has no layer" % mod)
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        out += ["%s imports %s" % (mod, other)
                for other in sorted(imported_modules(tree, name) - layers[mod])]
    return out


def test_every_module_imports_only_its_layers():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS) | FRONT_ENDS
    assert layer_breaches(PACKAGE, "enrlat") == []


def test_guard_catches_each_pattern(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    files = {
        "__init__.py": "from .top import run\n",
        "errors.py": "import math\n",
        "intmat.py": "from .errors import E\nfrom . import lattice\n",
        "lattice.py": "from .intmat import f\nfrom pkg.fqf import g\n",
        "fqf.py": "import pkg.embeddings\nfrom .lattice import h\n",
        "enriques.py": "def late():\n    from .nikulin import n\n    return n\n",
        "classgroups.py": "import pkg\nfrom .errors import E\n",
        "embeddings.py": "from .enriques import a\nfrom other.fqf import b\n",
        "nikulin.py": "from .fqf import c\nfrom .enriques import d\n",
        "top.py": "from .nikulin import n\n",
    }
    for fname, text in files.items():
        (package / fname).write_text(text)
    assert layer_breaches(package, "pkg", front_ends={"__init__"}) == [
        "classgroups imports __init__",
        "enriques imports nikulin",
        "fqf imports embeddings",
        "intmat imports lattice",
        "lattice imports fqf",
        "top has no layer",
    ]


def group_walks(package, owner="fqf"):
    """'module calls .elements() at line n' for each such call in a module
    other than owner."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.stem == owner:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        out += ["%s calls .elements() at line %d" % (path.stem, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "elements"]
    return sorted(out)


def test_only_fqf_walks_a_group():
    assert group_walks(PACKAGE) == []


def test_walk_guard_catches_each_call(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    files = {
        "fqf.py": "def walk(f):\n    return list(f.elements())\n",
        "nikulin.py": "def late(f):\n    def inner():\n        return f.elements()\n    return inner\n",
        "cli.py": "from .fqf import walk\nxs = [q for q in self.form.elements()]\n",
        "lattice.py": "elements = 1\ndef f(x):\n    return x.elements, elements\n",
    }
    for fname, text in files.items():
        (package / fname).write_text(text)
    assert group_walks(package) == [
        "cli calls .elements() at line 2",
        "nikulin calls .elements() at line 3",
    ]
