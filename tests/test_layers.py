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

A third keeps one reader per internal layout, in every module, front ends
included: the LDL^T rows of `intmat.eliminate_symmetric` are read in
`intmat` and `lattice` alone, the LDL^T a definite Lattice keeps
(`_ldl`) in `lattice` alone, and the per-scale Jordan readings of
`fqf._local` (and `fqf._scales`, its view at one prime) in `fqf` alone.
No other module may name them, as a name, an attribute or an import.

A fourth keeps generated code in one place: only `lattice`, which builds
its enumeration walk per rank from source, calls `exec` or `compile`
(as a bare name or as an attribute of `builtins`), in every module.
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


# internal name -> the only modules that may name it
LAYOUT_READERS = {
    "eliminate_symmetric": {"intmat", "lattice"},
    "_ldl": {"lattice"},
    "_local": {"fqf"},
    "_scales": {"fqf"},
}


def layout_readers(package, readers=LAYOUT_READERS):
    """'module names name at line n' for each name, attribute or imported
    name of readers in a module that readers does not list for it."""
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name in readers and path.stem not in readers[name]:
                out.append("%s names %s at line %d" % (path.stem, name, node.lineno))
    return sorted(out)


def test_one_reader_per_internal_layout():
    assert layout_readers(PACKAGE) == []


def test_layout_guard_catches_each_reference(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    files = {
        "intmat.py": "def eliminate_symmetric(g):\n    return g\n",
        "lattice.py": "from .intmat import eliminate_symmetric\n",
        "fqf.py": "def _local(f):\n    return _scales(f)\n",
        "embeddings.py": "from .intmat import snf, eliminate_symmetric as elim\n"
                         "slot = lat._ldl\n",
        "nikulin.py": "from . import fqf\n\ndef read(f):\n    return fqf._local(f)\n",
        "cli.py": "_scales = 1\nlocal = _local_key = 2\n",
    }
    for fname, text in files.items():
        (package / fname).write_text(text)
    assert layout_readers(package) == [
        "cli names _scales at line 1",
        "embeddings names _ldl at line 2",
        "embeddings names eliminate_symmetric at line 1",
        "nikulin names _local at line 4",
    ]


# builtin that makes code from text -> the only modules that may call it
CODE_BUILDERS = {"exec": {"lattice"}, "compile": {"lattice"}}


def code_builders(package, builders=CODE_BUILDERS):
    """'module calls name at line n' for each call of a builtin of builders,
    as a name or as an attribute of builtins, in a module that builders
    does not list for it; another module's function of that name, such as
    re.compile, is no such call."""
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name):
                name = func.id
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "builtins"):
                name = func.attr
            else:
                continue
            if name in builders and path.stem not in builders[name]:
                out.append("%s calls %s at line %d" % (path.stem, name, node.lineno))
    return sorted(out)


def test_only_lattice_builds_code():
    assert code_builders(PACKAGE) == []


def test_code_guard_catches_each_call(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    files = {
        "lattice.py": "def walk(src):\n    exec(compile(src, 'w', 'exec'), {})\n",
        "fqf.py": "import builtins\n\ndef late(src):\n    return builtins.exec(src)\n",
        "embeddings.py": "import re\n_TERM = re.compile('x')\ncode = compile('1', 'f', 'eval')\n",
        "cli.py": "def run(src):\n    def inner():\n        exec(src)\n    return inner\n",
        "nikulin.py": "exec = print\nx = self.exec\n",
    }
    for fname, text in files.items():
        (package / fname).write_text(text)
    assert code_builders(package) == [
        "cli calls exec at line 3",
        "embeddings calls compile at line 3",
        "fqf calls exec at line 4",
    ]
