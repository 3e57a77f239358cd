"""No floating point in the package's decisions.

Walks the syntax tree of every module of `src/enrlat` and fails on an
import of `cmath`, any use of `sqrt` (`math.sqrt` or an imported `sqrt`),
any use of the name `float` and any complex literal. The one allowance is
the wall-clock fields of `acceptance.CriterionResult` (`elapsed`, `limit`),
which time criteria and decide nothing about a lattice or a form.

It also fails on an import of `fractions` outside `fqf.py`, which holds
the rational q values, and `cli.py`, which reads them from JSON: below
that boundary the package computes in `int`.
"""

import ast
from pathlib import Path

import enrlat

PACKAGE = Path(enrlat.__file__).parent
ALLOWED_FLOAT_FIELDS = {("acceptance.py", "elapsed"), ("acceptance.py", "limit")}
FRACTION_MODULES = {"fqf.py", "cli.py"}


def _allowed_annotations(path, tree):
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and (path.name, node.target.id) in ALLOWED_FLOAT_FIELDS):
            out.add(id(node.annotation))
    return out


def float_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _allowed_annotations(path, tree)
    found = []
    for node in ast.walk(tree):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Import):
            found += [(where, "import cmath") for a in node.names if a.name == "cmath"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "cmath":
                found.append((where, "from cmath import"))
            found += [(where, "import sqrt") for a in node.names if a.name == "sqrt"]
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt":
            found.append((where, "sqrt"))
        elif isinstance(node, ast.Name) and node.id in ("sqrt", "float"):
            if id(node) not in allowed:
                found.append((where, node.id))
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append((where, "complex literal"))
    return found


def test_package_has_no_float_decisions():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert any(p.name == "fqf.py" for p in paths)
    found = [hit for path in paths for hit in float_uses(path)]
    assert found == []


def test_guard_catches_each_pattern(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import cmath\nimport math\nfrom math import sqrt\n"
        "x = math.sqrt(2)\ny = float(3)\nz = 1j\nlimit: float = 1\n"
    )
    kinds = sorted(kind for _, kind in float_uses(bad))
    assert kinds == ["complex literal", "float", "float", "import cmath", "import sqrt", "sqrt"]


def fraction_imports(paths):
    """path:line of each import of `fractions` outside FRACTION_MODULES."""
    found = []
    for path in paths:
        if path.name in FRACTION_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "fractions"):
                found.append("%s:%d" % (path.name, node.lineno))
    return found


def test_fractions_stay_at_the_edges():
    assert fraction_imports(sorted(PACKAGE.rglob("*.py"))) == []


def test_fraction_guard_catches_each_pattern(tmp_path):
    for name, text in (("a.py", "from fractions import Fraction\n"),
                       ("b.py", "import math\nimport fractions\n"),
                       ("fqf.py", "from fractions import Fraction\n")):
        (tmp_path / name).write_text(text)
    assert fraction_imports(sorted(tmp_path.glob("*.py"))) == ["a.py:1", "b.py:2"]
