"""The package imports only the standard library and itself, and no file
of the project imports sympy (``dependencies = []`` in pyproject.toml)."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported(path):
    """(module, level) of every import in the file; level > 0 is relative.

    ``importlib.import_module("m")`` and ``__import__("m")`` count as
    imports of m.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, 0
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("import_module", "__import__")):
            yield node.args[0].value, 0


def top(module):
    return module.split(".")[0]


def test_package_imports_only_the_standard_library_and_itself():
    files = sorted((ROOT / "src" / "axetlab").glob("*.py"))
    assert files
    foreign = [(path.name, module) for path in files
               for module, level in imported(path)
               if not level and top(module) not in sys.stdlib_module_names]
    assert not foreign


def test_no_file_imports_sympy():
    files = [path for part in ("src", "tests", "demos", "perfbench")
             for path in sorted((ROOT / part).rglob("*.py"))]
    assert files
    found = [str(path.relative_to(ROOT)) for path in files
             for module, _ in imported(path) if top(module) == "sympy"]
    assert not found


def test_linalg_has_one_path_whatever_the_field():
    # no field type and no isinstance: each kernel runs on the field's
    # encode and decode alone
    path = ROOT / "src" / "axetlab" / "linalg.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or ""]
             + [alias.name for alias in node.names]]
    assert not [name for name in names if "scalars" in name.split(".")]
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"]
