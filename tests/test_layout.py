"""Layout checks on the package source: no function or method that nothing names.

Every function and method defined in src/multishift must be named by code
somewhere in the package (an ast.Name, an ast.Attribute or an import alias;
a docstring or comment does not count), or appear in UNNAMED with its reason.
The re-exports of __init__.py are not uses: a name that only they read is
unnamed. Dunder methods are called by Python itself and are skipped.
"""

import ast
from pathlib import Path

import multishift

SOURCE = Path(multishift.__file__).resolve().parent

# qualified name (module.function or module.Class.method) -> why it stays
UNNAMED = {
    "shiftcore.path_product":
        "criterion 7 compares the canonical staircase product with a reversed one",
    "equivalence.SimilarityCertificate.swapped":
        "test-facing API: the certificate of the role-swapped pair",
    "serialization.weight_system_to_json":
        "test-facing API: the tests write weight-system problem files with it",
    "shiftcore.build_mz":
        "criterion 6 builds each coordinate shift with it",
    "shiftcore.check_adjoint_formula":
        "criterion 6 compares the two constructions of the adjoint shift with it",
    "shiftcore.canonical_weights":
        "criterion 7 takes the orthonormal-frame weights of a moment system with it",
    "equivalence.sandwich_ratio":
        "public API: the tightest constants (m1, m2, log ratio) for a given C",
    "numerics.sqrt_pd":
        "public API: the square root of a HermPD, which the tests call",
    "numerics.inv_sqrt_pd":
        "public API: the inverse square root of a HermPD, which the tests call",
    "numerics.inv_pd":
        "public API: the inverse of a HermPD, which the tests call",
}


def definitions(tree: ast.Module, module: str) -> dict:
    """qualified name -> bare name of every function and method in a module."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    found[name] = child.name
                walk(child, name)
            else:
                walk(child, prefix)

    walk(tree, module)
    return found


def named(tree: ast.Module) -> set:
    """Every name the code of a module reads, writes or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_function_is_named_somewhere():
    defined, used = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined.update(definitions(tree, path.stem))
        if path.name != "__init__.py":
            used |= named(tree)
    unnamed = {qual for qual, name in defined.items()
               if name not in used and not (name.startswith("__") and name.endswith("__"))}
    assert unnamed - set(UNNAMED) == set(), "functions nothing in the package names"
    assert set(UNNAMED) - unnamed == set(), "allowlisted names that are now named or gone"


def test_guard_sees_a_function_nothing_names():
    tree = ast.parse("def used():\n    return 1\n\n\ndef unused():\n    return used()\n")
    defined = definitions(tree, "m")
    assert defined == {"m.used": "used", "m.unused": "unused"}
    assert {q for q, name in defined.items() if name not in named(tree)} == {"m.unused"}


def test_docstrings_do_not_count_as_names():
    tree = ast.parse('def lonely():\n    """lonely is named only here."""\n')
    assert "lonely" not in named(tree)
