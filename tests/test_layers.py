"""The package imports one way, and the oracle reads nothing of the constructor.

Each module of src/linkdyn is read with ast, not imported, so these
tests see the source as written.  The entry files __init__ and __main__
are left out: they import the modules, and no module imports them.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "linkdyn"

# the names of the constructor's rules and data, and the completion
# that renders the oracle's witness: an independent search reads none
CONSTRUCTOR = {
    "potentials",
    "genus_gcd",
    "check",
    "construct",
    "_validate_order",
    "_admissible_orders",
    "_order_fault",
    "_completed",
}
# the only package modules the oracle's search may import
ORACLE_IMPORTS = {"diagram", "errors", "fields"}


def modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    }


def imported_modules(node):
    """The package modules an import statement reads, [] for any other."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            if node.module:
                return [node.module.split(".")[0]]
            return [alias.name for alias in node.names]
        if node.level == 0 and node.module:
            top, _, rest = node.module.partition(".")
            if top == "linkdyn":
                return [rest.split(".")[0]] if rest else [a.name for a in node.names]
    elif isinstance(node, ast.Import):
        return [
            alias.name.split(".")[1]
            for alias in node.names
            if alias.name.startswith("linkdyn.")
        ]
    return []


def package_imports(tree):
    """(module imported, line, whether inside a function or class body)."""
    found = []
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            for target in imported_modules(child):
                found.append((target, child.lineno, nested))
            visit(child, nested or isinstance(child, scopes))

    visit(tree, False)
    return found


def test_no_package_import_in_a_function_or_class():
    nested = [
        f"{name}.py:{line} imports {target}"
        for name, tree in modules().items()
        for target, line, inner in package_imports(tree)
        if inner
    ]
    assert nested == []


def test_module_graph_is_acyclic():
    graph = {
        name: {target for target, _, _ in package_imports(tree)} - {name}
        for name, tree in modules().items()
    }
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_oracle_imports_only_the_diagram_errors_and_field():
    imported = {target for target, _, _ in package_imports(modules()["oracle"])}
    assert imported <= ORACLE_IMPORTS, sorted(imported - ORACLE_IMPORTS)


def test_oracle_names_none_of_the_constructors_rules():
    named = set()
    for node in ast.walk(modules()["oracle"]):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)  # getattr(diagram, "potentials")
    assert not named & CONSTRUCTOR, sorted(named & CONSTRUCTOR)
