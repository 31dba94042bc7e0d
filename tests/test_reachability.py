"""Every function, class and method in the package is reached from the
package itself: a name that only tests call belongs in tests/, and a name
that nothing calls is deleted."""
import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chainops"

# names that no line of src/ references, each with the reason it stays
ALLOWED = {
    "main": "the console-script entry point",
    "kernel_matrix": "wrapped by the benchmark's tracer",
}


def _definitions(tree):
    """(name, node) for each module-level function and class and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, item


def _references(node):
    """Names read as a variable or an attribute anywhere under node."""
    return collections.Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)))


def unreferenced_names():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()),
                     collections.Counter())
    found = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("cmd_") or name in ALLOWED:
                continue  # the CLI dispatches cmd_* by name
            if everywhere[name] == _references(node)[name]:
                found.append(f"{module}.{name}")
    return found


def test_every_package_name_is_referenced_in_the_package():
    assert unreferenced_names() == []
