"""Every public name in ``src/qramprep`` is reached by the package or the benchmark.

A public function, class or public method that only the tests reach is a
second path. A name counts as reached when a ``Name``, an ``Attribute``, an
import alias or a string that spells a name or a dotted name
(``getattr(obj, "access_log")``, ``"fixedpoint.encode_phase"``) names it,
in ``src/qramprep`` outside its own definition or anywhere in
``perfbench``. Names match bare, so a name that shares its spelling with a
reached one counts as reached too.

Only ``errors.py`` may import from ``numbers``: the rule for what counts as
an int or a number is kept there alone.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME_STRING = re.compile(r"\w+(?:\.\w+)*")

# unreached names that stay, each with its reason
PINNED = {
    "simulator.ry_cascade_by_gates": "acceptance suite",
    "simulator.marker_check": "acceptance suite",
}


def names_in(node: ast.AST) -> Counter:
    """Bare names that Name, Attribute, import-alias and name-string nodes under ``node`` name."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and NAME_STRING.fullmatch(sub.value):
            found.update(sub.value.split("."))
    return found


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def unreached() -> list[str]:
    """``module.name`` of every public definition in ``src/qramprep`` that nothing reaches."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "qramprep").glob("*.py"))}
    in_src = sum(map(names_in, modules.values()), Counter())
    in_perfbench = sum((names_in(ast.parse(path.read_text()))
                        for path in sorted((ROOT / "perfbench").rglob("*.py"))), Counter())
    found = []
    for module, tree in modules.items():
        for qualname, node in public_definitions(tree):
            name = node.name
            if not in_perfbench[name] and in_src[name] == names_in(node)[name]:
                found.append(f"{module}.{qualname}")
    return sorted(found)


def test_only_pinned_names_are_unreached():
    found = unreached()
    assert [name for name in found if name not in PINNED] == [], "reached by tests alone"
    assert [name for name in found if name in PINNED] == sorted(PINNED), "pinned but reached"


def test_only_errors_imports_numbers():
    importers = [
        path.name for path in sorted((ROOT / "src" / "qramprep").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "numbers"
        or isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
    ]
    assert importers == ["errors.py"]
