"""The package stays within the line count of the seed commit, and every
public name in it is reached from somewhere other than its own definition."""

import ast
import re
from pathlib import Path

import wavereg

SEED_LINES = 1567  # `wc -l src/wavereg/*.py` at the seed commit

ROOT = Path(__file__).resolve().parents[1]


def test_package_is_no_longer_than_the_seed():
    package = Path(wavereg.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    assert lines <= SEED_LINES, f"src/wavereg/*.py has {lines} lines, limit {SEED_LINES}"


def _defined_names(node):
    """The names a module-level statement defines: a function's or class's,
    or the plain names an assignment binds (the module's constants)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    return []


def test_every_public_name_is_reached():
    # a public module-level function, class or constant is named outside its
    # own definition: in the package, the benchmark or the README
    package = sorted((ROOT / "src" / "wavereg").glob("*.py"))
    texts = {path: path.read_text()
             for path in [*package, *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]}
    checked, unreached = [], []
    for path in package:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            outside = [text for other, text in texts.items() if other != path]
            outside.append("\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:]))
            for name in _defined_names(node):
                if name.startswith("_"):
                    continue
                checked.append(name)
                if not any(re.search(rf"\b{name}\b", text) for text in outside):
                    unreached.append(f"{path.name}: {name}")
    assert unreached == []
    assert {"METHODS", "PATTERNS", "MAX_HISTOGRAM_BINS", "register"} <= set(checked)
