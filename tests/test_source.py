"""The core stays stdlib-only and float-free: checked on the source itself."""

import ast
import sys
from pathlib import Path

import tropcount

SOURCES = sorted(Path(tropcount.__file__).parent.glob("*.py"))


def parsed():
    for path in SOURCES:
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert {"cli", "enumeration", "linalg", "moduli_maps"} <= {p.stem for p in SOURCES}


def test_imports_are_stdlib_or_tropcount():
    allowed = set(sys.stdlib_module_names) | {"__future__", "tropcount"}
    for module, tree in parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside tropcount
            for name in names:
                assert name.split(".")[0] in allowed, f"{module} imports {name}"


def floats_in(node):
    """Float literals and uses of the name `float` under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            yield sub
        elif isinstance(sub, ast.Name) and sub.id == "float":
            yield sub


def test_no_float_outside_svg_render():
    for module, tree in parsed():
        allowed = set()
        if module == "cli":
            (render,) = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_svg_render"
            ]
            allowed = {id(sub) for sub in floats_in(render)}
            assert allowed  # SVG coordinates are printed through float()
        stray = [sub for sub in floats_in(tree) if id(sub) not in allowed]
        assert not stray, f"{module} line {stray[0].lineno} uses a float"


def test_no_assert_statements():
    # invariants raise, so they survive python -O
    for module, tree in parsed():
        stray = [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not stray, f"{module} line {stray[0].lineno} uses assert"
