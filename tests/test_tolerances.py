"""Each tolerance is named once, in the module that owns it.

A float literal below 1e-6 in the package is a tolerance: the rounding a
comparison forgives.  Each one must be the value of a module-level name,
defined once across the package under a comment line saying what rounding
it absorbs, and every comparison that shares its meaning reads that name.
So a change to one tolerance is a change to one line.
"""

import ast
from pathlib import Path

import sybil_atsc

SOURCES = sorted(Path(sybil_atsc.__file__).parent.glob("*.py"))


def _is_small_float(node) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
    )


def _definitions(tree):
    """The module-level `NAME = <small float>` statements of a module."""
    return [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and _is_small_float(node.value)
    ]


def test_no_small_float_literal_outside_a_named_definition():
    bare = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        named = {id(node.value) for node in _definitions(tree)}
        bare += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_small_float(node) and id(node) not in named
        ]
    assert bare == []


def test_each_tolerance_is_defined_once_under_its_reason():
    names = []
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        for node in _definitions(ast.parse(text)):
            names.append(node.targets[0].id)
            above = lines[node.lineno - 2].strip()
            assert above.startswith("# "), f"{path.name}:{node.lineno} has no reason above it"
    assert len(names) == len(set(names)), names
    assert names  # the parse found the definitions
