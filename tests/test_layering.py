"""Where the shared private values of `src/revcirc` live: a module takes private names only from `ir` or `sim`."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "revcirc"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def private_imports() -> list[tuple[str, str, str]]:
    """(importing module, sibling module, name) for each private name a module imports from a sibling."""
    found = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [(name, node.module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_private_names_come_only_from_ir_or_sim():
    imports = private_imports()
    assert {sibling for _, sibling, _ in imports} == {"ir", "sim"}
    assert ("cli.py", "sim", "_decimal_bits") in imports and ("invert.py", "sim", "_int_to_bits") in imports


@pytest.mark.parametrize("shared", ["_DECIMAL_BITS", "_decimal_bits", "_int_to_bits"])
def test_each_shared_value_is_defined_once_in_sim(shared):
    defined = [
        name
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == shared
        or isinstance(node, ast.Assign)
        and shared in [target.id for target in node.targets if isinstance(target, ast.Name)]
    ]
    assert defined == ["sim.py"]


def test_bits_are_written_bit_0_first_in_one_place():
    texts = {name: (SRC / name).read_text() for name in MODULES}
    assert [name for name, text in texts.items() for _ in range(text.count('b")[::-1]'))] == ["sim.py"]
