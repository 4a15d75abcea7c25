"""Guards against duplicates coming back into the library.

Element resolution, closing order pairs, the antisymmetry, monotonicity
and compatibility scans, and the shuffle-ideal falsifier each have one
definition; the helpers they replaced stay deleted, and the falsifier does
not go back to enumerating subwords.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latlang"

DELETED = {
    "_transitive_reflexive_closure",
    "_compatible",
    "_components_of",
    "fraction_str",
}
KERNEL = {
    "resolve": "lattice.py",
    "order_from_pairs": "lattice.py",
    "mutual_pair": "lattice.py",
    "monotone_violation": "lattice.py",
    "compatibility_violation": "monoid.py",
    "shuffle_ideal_falsify": "syntactic.py",
}


def _function_defs():
    """(file name, function name, defined at module level) for every def."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node.name, id(node) in top


def test_deleted_duplicates_stay_deleted():
    found = [
        (file, name) for file, name, at_top in _function_defs()
        if name in DELETED or (name in ("resolve", "resolve_state") and not at_top)
    ]
    assert found == []


def test_falsifier_enumerates_no_subwords():
    tree = ast.parse((SRC / "syntactic.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert "combinations" not in names


def test_order_kernel_has_one_definition_each():
    for name, home in KERNEL.items():
        defs = [(file, at_top) for file, fn, at_top in _function_defs() if fn == name]
        assert defs == [(home, True)], name
