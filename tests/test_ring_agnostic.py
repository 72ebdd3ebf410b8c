"""The least-exponent search does not branch on the ring.

``complexes.null_homotopies`` states, for every ring, which multiples of
the identity are null-homotopic and solves them; ``structures.py`` only
does arithmetic on its answer.  This walks the syntax tree of
``structures.py`` and checks that it names none of the ring-specific
machinery behind that answer.
"""

import ast
from pathlib import Path

STRUCTURES = Path(__file__).resolve().parent.parent / "src" / "homcert" / "structures.py"
RING_SPECIFIC = {
    "ModularRing", "is_field", "homology_invariants", "HomotopySystem", "reduce_units",
    "solve_right", "SmithSolver",
}


def named(source: str) -> set:
    """Every name, attribute and imported name (and alias) in the source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found |= {*node.name.split("."), node.asname} - {None}
    return found


def test_named_sees_imports_aliases_and_attributes():
    source = ("from .exactalg import ModularRing as M\n"
              "import homcert.complexes\n"
              "def f(x):\n"
              "    return x.ring.is_field or homcert.complexes.reduce_units(x)\n")
    assert named(source) & RING_SPECIFIC == {"ModularRing", "is_field", "reduce_units"}


def test_structures_names_no_ring_specific_machinery():
    assert named(STRUCTURES.read_text()) & RING_SPECIFIC == set()
