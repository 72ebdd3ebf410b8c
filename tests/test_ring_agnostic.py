"""The least-exponent search does not branch on the ring.

``complexes.null_homotopies`` states, for every ring, which multiples of
the identity are null-homotopic and solves them; ``structures.py`` only
does arithmetic on its answer.  This walks the syntax tree of
``structures.py`` and checks that it names none of the ring-specific
machinery behind that answer, and the tree of ``null_homotopies`` to check
that it answers from its own factorisations, through none of the one-shot
routes (a solve per call, a homology, a rank).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homcert"
STRUCTURES = SRC / "structures.py"
RING_SPECIFIC = {
    "ModularRing", "is_field", "homology_invariants", "HomotopySystem", "reduce_units",
    "solve_right", "SmithSolver",
}
ONE_SHOT = {"solve_right", "homology_invariants", "solve_homotopy", "_solve_field", "rank"}


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


def function_source(path: Path, name: str) -> str:
    """The source of the top-level function ``name`` in the file at ``path``."""
    source = path.read_text()
    node = next(n for n in ast.parse(source).body
                if isinstance(n, ast.FunctionDef) and n.name == name)
    return ast.get_source_segment(source, node)


def test_null_homotopies_names_no_one_shot_solver():
    source = function_source(SRC / "complexes.py", "null_homotopies")
    assert "SmithSolver" in named(source)
    assert named(source) & ONE_SHOT == set()
