"""Exact chain complexes carrying scalar null-homotopies.

Bounded complexes of finitely generated free modules over Z, Q, or Z/m,
together with degree +1 operators e satisfying d e + e d = s * id for a
tuple of scalars.  The package provides structure search, mapping cones
and gluing, a Koszul-type coefficient calculus, the fold construction
that pushes a structure below a degree ceiling, and machine-checkable
certificates for identities between classes of such structures.
"""

from .complexes import ChainMap, GradedFreeComplex, find_contraction
from .constructions import cone_mixed, cone_same, disk, dual, glue_extension, suspend
from .exactalg import Matrix, QQ, ZZ, Zmod
from .fold import fold, fold_general, fold_once
from .kernel import Certificate, check_certificate, check_structure
from .koszul import hodge_star, koszul, koszul_dual
from .structures import HomotopyStructure, find_structure

__all__ = [
    "Certificate", "ChainMap", "GradedFreeComplex", "HomotopyStructure",
    "Matrix", "QQ", "ZZ", "Zmod", "check_certificate", "check_structure",
    "cone_mixed", "cone_same", "disk", "dual", "find_contraction",
    "find_structure", "fold", "fold_general", "fold_once", "glue_extension",
    "hodge_star", "koszul", "koszul_dual", "suspend",
]
