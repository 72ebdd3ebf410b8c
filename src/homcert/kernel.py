"""The trusted certificate kernel: ``check_certificate`` and the checks it runs.

``check_certificate`` trusts nothing: every arrow is re-checked, every
structure is shown to satisfy the structure law, directly or through a
split row that it ends (see ``check_certificate``), and the claim is
accepted only if it equals the exact accumulation of the verified
relations.  There are three relations: split exact rows, contractible
objects and isomorphisms; a suspension [ΣX] = -[X] is the cone row
X >--> cone(id) -->> ΣX plus a contraction of its middle, not a relation
of its own.  Each step carries the witnesses its check needs, so
acceptance rests on matrix products and equality alone, the same in Z, Q,
Z/p and composite Z/m: a row carries a section s and a retraction r with
r·i = id, p·s = id and i·r + s·p = id (degreewise split exact), an
isomorphism carries its inverse g with f·g = id and g·f = id, and a
contraction satisfies d h + h d = id.  No Smith form, elimination,
homology or determinant runs here.  The check is one-sided: acceptance
proves the identity, rejection carries no information beyond the recorded
reason.

Every step is checked in the certificate's one slot, by the checks the
constructions run on their own output.  At run time this module imports
nothing from homcert but ``exactalg.Matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .exactalg import Matrix

if TYPE_CHECKING:
    from .complexes import ChainMap, GradedFreeComplex
    from .structures import HomotopyStructure


def validate_complex(x: GradedFreeComplex) -> list[str]:
    """Diagnostics for d_i d_(i+1) = 0; an empty list means ``x`` is a complex.
    Stored differentials are paired: at the window's ends a factor is zero."""
    return [f"d_{i} * d_{i + 1} != 0"
            for i, (d, e) in enumerate(zip(x.diffs, x.diffs[1:]), x.min_degree + 1)
            if not (d * e).is_zero()]


def _law_terms(d: tuple, e: tuple, j: int) -> list:
    """The products (d, e) of d e + e d out of degree slot ``j``, from the
    stored differentials ``d`` and degree +1 maps ``e``: above the top
    slot and below the bottom one there is no term."""
    return ([(d[j], e[j])] if j < len(d) else []) + ([(e[j - 1], d[j - 1])] if j else [])


def contraction_defect(h: ChainMap) -> Optional[int]:
    """The first degree where d h + h d != id, or None for a contraction."""
    x = h.source
    for j, (i, n) in enumerate(zip(x.degrees(), x.ranks)):
        if not Matrix.is_scalar_sum(_law_terms(x.diffs, h.mats, j), 1, n, x.ring):
            return i
    return None


def _first_non_identity(lo: int, hi: int,
                        products: tuple[tuple[str, Callable[[int], Matrix]], ...],
                        ) -> Optional[str]:
    """The first ``label`` whose ``product(i)`` is not an identity matrix,
    over degrees lo..hi, as "label ≠ id in degree i"; None if all are."""
    for i in range(lo, hi + 1):
        for label, product in products:
            if not product(i).is_identity():
                return f"{label} ≠ id in degree {i}"
    return None


def split_defect(include: ChainMap, project: ChainMap, section: ChainMap,
                 retraction: ChainMap) -> Optional[str]:
    """The first failing identity of a degreewise splitting of A -i-> B -p-> C.

    Checks r·i = id, p·s = id and i·r + s·p = id in every degree, where the
    section s maps C to B and the retraction r maps B to A; None when all
    hold.  Over any commutative ring they say exactly that
    0 -> A -> B -> C -> 0 is split exact in each degree: p·i = p·i·r·i =
    (p - p·s·p)·i = 0, and p b = 0 gives b = i (r b).
    """
    a, b, c = include.source, include.target, project.target
    i, p, s, r = include.mat, project.mat, section.mat, retraction.mat
    return _first_non_identity(
        min(a.min_degree, b.min_degree, c.min_degree),
        max(a.top_degree, b.top_degree, c.top_degree),
        (("r·i", lambda k: r(k) * i(k)),
         ("p·s", lambda k: p(k) * s(k)),
         ("i·r + s·p", lambda k: i(k) * r(k) + s(k) * p(k))))


def inverse_defect(f: ChainMap, g: ChainMap) -> Optional[str]:
    """The first failing identity of f·g = id and g·f = id, or None when g is
    a two-sided inverse of the degree 0 map f in every degree."""
    x, y = f.source, f.target
    return _first_non_identity(
        min(x.min_degree, y.min_degree), max(x.top_degree, y.top_degree),
        (("f·g", lambda k: f.mat(k) * g.mat(k)),
         ("g·f", lambda k: g.mat(k) * f.mat(k))))


def check_law(m: HomotopyStructure) -> list[str]:
    """Report every degree where d e + e d != s * id; d² = 0 is not checked.
    Stored matrices are paired: at the window's ends a term is zero."""
    x = m.complex
    return [f"generator {g}: d e + e d != {s} * id in degree {i}"
            for g, (s, e) in enumerate(zip(m.scalars, m.ops))
            for j, (i, n) in enumerate(zip(x.degrees(), x.ranks))
            if not Matrix.is_scalar_sum(_law_terms(x.diffs, e, j), s, n, x.ring)]


def check_structure(m: HomotopyStructure) -> list[str]:
    """Report every violated axiom; an empty list means the structure is valid."""
    return validate_complex(m.complex) + check_law(m)


def equivariance_defect(f: ChainMap, mx: HomotopyStructure,
                        my: HomotopyStructure) -> Optional[tuple]:
    """The first (generator, degree) where f e_X != e_Y f, or None when the
    chain map intertwines every generator's operator.  The structures must
    have the same number of generators.  A degree where either side is
    empty is skipped."""
    if f.shift != 0:
        raise ValueError("equivariance is only defined for degree 0 maps")
    if f.source != mx.complex or f.target != my.complex:
        raise ValueError("structures must live on the map's source and target")
    if mx.ngens != my.ngens:
        raise ValueError("structures have different generator counts")
    x, y = f.source, f.target
    degrees = [i for i in x.degrees() if x.rank(i) and y.rank(i + 1)]
    for g in range(mx.ngens):
        for i in degrees:
            if f.mat(i + 1) * mx.op(g, i) != my.op(g, i) * f.mat(i):
                return g, i
    return None


def _connects(arrows) -> bool:
    """Every (map, source, target) is a degree 0 map between the objects' complexes."""
    return all(f.shift == 0 and f.source == a.complex and f.target == b.complex
               for f, a, b in arrows)


def _prefixed(prefix: str, why: Optional[str]) -> Optional[str]:
    return why and prefix + why


def _not_chain(label: str, f: ChainMap) -> Optional[str]:
    i = f.chain_defect()
    return None if i is None else f"{label} is not a chain map in degree {i}"


def _not_equivariant(label: str, f: ChainMap, mx, my) -> Optional[str]:
    bad = equivariance_defect(f, mx, my)
    return None if bad is None else \
        f"{label} is not equivariant for generator {bad[0]} in degree {bad[1]}"


def map_defect(label: str, f: ChainMap, mx, my) -> Optional[str]:
    """Why ``f`` is not an equivariant chain map from ``mx`` to ``my``."""
    return _not_chain(label, f) or _not_equivariant(label, f, mx, my)


@dataclass(frozen=True)
class Row:
    """A row sub >--> total -->> quotient of structures, with its splitting.

    ``section`` (quotient -> total) and ``retraction`` (total -> sub) split
    the row in every degree; they need not be chain maps.  ``defect`` says
    why the row is not split exact.
    """

    sub: HomotopyStructure
    total: HomotopyStructure
    quotient: HomotopyStructure
    include: ChainMap
    project: ChainMap
    section: ChainMap
    retraction: ChainMap

    @property
    def maps(self) -> tuple:
        """``(include, project, section, retraction)``."""
        return self.include, self.project, self.section, self.retraction

    def defect(self) -> Optional[str]:
        """Why this is not a split exact row of equivariant chain maps."""
        i, p, s, r = self.maps
        sub, total, quot = self.sub, self.total, self.quotient
        if not _connects(((i, sub, total), (p, total, quot), (s, quot, total), (r, total, sub))):
            return "row arrows do not connect the named objects"
        return (_not_chain("row inclusion", i) or _not_chain("row projection", p)
                or _prefixed("row is not split exact: ", split_defect(i, p, s, r))
                or _not_equivariant("row inclusion", i, sub, total)
                or _not_equivariant("row projection", p, total, quot))


def iso_defect(f: ChainMap, g: ChainMap, source, target) -> Optional[str]:
    """Why ``f`` is not an equivariant isomorphism with inverse ``g``."""
    if not _connects(((f, source, target), (g, target, source))):
        return "isomorphism does not connect the named objects"
    return (_not_chain("isomorphism", f)
            or _prefixed("isomorphism is not invertible: ", inverse_defect(f, g))
            or _not_equivariant("isomorphism", f, source, target))


# -- certificates -----------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """The class group a certificate works in: scalar tuple plus ceiling."""

    scalars: tuple
    ceiling: int


@dataclass(frozen=True)
class ClassExpr:
    """Integer combination of registered names, kept sorted and reduced."""

    terms: tuple  # ((name, coefficient), ...)

    @staticmethod
    def build(pairs) -> "ClassExpr":
        acc: dict = {}
        for name, coeff in pairs:
            acc[name] = acc.get(name, 0) + coeff
        return ClassExpr(tuple(sorted((k, v) for k, v in acc.items() if v)))

    def as_dict(self) -> dict:
        return dict(self.terms)


@dataclass(frozen=True)
class ExactRow:
    """sub >--> total -->> quotient; adds mult * ([total] - [sub] - [quotient]).

    ``section`` (quotient -> total) and ``retraction`` (total -> sub) split
    the row in every degree; they need not be chain maps.
    """

    sub: str
    total: str
    quotient: str
    include: ChainMap
    project: ChainMap
    section: ChainMap
    retraction: ChainMap
    mult: int = 1

    @property
    def terms(self) -> tuple:
        return ((self.sub, -self.mult), (self.total, self.mult),
                (self.quotient, -self.mult))


@dataclass(frozen=True)
class Contractible:
    """A contraction of the named object; adds mult * [name]."""

    name: str
    contraction: ChainMap
    mult: int = 1

    @property
    def terms(self) -> tuple:
        return ((self.name, self.mult),)


@dataclass(frozen=True)
class Isomorphism:
    """Equivariant isomorphism with its inverse; adds mult * ([source] - [target])."""

    source: str
    target: str
    iso: ChainMap
    inverse: ChainMap
    mult: int = 1

    @property
    def terms(self) -> tuple:
        return ((self.source, self.mult), (self.target, -self.mult))


@dataclass(frozen=True)
class Certificate:
    slot: Slot
    registry: tuple  # ((name, HomotopyStructure), ...)
    steps: tuple
    claim: ClassExpr


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: Optional[str] = None
    step: Optional[int] = None


def _support(m: HomotopyStructure) -> Optional[tuple]:
    """The lowest and highest degree with a nonzero module, or None."""
    degs = [i for i in m.complex.degrees() if m.complex.rank(i)]
    return (degs[0], degs[-1]) if degs else None


def _fits(m: HomotopyStructure, scalars: tuple, ceiling: int) -> Optional[str]:
    """Why ``m`` is not in the slot of the normalized ``scalars`` and ``ceiling``."""
    if m.scalars != scalars:
        return "scalars do not match the slot"
    span = _support(m)
    if span is not None and (span[0] < 0 or span[1] > ceiling):
        return "support leaves the slot window"
    return None


def _check_contraction(step: Contractible, m) -> Optional[str]:
    h = step.contraction
    if h.source != m.complex or h.target != m.complex or h.shift != 1:
        return "contraction does not live on the named object"
    i = contraction_defect(h)
    return None if i is None else f"contraction identity fails in degree {i}"


# Each step kind with its name in reasons and its check on the objects its
# ``terms`` name, in that order; an accepted step adds its terms to the sum.
_RELATIONS = {
    ExactRow: ("row", lambda step, sub, total, quot: Row(
        sub, total, quot, step.include, step.project, step.section, step.retraction).defect()),
    Contractible: ("contraction", _check_contraction),
    Isomorphism: ("isomorphism", lambda step, source, target: iso_defect(
        step.iso, step.inverse, source, target)),
}


def brief(v, show: Callable = repr) -> str:
    """``show(v)`` for a message; a string past 40 characters becomes its
    first 24 and its length, so that one reason or error line stays short
    whatever a document holds."""
    if not isinstance(v, str) or len(v) <= 40:
        return show(v)
    return f"{show(v[:24])}... ({len(v)} characters)"


def check_certificate(cert: Certificate) -> CheckResult:
    """Accept when every structure and step checks and the steps sum to the claim.

    The registry pass checks the structure law of every object except the
    derived ones: the sub or quotient of some ``ExactRow`` step that is the
    total of none.  Acceptance checks every row, so each derived end A or C
    of a row A >-i-> B -p->> C has a total B checked directly, and the row
    gives its law.  ``_fits`` puts A, B and C in the one slot, so they share
    the scalars s; i and p are equivariant chain maps with r·i = id and
    p·s' = id for the row's retraction r and section s'.  Write L_X for
    d e + e d on X (per generator and degree).  Then i·L_A = L_B·i = s·i,
    so L_A = r·i·L_A = s·id, and i·d_A² = d_B²·i = 0 gives d_A² = 0.  Dually
    L_C·p = p·L_B = s·p gives L_C = L_C·p·s' = s·id, and d_C²·p = 0 gives
    d_C² = 0.  A total is never derived, so no derivation leans on another,
    and a row A >--> A -->> 0 still checks A.  A derived end that breaks
    the law is rejected at a row step, not in the registry pass.
    """
    rows = [step for step in cert.steps if type(step) is ExactRow]
    derived = ({name for row in rows for name in (row.sub, row.quotient)}
               - {row.total for row in rows})
    reg: dict = {}
    ring = None
    for name, m in cert.registry:
        if not isinstance(name, str) or name in reg:
            return CheckResult(False, f"bad or duplicate name {brief(name)}")
        problems = [] if name in derived else check_structure(m)
        if problems:
            return CheckResult(False, f"{brief(name, str)}: {problems[0]}")
        if ring is None:
            ring = m.complex.ring
        elif m.complex.ring != ring:
            return CheckResult(False, "registry mixes ground rings")
        reg[name] = m
    if ring is None:
        return CheckResult(False, "empty registry")

    scalars, ceiling = tuple(map(ring.normalize, cert.slot.scalars)), cert.slot.ceiling
    expr: dict = {}
    for idx, step in enumerate(cert.steps):
        if type(step) not in _RELATIONS:
            return CheckResult(False, f"unknown step kind {type(step).__name__}", idx)
        kind, check = _RELATIONS[type(step)]
        names = [name for name, _ in step.terms]
        if any(name not in reg for name in names):
            return CheckResult(False, f"{kind} references an unregistered name", idx)
        objs = [reg[name] for name in names]
        why = next(filter(None, (_fits(m, scalars, ceiling) for m in objs)), None)
        why = why or check(step, *objs)
        if why:
            return CheckResult(False, why, idx)
        for name, coeff in step.terms:
            expr[name] = expr.get(name, 0) + coeff

    for name, coeff in cert.claim.terms:
        if name not in reg:
            return CheckResult(False, f"claim references unregistered {brief(name)}")
        why = _fits(reg[name], scalars, ceiling)
        if why:
            return CheckResult(False, f"claim term {brief(name)}: {why}")
    got = {name: coeff for name, coeff in expr.items() if coeff}
    if got != cert.claim.as_dict():
        return CheckResult(False, "accumulated relations do not match the claim")
    return CheckResult(True)
