"""The abstract calculus of equation systems over a pluggable category.

An equation is a parallel pair of morphisms; a system shares one domain, a
cosystem one codomain. The category instance supplies whatever constructions
it can (equalizers, intersections, coequalizers, ...) behind capability
flags; each generic operation demands only what it uses and raises
CapabilityMissing otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CapabilityMissing,
    CodMismatch,
    DomainMismatch,
    EmptyList,
    NotParallel,
    TargetMismatch,
)


class CompCategory:
    """Base computational category: mandatory structure plus capability flags.

    Subclasses override the flagged providers they support. Morphisms are
    whatever the instance trades in; only the instance inspects them.
    """

    name = "?"

    has_equalizers = False
    has_intersections = False
    has_products = False
    has_coequalizers = False
    has_coproducts = False
    has_cokernel_pairs = False
    has_pullbacks = False
    has_mono_test = False
    has_factorization = False

    # -- mandatory -------------------------------------------------------
    def source(self, f):
        raise NotImplementedError

    def target(self, f):
        raise NotImplementedError

    def compose(self, g, f):
        """g after f."""
        raise NotImplementedError

    def identity(self, obj):
        raise NotImplementedError

    def morphisms_equal(self, f, g) -> bool:
        raise NotImplementedError

    def objects_equal(self, a, b) -> bool:
        return a == b

    # -- capabilities ------------------------------------------------------
    def equalizer(self, p, q):
        raise CapabilityMissing("equalizers", self.name)

    def intersection(self, monos):
        raise CapabilityMissing("intersections", self.name)

    def product(self, objs):
        """Must return an object with .obj, .projections, .tuple_of(legs)."""
        raise CapabilityMissing("products", self.name)

    def coequalizer(self, p, q):
        raise CapabilityMissing("coequalizers", self.name)

    def coproduct(self, objs):
        """Must return an object with .obj, .coprojections, .cotuple_of(legs)."""
        raise CapabilityMissing("coproducts", self.name)

    def cokernel_pair(self, f):
        raise CapabilityMissing("cokernel pairs", self.name)

    def pullback(self, f, m):
        raise CapabilityMissing("pullbacks", self.name)

    def is_mono(self, f) -> bool:
        raise CapabilityMissing("mono test", self.name)

    def factor(self, f, g):
        """Some h with f = g o h, else None."""
        raise CapabilityMissing("factorization search", self.name)

    def hom(self, x, a) -> list:
        """All morphisms x -> a, when enumerable; used by oracles and tests.
        The table categories of veq.instances enumerate them by one table
        search, which raises CarrierTooLarge past its candidate budget: the
        functions from 12 points into 3 fit, those from 14 points into 3 do
        not."""
        raise CapabilityMissing("hom enumeration", self.name)


@dataclass(frozen=True)
class Equation:
    lhs: object
    rhs: object


def _check_equation(cat: CompCategory, eq: Equation) -> None:
    if not cat.objects_equal(cat.source(eq.lhs), cat.source(eq.rhs)) or not cat.objects_equal(
        cat.target(eq.lhs), cat.target(eq.rhs)
    ):
        raise NotParallel("equation sides must be parallel")


@dataclass(frozen=True)
class EquationSystem:
    """Equations sharing a domain (the common source)."""

    category: CompCategory
    equations: tuple[Equation, ...]

    def __post_init__(self):
        if not self.equations:
            raise EmptyList("a system needs at least one equation")
        dom = self.category.source(self.equations[0].lhs)
        for eq in self.equations:
            _check_equation(self.category, eq)
            if not self.category.objects_equal(self.category.source(eq.lhs), dom):
                raise DomainMismatch("system equations must share their domain")

    @property
    def domain(self):
        return self.category.source(self.equations[0].lhs)


@dataclass(frozen=True)
class CoEquationSystem:
    """Equations sharing a codomain (the common target)."""

    category: CompCategory
    equations: tuple[Equation, ...]

    def __post_init__(self):
        if not self.equations:
            raise EmptyList("a cosystem needs at least one equation")
        cod = self.category.target(self.equations[0].lhs)
        for eq in self.equations:
            _check_equation(self.category, eq)
            if not self.category.objects_equal(self.category.target(eq.lhs), cod):
                raise DomainMismatch("cosystem equations must share their codomain")

    @property
    def codomain(self):
        return self.category.target(self.equations[0].lhs)


def is_solution(a, E: EquationSystem) -> bool:
    cat = E.category
    if not cat.objects_equal(cat.target(a), E.domain):
        raise TargetMismatch("candidate must land in the system's domain")
    return all(
        cat.morphisms_equal(cat.compose(eq.lhs, a), cat.compose(eq.rhs, a))
        for eq in E.equations
    )


def general_solution(E: EquationSystem):
    """The universal solution: intersection of the per-equation equalizers."""
    cat = E.category
    if not cat.has_equalizers:
        raise CapabilityMissing("equalizers", cat.name)
    monos = [cat.equalizer(eq.lhs, eq.rhs) for eq in E.equations]
    if len(monos) == 1:
        return monos[0]
    if not cat.has_intersections:
        raise CapabilityMissing("intersections", cat.name)
    return cat.intersection(monos)


def act(E: EquationSystem, g) -> EquationSystem:
    """Pre-compose every equation with g."""
    cat = E.category
    if not cat.objects_equal(cat.target(g), E.domain):
        raise TargetMismatch("action morphism must land in the system's domain")
    return EquationSystem(
        cat,
        tuple(Equation(cat.compose(eq.lhs, g), cat.compose(eq.rhs, g)) for eq in E.equations),
    )


@dataclass(frozen=True)
class LeqResult:
    holds: bool
    witness: object  # h with f = g o h, when holds

    def __bool__(self) -> bool:
        return self.holds


def leq(f, g, cat: CompCategory) -> LeqResult:
    """f <= g: f factors through g."""
    if not cat.objects_equal(cat.target(f), cat.target(g)):
        raise CodMismatch("ordering compares morphisms into one object")
    if not cat.has_factorization:
        raise CapabilityMissing("factorization search", cat.name)
    h = cat.factor(f, g)
    return LeqResult(h is not None, h)


def implies(E: EquationSystem, K: EquationSystem) -> bool:
    """E forces K: the general solution of E factors through K's."""
    if E.category is not K.category:
        raise DomainMismatch("systems live in different categories")
    if not E.category.objects_equal(E.domain, K.domain):
        raise DomainMismatch("implication needs a shared domain")
    return leq(general_solution(E), general_solution(K), E.category).holds


def single_equation_reduction(E: EquationSystem) -> Equation:
    """Tuple the targets: one equation with exactly the solutions of E."""
    cat = E.category
    if len(E.equations) == 1:
        return E.equations[0]
    if not cat.has_products:
        raise CapabilityMissing("products", cat.name)
    prod = cat.product([cat.target(eq.lhs) for eq in E.equations])
    p = prod.tuple_of([eq.lhs for eq in E.equations])
    q = prod.tuple_of([eq.rhs for eq in E.equations])
    return Equation(p, q)


def generated_equation(cat: CompCategory, S) -> Equation:
    """The equation every member of S solves, universal among those.

    Cotuple S out of the coproduct of its sources, then take the cokernel
    pair of the resulting morphism.
    """
    S = tuple(S)
    if not S:
        raise EmptyList("need at least one morphism")
    if not cat.has_coproducts:
        raise CapabilityMissing("coproducts", cat.name)
    if not cat.has_cokernel_pairs:
        raise CapabilityMissing("cokernel pairs", cat.name)
    target = cat.target(S[0])
    for f in S:
        if not cat.objects_equal(cat.target(f), target):
            raise CodMismatch("generators must share a target")
    cop = cat.coproduct([cat.source(f) for f in S])
    folded = cop.cotuple_of(list(S))
    p, q = cat.cokernel_pair(folded)
    return Equation(p, q)


def generated_variety(cat: CompCategory, S):
    """Least subobject every member of S factors through, as a general solution."""
    eq = generated_equation(cat, S)
    return general_solution(EquationSystem(cat, (eq,)))


def general_cosolution(E: CoEquationSystem):
    """The universal cosolution, by iterated coequalizers.

    Coequalize the first pair, push the remaining equations forward along the
    canonical epi, recurse, and compose. Avoids requiring coproducts (some
    instances, e.g. finite groups, cannot have them).
    """
    cat = E.category
    if not cat.has_coequalizers:
        raise CapabilityMissing("coequalizers", cat.name)
    epi = cat.identity(E.codomain)
    remaining = list(E.equations)
    while remaining:
        eq = remaining.pop(0)
        step = cat.coequalizer(cat.compose(epi, eq.lhs), cat.compose(epi, eq.rhs))
        epi = cat.compose(step, epi)
    return epi
