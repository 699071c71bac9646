"""Computational-category instances plugging concrete engines into the
abstract equation calculus: finite sets, finite groups, finite algebras,
finite posets, and finite categories.

All five share one base that reads a morphism only through its source,
target and table of values on a labelled carrier: carriers, composition,
identities, hom enumeration, equalizers, intersections, coequalizers,
cokernel pairs, pullbacks, the mono test and factorization are written
once. Sets, algebras and posets supply only their morphism constructor,
law, sub-object, quotient, and product and coproduct; their morphisms are
finset.FinFunction and its subclasses, composed and identified there. Sets
also keep their factorization, which needs no search; categories keep
their own carriers (tagged cells), composition, identities, hom enumeration
and product, as a functor's table is not a tuple of labels: it runs over
the source's objects and then its arrows, tagged by kind. The products and
coproducts of sets, algebras and posets come from finset.product_of and
finset.coproduct_of, each instance supplying only the object on the
labelled carrier. Groups are the algebras over {mul, inv, e} that satisfy
the group laws, so FinGrp is FinAlg restricted to them.

Each instance normalizes its canonical-subobject values (inclusions) into
plain morphisms on input, so general solutions flow back through compose,
factor, and the rest without ceremony.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from . import algebras as alg
from . import cats
from . import finset as fs
from . import posets as po
from .equations import CompCategory
from .errors import CodMismatch, EmptyList, InvariantError, NotParallel, TargetMismatch


class _TableCategory(CompCategory):
    """Objects with a labelled carrier; a morphism f runs from source(f) to
    target(f) and has a table of values aligned with carrier(source(f)).
    carrier reads obj.carrier's labels, and source, target and table read
    the dom, cod and table of the morphism _m(f) that f stands for, unless a
    subclass says otherwise; compose is finset's compose of those morphisms,
    and the identity is morphism(obj, obj, carrier(obj)). Nothing else here
    looks inside a morphism.

    Subclasses supply morphism(dom, cod, table) (the validating
    constructor), sub(obj, members) (the inclusion of a closed member set)
    and, where coequalizers are offered, quotient(obj, pairs) (the
    projection onto the least quotient identifying the pairs). Pullbacks
    need product(objs) and cokernel pairs coproduct(objs), where
    has_pullbacks and has_cokernel_pairs offer them. law(x, a) gives the
    fs.Law that a table x -> a must satisfy.
    """

    has_equalizers = True
    has_intersections = True
    has_coequalizers = True
    has_mono_test = True
    has_factorization = True

    @staticmethod
    def _m(f):
        """The morphism that the value f stands for: f itself, unless a
        subclass says otherwise."""
        return f

    def source(self, f):
        return self._m(f).dom

    def target(self, f):
        return self._m(f).cod

    def table(self, f):
        return self._m(f).table

    def carrier(self, obj):
        return obj.carrier.elements

    def compose(self, g, f):
        return fs.compose(self._m(g), self._m(f))

    def identity(self, obj):
        return self.morphism(obj, obj, self.carrier(obj))

    def _parallel(self, f, g) -> bool:
        return self.source(f) == self.source(g) and self.target(f) == self.target(g)

    def morphisms_equal(self, f, g) -> bool:
        return self._parallel(f, g) and self.table(f) == self.table(g)

    def is_mono(self, f) -> bool:
        table = self.table(f)
        return len(set(table)) == len(table)

    def equalizer(self, p, q):
        if not self._parallel(p, q):
            raise NotParallel("equalizer needs a parallel pair")
        dom = self.source(p)
        return self.sub(dom, [
            x for x, a, b in zip(self.carrier(dom), self.table(p), self.table(q)) if a == b
        ])

    def intersection(self, monos):
        monos = tuple(monos)
        if not monos:
            raise EmptyList("intersection of no subobjects is undefined here")
        target = self.target(monos[0])
        members = set(self.carrier(target))
        for m in monos:
            if self.target(m) != target:
                raise TargetMismatch("subobjects must share a target")
            if not self.is_mono(m):
                raise InvariantError("intersection expects monomorphisms")
            members &= set(self.table(m))
        return self.sub(target, [x for x in self.carrier(target) if x in members])

    def coequalizer(self, p, q):
        if not self._parallel(p, q):
            raise NotParallel("coequalizer needs a parallel pair")
        return self.quotient(self.target(p), list(zip(self.table(p), self.table(q))))

    def cokernel_pair(self, f):
        """The coequalizer c of i0 o f and i1 o f on target(f) + target(f),
        followed by each coprojection: c o i0 and c o i1."""
        if not self.has_cokernel_pairs:
            return super().cokernel_pair(f)
        i0, i1 = self.coproduct([self.target(f)] * 2).coprojections
        c = self.coequalizer(self.compose(i0, f), self.compose(i1, f))
        return self.compose(c, i0), self.compose(c, i1)

    def pullback(self, f, m):
        """The equalizer of f o p0 and m o p1 on the product of the sources,
        followed by each projection."""
        if self.target(f) != self.target(m):
            raise CodMismatch("pullback needs a cospan")
        p0, p1 = self.product([self.source(f), self.source(m)]).projections
        e = self.equalizer(self.compose(f, p0), self.compose(m, p1))
        return self.compose(p0, e), self.compose(p1, e)

    def hom(self, x, a) -> list:
        """Every morphism x -> a in itertools.product order of the tables,
        found by the table search under the instance's law. Past the
        search's candidate budget (fs._TABLE_BUDGET, 2 000 000 values) it
        raises CarrierTooLarge before it builds a morphism: the 531 441
        functions from 12 points into 3 fit, those from 14 points do not.
        """
        pools = [self.carrier(a)] * len(self.carrier(x))
        tables = list(fs.search_tables(pools, self.law(x, a)))
        return [self.morphism(x, a, t) for t in tables]

    def factor(self, f, g):
        """The first h with g o h = f among the tables drawn from the preimage
        pools of g in carrier order (one table when g is injective), found by
        the table search under the instance's law; past the search's
        candidate budget it raises CarrierTooLarge.
        """
        if self.target(f) != self.target(g):
            raise CodMismatch("factorization needs a common target")
        dom, mid = self.source(f), self.source(g)
        preimages: dict = {}
        for x, gx in zip(self.carrier(mid), self.table(g)):
            preimages.setdefault(gx, []).append(x)
        pools = [preimages.get(y, []) for y in self.table(f)]
        if not all(pools):
            return None
        table = next(fs.search_tables(pools, self.law(dom, mid)), None)
        return None if table is None else self.morphism(dom, mid, table)


class FinSetCat(_TableCategory):
    """Finite sets and functions; every capability is available. A
    canonical subobject stands for its inclusion wherever a morphism is
    expected, and equalizers and intersections return one.
    """

    name = "FinSet"

    has_products = True
    has_coproducts = True
    has_cokernel_pairs = True
    has_pullbacks = True

    def law(self, x, a):
        return fs.Law(a.elements)  # every table is a function

    @staticmethod
    def _m(f) -> fs.FinFunction:
        return f.inclusion if isinstance(f, fs.SubobjectMono) else f

    def morphism(self, dom, cod, table):
        return fs.FinFunction(dom, cod, table)

    def sub(self, obj: fs.FinSetObj, members):
        return fs.sub(obj, members)

    def quotient(self, obj: fs.FinSetObj, pairs):
        return fs.partition_quotient(obj, pairs)

    def product(self, objs):
        return fs.product(objs)

    def coproduct(self, objs):
        return fs.coproduct(objs)

    def factor(self, f, g):
        """Every table is a function, so the least preimages factor f
        whenever anything does; no search is needed."""
        return fs.factor_through(self._m(f), self._m(g))


class FinAlgCat(_TableCategory):
    """Finite algebras over one signature. Coequalizers quotient by the
    congruence the pointwise pairs generate; coproducts are absent (free
    products outgrow any finite carrier).
    """

    name = "FinAlg"
    law = staticmethod(alg.hom_checks)

    has_products = True
    has_pullbacks = True

    def morphism(self, dom, cod, table):
        return alg.AlgHom(dom, cod, table)

    def sub(self, obj: alg.FiniteAlgebra, members):
        return alg.sub_algebra(obj, members)[1]

    def quotient(self, obj: alg.FiniteAlgebra, pairs):
        return alg.quotient_algebra(obj, alg.congruence_closure(obj, pairs))[1]

    def product(self, objs):
        return alg.product_algebra(list(objs))


class FinGrpCat(FinAlgCat):
    """Finite groups and homomorphisms: the full subcategory of FinAlg on
    the algebras over groups.GROUP_SIG that satisfy the group laws. Groups
    form a variety, so FinAlg's equalizers (agreement subgroups) and
    coequalizers (quotients by the congruence the pointwise pairs generate,
    i.e. by a normal subgroup) of groups are groups. No products,
    coproducts, cokernel pairs or pullbacks here.
    """

    name = "FinGrp"

    has_products = False
    has_pullbacks = False
    product = CompCategory.product
    pullback = CompCategory.pullback


class FinPosetCat(_TableCategory):
    """Finite posets and monotone maps. Coequalizers collapse the generated
    equivalence and then any order-cycles it creates, until antisymmetry
    holds.
    """

    name = "FinPoset"
    law = staticmethod(po.order_checks)

    has_products = True
    has_coproducts = True
    has_cokernel_pairs = True
    has_pullbacks = True

    def morphism(self, dom, cod, table):
        return po.MonotoneMap(dom, cod, table)

    def sub(self, obj: po.Poset, members):
        return po.sub_poset(obj, members)[1]

    def quotient(self, obj: po.Poset, pairs):
        return _poset_collapse(obj, pairs)

    def product(self, objs):
        return _poset_product(list(objs))

    def coproduct(self, objs):
        return _poset_coproduct(list(objs))


def _poset_product(objs: list[po.Poset]) -> fs.ProductResult:
    """The componentwise order on the tuples of the factors."""

    def make(labels, tuples):
        rel = frozenset(
            (a, b)
            for a, s in zip(labels, tuples)
            for b, t in zip(labels, tuples)
            if all(P.leq(x, y) for P, x, y in zip(objs, s, t))
        )
        return po.Poset(fs.tuple_label([P.name for P in objs]), labels, rel)

    return fs.product_of(objs, make, po.MonotoneMap)


def _poset_coproduct(objs: list[po.Poset]) -> fs.CoproductResult:
    """Each summand's order on its tagged elements; nothing across summands."""

    def make(labels, tags):
        tagged = dict(zip(tags, labels))
        rel = frozenset(
            (tagged[i, a], tagged[i, b]) for i, P in enumerate(objs) for a, b in P.rel
        )
        return po.Poset("+".join(P.name for P in objs), labels, rel)

    return fs.coproduct_of(objs, make, po.MonotoneMap)


def _poset_collapse(P: po.Poset, pairs) -> po.MonotoneMap:
    """Quotient of P identifying the pairs, then merging every order-cycle
    among the classes, which leaves the finest quotient that is a partial
    order. Returns the canonical surjection.
    """
    uf = fs._UnionFind(P.elements)
    for a, b in pairs:
        uf.union(a, b)
    roots = list(dict.fromkeys(uf.find(x) for x in P.elements))
    reach = {r: {r} for r in roots}
    for a, b in P.rel:
        reach[uf.find(a)].add(uf.find(b))
    for k in roots:  # transitive closure, Warshall-style
        for r in roots:
            if k in reach[r]:
                reach[r] |= reach[k]
    for r in roots:
        for s in reach[r]:
            if r in reach[s]:
                uf.union(r, s)
    rep: dict[str, str] = {}  # each class is named by its earliest member
    for x in P.elements:
        rep.setdefault(uf.find(x), x)
    name = {r: rep[uf.find(r)] for r in roots}
    rel = frozenset((name[r], name[s]) for r in roots for s in reach[r])
    Q = po.Poset(f"{P.name}/~", tuple(rep.values()), rel)
    return po.MonotoneMap(P, Q, tuple(rep[uf.find(x)] for x in P.elements))


class FinCatCat(_TableCategory):
    """Finite categories and functors. A functor's table runs over the
    source's objects and then its arrows, each entry tagged by its kind, so
    an object and an arrow that share a label stay apart. Equalizers are
    agreement subcategories; coequalizers are not offered (quotient
    categories need free composition). Hom enumeration and factorization
    search tables under the functor laws, pruning as they go.
    """

    name = "FinCat"

    has_coequalizers = False
    has_products = True
    has_pullbacks = True
    coequalizer = CompCategory.coequalizer

    def source(self, f: cats.FunctorData):
        return f.source

    def target(self, f: cats.FunctorData):
        return f.target

    law = staticmethod(cats.functor_checks)
    carrier = staticmethod(cats.cells)
    table = staticmethod(cats.functor_cells)
    morphism = staticmethod(cats.functor_of)

    def compose(self, g, f):
        return cats.compose_functors(g, f)

    def identity(self, obj: cats.FiniteCategory):
        return cats.identity_functor(obj)

    def hom(self, x: cats.FiniteCategory, a: cats.FiniteCategory):
        return cats.all_functors(x, a)

    def sub(self, obj: cats.FiniteCategory, members):
        return _subcategory_inclusion(
            obj,
            [x for kind, x in members if kind == "obj"],
            [m for kind, m in members if kind == "arr"],
        )

    def product(self, objs):
        return _cat_product(list(objs))


def _subcategory_inclusion(
    C: cats.FiniteCategory, objs: list[str], morphs: list[str]
) -> cats.FunctorData:
    """The inclusion of the subcategory on the given objects and arrows; the
    category constructor rejects a choice that misses an identity or is not
    closed under composition."""
    sub = cats.tabulate_category(
        f"{C.name}|sub",
        objs,
        {m: (C.src[m], C.tgt[m]) for m in morphs},
        {x: C.ids[x] for x in objs},
        lambda g, f: C.comp[(g, f)],
    )
    return cats.FunctorData(sub, C, {x: x for x in objs}, {m: m for m in morphs})


class _CatProductResult(fs.ProductResult):
    """A product of categories: legs are functors, whose tables are tagged
    cells, so the pairing tuples the labels under each shared tag."""

    _source = staticmethod(attrgetter("source"))
    _target = staticmethod(attrgetter("target"))

    @staticmethod
    def _tupled(legs) -> tuple:
        return tuple(
            (cells[0][0], fs.tuple_label([label for _, label in cells]))
            for cells in zip(*map(cats.functor_cells, legs))
        )


def _cat_product(objs: list[cats.FiniteCategory]) -> _CatProductResult:
    """Objects and arrows are the tuples of the factors', labelled by
    fs.tuple_label; everything else is componentwise. No factors raise
    EmptyList, as in every table category."""
    if not objs:
        raise EmptyList(fs.EMPTY_PRODUCT)
    obj_combos = list(itertools.product(*(C.objects for C in objs)))
    mor_combos = {fs.tuple_label(c): c for c in itertools.product(*(C.morphisms for C in objs))}

    def each(tables, keys) -> str:
        return fs.tuple_label([t[k] for t, k in zip(tables, keys)])

    P = cats.tabulate_category(
        fs.tuple_label([C.name for C in objs]),
        [fs.tuple_label(c) for c in obj_combos],
        {
            m: (each([C.src for C in objs], c), each([C.tgt for C in objs], c))
            for m, c in mor_combos.items()
        },
        {fs.tuple_label(c): each([C.ids for C in objs], c) for c in obj_combos},
        lambda g, f: each([C.comp for C in objs], zip(mor_combos[g], mor_combos[f])),
    )
    projections = tuple(
        cats.FunctorData(
            P,
            objs[i],
            {fs.tuple_label(c): c[i] for c in obj_combos},
            {m: c[i] for m, c in mor_combos.items()},
        )
        for i in range(len(objs))
    )
    return _CatProductResult(P, projections, cats.functor_of)
