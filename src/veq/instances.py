"""Computational-category instances plugging concrete engines into the
abstract equation calculus: finite sets, finite groups, finite algebras,
finite posets, and finite categories.

All five share one base that reads a morphism only through its source,
target and table of values on a labelled carrier: equalizers,
intersections, coequalizers, cokernel pairs, pullbacks, the mono test and
factorization are written once, over each instance's sub-object, quotient,
product and coproduct. Sets keep only their factorization, which needs no
search. A functor's table runs over the source's objects and then its
arrows, tagged by kind. Group quotients are taken in the group algebra over
{mul, inv, e}.

Each instance normalizes its canonical-subobject values (inclusions) into
plain morphisms on input, so general solutions flow back through compose,
factor, and the rest without ceremony.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import algebras as alg
from . import cats
from . import finset as fs
from . import groups as grp
from . import posets as po
from .equations import CompCategory
from .errors import CarrierTooLarge, CodMismatch, EmptyList, InvariantError, NotParallel, TargetMismatch

_POOL_CAP = 1_000_000  # factor's candidate tables; alg.all_alg_homs' default cap


class _TableCategory(CompCategory):
    """Objects with a labelled carrier; a morphism f runs from source(f) to
    target(f) and has a table of values aligned with carrier(source(f)).
    source, target and table read f.dom, f.cod and f.table unless a subclass
    says otherwise; nothing else here looks inside a morphism.

    Subclasses supply carrier(obj), morphism(dom, cod, table) (the validating
    constructor), compose, identity and hom, plus sub(obj, members) (the
    inclusion of a closed member set) and, where coequalizers are offered,
    quotient(obj, pairs) (the projection onto the least quotient identifying
    the pairs). Pullbacks need product(objs) and cokernel pairs
    coproduct(objs), where has_pullbacks and has_cokernel_pairs offer them.
    A subclass whose hom enumerates fewer tables than all of them says how
    many in hom_size, which factor uses to pick its search, and law(x, a)
    gives the fs.search_tables checks that a table x -> a must pass.
    """

    has_equalizers = True
    has_intersections = True
    has_coequalizers = True
    has_mono_test = True
    has_factorization = True

    def source(self, f):
        return f.dom

    def target(self, f):
        return f.cod

    def table(self, f):
        return f.table

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

    def hom_size(self, x, a) -> int:
        """How many tables hom(x, a) enumerates: every table, by default."""
        return len(self.carrier(a)) ** len(self.carrier(x))

    def factor(self, f, g):
        """The first h with g o h = f among the tables drawn from the preimage
        pools of g in carrier order (one table when g is injective), found by
        the table search under the instance's law, or in hom order when hom
        enumerates fewer tables than the pools hold.
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
        size = math.prod(map(len, pools))
        if size > 1 and size > self.hom_size(dom, mid):
            for h in self.hom(dom, mid):
                if self.table(self.compose(g, h)) == self.table(f):
                    return h
            return None
        if size > _POOL_CAP:
            raise CarrierTooLarge(f"{size} candidate tables exceed {_POOL_CAP}")
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

    @staticmethod
    def _m(f) -> fs.FinFunction:
        return f.inclusion if isinstance(f, fs.SubobjectMono) else f

    def source(self, f):
        return self._m(f).dom

    def target(self, f):
        return self._m(f).cod

    def table(self, f):
        return self._m(f).table

    def carrier(self, obj: fs.FinSetObj):
        return obj.elements

    def morphism(self, dom, cod, table):
        return fs.FinFunction(dom, cod, table)

    def compose(self, g, f):
        return fs.compose(self._m(g), self._m(f))

    def identity(self, obj: fs.FinSetObj):
        return fs.identity(obj)

    def hom(self, x: fs.FinSetObj, a: fs.FinSetObj):
        return fs.all_functions(x, a)

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


class FinGrpCat(_TableCategory):
    """Finite groups and homomorphisms. Equalizers are agreement subgroups;
    coequalizers quotient by the congruence of the group algebra that the
    pointwise pairs generate, i.e. by a normal subgroup. No products,
    coproducts or cokernel pairs here.
    """

    name = "FinGrp"

    law = staticmethod(lambda x, a: alg.hom_checks(grp.group_to_algebra(x), grp.group_to_algebra(a)))

    def carrier(self, obj: grp.Group):
        return obj.elements

    def morphism(self, dom, cod, table):
        return grp.GroupHom(dom, cod, table)

    def compose(self, g, f):
        return grp.compose_homs(g, f)

    def identity(self, obj: grp.Group):
        return grp.identity_hom(obj)

    def hom(self, x: grp.Group, a: grp.Group):
        return grp.all_homs(x, a)

    def hom_size(self, x: grp.Group, a: grp.Group) -> int:
        return len(a) ** len(grp.generating_set(x))

    def sub(self, obj: grp.Group, members):
        return grp.sub_group(obj, members)[1]

    def quotient(self, obj: grp.Group, pairs):
        return grp.quotient_by_pairs(obj, pairs)[1]


class FinAlgCat(_TableCategory):
    """Finite algebras over one signature. Coequalizers quotient by the
    congruence the pointwise pairs generate; coproducts are absent (free
    products outgrow any finite carrier).
    """

    name = "FinAlg"
    law = staticmethod(alg.hom_checks)

    has_products = True
    has_pullbacks = True

    def carrier(self, obj: alg.FiniteAlgebra):
        return obj.carrier.elements

    def morphism(self, dom, cod, table):
        return alg.AlgHom(dom, cod, table)

    def compose(self, g, f):
        return alg.compose_alg_homs(g, f)

    def identity(self, obj: alg.FiniteAlgebra):
        return alg.identity_alg_hom(obj)

    def hom(self, x: alg.FiniteAlgebra, a: alg.FiniteAlgebra):
        return alg.all_alg_homs(x, a)

    def sub(self, obj: alg.FiniteAlgebra, members):
        return alg.sub_algebra(obj, members)[1]

    def quotient(self, obj: alg.FiniteAlgebra, pairs):
        return alg.quotient_algebra(obj, alg.congruence_closure(obj, pairs))[1]

    def product(self, objs):
        return alg.product_algebra(list(objs))


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

    def carrier(self, obj: po.Poset):
        return obj.elements

    def morphism(self, dom, cod, table):
        return po.MonotoneMap(dom, cod, table)

    def compose(self, g, f):
        return po.compose_maps(g, f)

    def identity(self, obj: po.Poset):
        return po.identity_map(obj)

    def hom(self, x: po.Poset, a: po.Poset):
        return po.all_monotone_maps(x, a)

    def sub(self, obj: po.Poset, members):
        return po.sub_poset(obj, members)[1]

    def quotient(self, obj: po.Poset, pairs):
        return _poset_collapse(obj, pairs)

    def product(self, objs):
        return _poset_product(list(objs))

    def coproduct(self, objs):
        return _poset_coproduct(list(objs))


@dataclass(frozen=True)
class _PosetProductResult:
    obj: po.Poset
    projections: tuple[po.MonotoneMap, ...]

    def tuple_of(self, legs):
        dom = legs[0].dom
        table = tuple(fs.tuple_label([leg(x) for leg in legs]) for x in dom.elements)
        return po.MonotoneMap(dom, self.obj, table)


def _poset_product(objs: list[po.Poset]) -> _PosetProductResult:
    combos = list(itertools.product(*(P.elements for P in objs)))
    labels = [fs.tuple_label(c) for c in combos]
    unpack = dict(zip(labels, combos))
    rel = frozenset(
        (a, b)
        for a in labels
        for b in labels
        if all(P.leq(unpack[a][i], unpack[b][i]) for i, P in enumerate(objs))
    )
    obj = po.Poset(fs.tuple_label([P.name for P in objs]), tuple(labels), rel)
    projections = tuple(
        po.MonotoneMap(obj, objs[i], tuple(unpack[l][i] for l in labels))
        for i in range(len(objs))
    )
    return _PosetProductResult(obj, projections)


@dataclass(frozen=True)
class _PosetCoproductResult:
    obj: po.Poset
    coprojections: tuple[po.MonotoneMap, ...]

    def cotuple_of(self, legs):
        table = tuple(v for leg in legs for v in leg.table)
        return po.MonotoneMap(self.obj, legs[0].cod, table)


def _poset_coproduct(objs: list[po.Poset]) -> _PosetCoproductResult:
    labels: list[str] = []
    rel: set[tuple[str, str]] = set()
    for i, P in enumerate(objs):
        tagged = {x: fs.tag_label(i, x) for x in P.elements}
        labels.extend(tagged[x] for x in P.elements)
        rel.update((tagged[a], tagged[b]) for a, b in P.rel)
    obj = po.Poset("+".join(P.name for P in objs), tuple(labels), frozenset(rel))
    coprojections = tuple(
        po.MonotoneMap(P, obj, tuple(fs.tag_label(i, x) for x in P.elements))
        for i, P in enumerate(objs)
    )
    return _PosetCoproductResult(obj, coprojections)


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

    def carrier(self, obj: cats.FiniteCategory):
        return [("obj", x) for x in obj.objects] + [("arr", m) for m in obj.morphisms]

    def table(self, f: cats.FunctorData):
        return [("obj", f.obj_map[x]) for x in f.source.objects] + [
            ("arr", f.mor_map[m]) for m in f.source.morphisms
        ]

    def morphism(self, dom, cod, table):
        labels = [label for _, label in table]
        return cats.FunctorData(
            dom,
            cod,
            dict(zip(dom.objects, labels)),
            dict(zip(dom.morphisms, labels[len(dom.objects):])),
        )

    def compose(self, g, f):
        return cats.compose_functors(g, f)

    def identity(self, obj: cats.FiniteCategory):
        return cats.identity_functor(obj)

    def hom(self, x: cats.FiniteCategory, a: cats.FiniteCategory):
        return cats.all_functors(x, a)

    # cats.functor_checks on the label of each tagged entry (None while unset)
    law = staticmethod(lambda x, a: [[lambda t, c=c: c([e and e[1] for e in t]) for c in position]
                                     for position in cats.functor_checks(x, a)])

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


class _CatProductResult:
    def __init__(self, obj, projections):
        self.obj = obj
        self.projections = projections

    def tuple_of(self, legs):
        dom = legs[0].source
        obj_map = {x: fs.tuple_label([leg.obj_map[x] for leg in legs]) for x in dom.objects}
        mor_map = {m: fs.tuple_label([leg.mor_map[m] for leg in legs]) for m in dom.morphisms}
        return cats.FunctorData(dom, self.obj, obj_map, mor_map)


def _cat_product(objs: list[cats.FiniteCategory]) -> _CatProductResult:
    """Objects and arrows are the tuples of the factors', labelled by
    fs.tuple_label; everything else is componentwise."""
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
    return _CatProductResult(P, projections)
