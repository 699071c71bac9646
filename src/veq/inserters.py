"""Categories of pairs (object, comparison arrow) over a finite base.

Given a parallel pair of functors F, G between finite categories, the pair
category has objects (A, r: FA -> GA) and morphisms the base arrows whose
naturality square for the chosen r's commutes. The module builds that
category with its forgetful functor and inserted transformation, checks the
forgetful functor's standard properties, realizes the adjoint shift
isomorphisms, constructs depth-bounded free algebras for polynomial set
functors, and compares signature algebras against their pair-category
presentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import cats
from . import finset as fs
from . import posets as po
from .errors import (
    AdjunctionInvalid,
    BoundsTooLarge,
    BoundTooLarge,
    DepthTooSmall,
    InvariantError,
    NotParallel,
    SourceMismatch,
)


def pair_label(obj: str, r: str) -> str:
    return f"({obj},{r})"


def _mor_label(base: str, src: str, tgt: str) -> str:
    return f"{base}|{src}>{tgt}"


@dataclass(frozen=True)
class InserterResult:
    """The pair category with its forgetful functor and inserted
    transformation; pairs maps each object label back to (base object, r)."""

    category: cats.FiniteCategory
    forgetful: cats.FunctorData
    inserted: cats.NatTransData
    pairs: dict[str, tuple[str, str]] = field(compare=False)
    lhs_functor: cats.FunctorData = field(compare=False, default=None)
    rhs_functor: cats.FunctorData = field(compare=False, default=None)


def _check_parallel(F: cats.FunctorData, G: cats.FunctorData):
    if F.source != G.source or F.target != G.target:
        raise NotParallel("the two functors must share source and target")


def _category_over(name: str, base: cats.FiniteCategory, over: dict[str, str], admits, label):
    """The category whose objects p lie over the base objects over[p] and
    whose arrows p -> q are the base arrows d: over[p] -> over[q] with
    admits(p, q, d), labelled label(d, p, q); identities and composites are
    the base's. Returns it with the base arrow under each of its arrows."""
    arrows: dict[str, tuple[str, str]] = {}
    base_of: dict[str, str] = {}
    for p in over:
        for q in over:
            for d in base.hom(over[p], over[q]):
                if admits(p, q, d):
                    m = label(d, p, q)
                    arrows[m] = (p, q)
                    base_of[m] = d
    cat = cats.tabulate_category(
        name,
        over,
        arrows,
        {p: label(base.ids[over[p]], p, p) for p in over},
        lambda g, f: label(base.comp[(base_of[g], base_of[f])], arrows[f][0], arrows[g][1]),
    )
    return cat, base_of


def inserter(F: cats.FunctorData, G: cats.FunctorData, name: str | None = None) -> InserterResult:
    """Build the category of pairs (A, r: FA -> GA) over the source of F."""
    _check_parallel(F, G)
    base, target = F.source, F.target
    pairs = {
        pair_label(x, r): (x, r)
        for x in base.objects
        for r in target.hom(F.obj_map[x], G.obj_map[x])
    }
    cat, base_of = _category_over(
        name or f"Ins({base.name},{target.name})",
        base,
        {p: x for p, (x, _) in pairs.items()},
        lambda p, q, d: target.comp[(G.mor_map[d], pairs[p][1])]
        == target.comp[(pairs[q][1], F.mor_map[d])],
        _mor_label,
    )
    forgetful = cats.FunctorData(cat, base, {p: pairs[p][0] for p in cat.objects}, base_of)
    inserted = cats.NatTransData(
        cats.compose_functors(F, forgetful),
        cats.compose_functors(G, forgetful),
        {p: pairs[p][1] for p in cat.objects},
    )
    return InserterResult(cat, forgetful, inserted, pairs, F, G)


def verify_forgetful(U: cats.FunctorData) -> dict[str, bool]:
    """Decide faithfulness, conservativity, amnesticity, and unique
    transportability by exhaustive search."""
    dom, cod = U.source, U.target
    # faithful: no two parallel arrows share an image
    faithful = len({(dom.src[m], dom.tgt[m], U.mor_map[m]) for m in dom.morphisms}) == len(dom.morphisms)
    conservative = all(
        dom.is_iso(m) for m in dom.morphisms if cod.is_iso(U.mor_map[m])
    )
    dom_ids = set(dom.ids.values())
    cod_ids = set(cod.ids.values())
    amnestic = all(
        m in dom_ids
        for m in dom.morphisms
        if dom.is_iso(m) and U.mor_map[m] in cod_ids
    )
    transportable = True
    for x in dom.objects:
        ux = U.obj_map[x]
        for b in cod.objects:
            for h in cod.hom(ux, b):
                if not cod.is_iso(h):
                    continue
                lifts = [
                    (y, m)
                    for y in dom.objects
                    if U.obj_map[y] == b
                    for m in dom.hom(x, y)
                    if U.mor_map[m] == h and dom.is_iso(m)
                ]
                if len(lifts) != 1:
                    transportable = False
    return {
        "faithful": faithful,
        "conservative": conservative,
        "amnestic": amnestic,
        "uniquely_transportable": transportable,
    }


def mediating_functor(ins: InserterResult, V: cats.FunctorData, alpha: cats.NatTransData) -> cats.FunctorData:
    """The unique functor W into the pair category with U o W = V and the
    inserted transformation restricting to alpha along W."""
    F, G = ins.lhs_functor, ins.rhs_functor
    if not cats.functors_equal(alpha.source, cats.compose_functors(F, V)):
        raise SourceMismatch("transformation must start at the first functor composed with the cone")
    if not cats.functors_equal(alpha.target, cats.compose_functors(G, V)):
        raise SourceMismatch("transformation must end at the second functor composed with the cone")
    return _lift(ins, V, {x: pair_label(V.obj_map[x], alpha.at(x)) for x in V.source.objects})


def verify_universal_property(ins: InserterResult, V: cats.FunctorData, alpha: cats.NatTransData) -> bool:
    """Check the mediating functor is the only functor W with U o W = V whose
    inserted transformation restricts to alpha: the table search sends each
    object x to a pair (V(x), alpha_x), each arrow m over V(m)."""
    W = mediating_functor(ins, V, alpha)
    U, lam, shape, cat = ins.forgetful, ins.inserted, V.source, ins.category
    pools = [
        [p for p in cat.objects if U.obj_map[p] == V.obj_map[x] and lam.at(p) == alpha.at(x)]
        for x in shape.objects
    ] + [[n for n in cat.morphisms if U.mor_map[n] == V.mor_map[m]] for m in shape.morphisms]
    found = itertools.islice(fs.search_tables(pools, cats.functor_checks(shape, cat)), 2)
    return list(found) == [tuple(W.obj_map[x] for x in shape.objects)
                           + tuple(W.mor_map[m] for m in shape.morphisms)]


def _lift(ins: InserterResult, V: cats.FunctorData, obj_map: dict[str, str]) -> cats.FunctorData:
    """The functor into the pair category that sends each object x of V's
    source to obj_map[x] and each arrow m to the pair-category arrow over
    the base arrow V(m)."""
    shape = V.source
    mor_map = {
        m: _mor_label(V.mor_map[m], obj_map[shape.src[m]], obj_map[shape.tgt[m]])
        for m in shape.morphisms
    }
    return cats.FunctorData(shape, ins.category, obj_map, mor_map)


def _shift(ins: InserterResult, shifted: InserterResult, there, back) -> tuple[cats.FunctorData, cats.FunctorData]:
    """The functors ins -> shifted and shifted -> ins between two pair
    categories over one base that keep every base arrow; a pair (x, r) goes
    to (x, there(x, r)) one way and to (x, back(x, r)) the other."""

    def across(src: InserterResult, tgt: InserterResult, rule) -> cats.FunctorData:
        obj_map = {p: pair_label(x, rule(x, r)) for p, (x, r) in src.pairs.items()}
        return _lift(tgt, src.forgetful, obj_map)

    return across(ins, shifted, there), across(shifted, ins, back)


def shift_left(F: cats.FunctorData, G: cats.FunctorData, adj: cats.AdjunctionData) -> tuple[cats.FunctorData, cats.FunctorData]:
    """For H left adjoint to G, the pair category for (F, G) is concretely
    isomorphic to the one for (H o F, identity); returns the isomorphism pair
    (there, back)."""
    _check_parallel(F, G)
    if not cats.functors_equal(adj.right, G):
        raise AdjunctionInvalid("the adjunction's right side must be the second functor")
    H = adj.left
    base, target = F.source, F.target
    return _shift(
        inserter(F, G),
        inserter(cats.compose_functors(H, F), cats.identity_functor(base)),
        lambda x, r: base.comp[(adj.counit.at(x), H.mor_map[r])],
        lambda x, r: target.comp[(G.mor_map[r], adj.unit.at(F.obj_map[x]))],
    )


def shift_right(F: cats.FunctorData, G: cats.FunctorData, adj: cats.AdjunctionData) -> tuple[cats.FunctorData, cats.FunctorData]:
    """For H right adjoint to F, the pair category for (F, G) is concretely
    isomorphic to the one for (identity, H o G)."""
    _check_parallel(F, G)
    if not cats.functors_equal(adj.left, F):
        raise AdjunctionInvalid("the adjunction's left side must be the first functor")
    H = adj.right
    base, target = F.source, F.target
    return _shift(
        inserter(F, G),
        inserter(cats.identity_functor(base), cats.compose_functors(H, G)),
        lambda x, r: base.comp[(H.mor_map[r], adj.unit.at(x))],
        lambda x, s: target.comp[(adj.counit.at(G.obj_map[x]), F.mor_map[s])],
    )


def inserter_poset(f: po.MonotoneMap, g: po.MonotoneMap) -> tuple[po.Poset, po.MonotoneMap]:
    """Pointwise oracle for thin bases: the sub-poset of elements where f
    lands below g, with its inclusion."""
    if f.dom != g.dom or f.cod != g.cod:
        raise NotParallel("monotone comparison needs a parallel pair")
    keep = [x for x in f.dom.elements if f.cod.leq(f(x), g(x))]
    return po.sub_poset(f.dom, keep, name=f"{f.dom.name}|ins")


# --- limit existence and creation -----------------------------------------


def _cones(C: cats.FiniteCategory, z: str, diagram):
    """Every cone from z over the diagram, as a table of legs. A diagram is
    its objects and its arrows (label, i, j) from object i to object j; a
    cone's legs commute with each arrow."""
    objs, arrows = diagram
    checks: list[list] = [[] for _ in objs]
    for a, i, j in arrows:
        checks[max(i, j)].append(lambda t, a=a, i=i, j=j: C.comp[(a, t[i])] == t[j])
    return fs.search_tables([C.hom(z, d) for d in objs], checks)


def _is_limit(C: cats.FiniteCategory, cones, apex: str, legs) -> bool:
    """Every cone, listed by its vertex, factors through (apex, legs) exactly once."""
    for z, from_z in cones.items():
        mediators = C.hom(z, apex)
        for cone in from_z:
            if sum(all(C.comp[(leg, u)] == c for leg, c in zip(legs, cone)) for u in mediators) != 1:
                return False
    return True


def _limit_cone(C: cats.FiniteCategory, diagram):
    """The first limit cone (apex, legs) in object and then cone order, or None."""
    cones = {z: list(_cones(C, z, diagram)) for z in C.objects}
    candidates = ((apex, legs) for apex in C.objects for legs in cones[apex])
    return next((cone for cone in candidates if _is_limit(C, cones, *cone)), None)


def _diagrams(C: cats.FiniteCategory, kind: str):
    """Every binary-product diagram, or every pair of distinct parallel arrows."""
    if kind == "products":
        return [((x, y), ()) for x in C.objects for y in C.objects]
    return [((C.src[f], C.tgt[f]), ((f, 0, 1), (g, 0, 1)))
            for f in C.morphisms for g in C.hom(C.src[f], C.tgt[f]) if g != f]


def _has_limits(C: cats.FiniteCategory, kind: str) -> bool:
    return all(_limit_cone(C, d) is not None for d in _diagrams(C, kind))


def _preserves_limits(F: cats.FunctorData, kind: str) -> bool:
    """Every limit cone of the kind that the source has maps to one."""
    for objs, arrows in _diagrams(F.source, kind):
        cone = _limit_cone(F.source, (objs, arrows))
        if cone is None:
            continue
        image = tuple(F.obj_map[x] for x in objs), tuple((F.mor_map[a], i, j) for a, i, j in arrows)
        cones = {z: _cones(F.target, z, image) for z in F.target.objects}
        if not _is_limit(F.target, cones, F.obj_map[cone[0]], [F.mor_map[m] for m in cone[1]]):
            return False
    return True


def limit_creation_report(F: cats.FunctorData, G: cats.FunctorData) -> dict:
    """When the base has binary products (or equalizers) and the second
    functor preserves them, the pair category must have them too and the
    forgetful functor must preserve them. Reports hypothesis and outcome
    per limit kind; outcome is None when the hypothesis fails."""
    ins = inserter(F, G)
    report: dict[str, dict] = {}
    for kind in ("products", "equalizers"):
        hyp = _has_limits(F.source, kind) and _preserves_limits(G, kind)
        created = hyp and _has_limits(ins.category, kind) and _preserves_limits(ins.forgetful, kind)
        report[kind] = {"hypothesis": hyp, "created": created if hyp else None}
    return report


# --- polynomial set functors and bounded free algebras ---------------------


@dataclass(frozen=True)
class PolyFunctor:
    """A formal sum of powers of the argument: each summand is a pair
    (constructor label, exponent). The single unnamed summand ("", 1) is the
    identity functor, whose elements pass through without wrapping; every
    named summand wraps its arguments as cons(a0,...,ak)."""

    summands: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [c for c, _ in self.summands]
        if len(set(labels)) != len(labels):
            raise InvariantError("summand labels must be distinct")
        for c, k in self.summands:
            if k < 0:
                raise InvariantError("negative exponent in polynomial")
            if c == "" and (k != 1 or len(self.summands) != 1):
                raise InvariantError("the unnamed summand is reserved for the bare identity polynomial")

    def term(self, cons: str, args: tuple[str, ...]) -> str:
        if cons == "":
            return args[0]
        if not args:
            return cons
        return f"{cons}({','.join(args)})"

    def on_set(self, X: fs.FinSetObj) -> fs.FinSetObj:
        labels = []
        for cons, k in self.summands:
            for args in itertools.product(X.elements, repeat=k):
                labels.append(self.term(cons, args))
        return fs.FinSetObj(tuple(labels))

    def on_map(self, f: fs.FinFunction) -> fs.FinFunction:
        mapping = {}
        for cons, k in self.summands:
            for args in itertools.product(f.dom.elements, repeat=k):
                mapping[self.term(cons, args)] = self.term(cons, tuple(f(a) for a in args))
        return fs.fin_function(self.on_set(f.dom), self.on_set(f.cod), mapping)


IDENTITY_POLY = PolyFunctor((("", 1),))


def parse_poly(text: str) -> PolyFunctor:
    """Parse e.g. "succ:X + zero:1" or "pair:X^2"; a bare "X" alone is the
    identity polynomial, other unnamed summands get labels in0, in1, ..."""
    raw = [part.strip() for part in text.split("+")]
    if not raw or any(not p for p in raw):
        raise InvariantError(f"bad polynomial {text!r}")
    summands = []
    for i, part in enumerate(raw):
        if ":" in part:
            name, body = (s.strip() for s in part.split(":", 1))
        else:
            name, body = None, part
        if body == "1":
            k = 0
        elif body == "X":
            k = 1
        elif body.startswith("X^"):
            k = int(body[2:])
            if k < 0:
                raise InvariantError(f"bad power in {part!r}")
        else:
            raise InvariantError(f"bad summand {part!r}")
        if name is None:
            name = "" if (body == "X" and len(raw) == 1) else f"in{i}"
        summands.append((name, k))
    return PolyFunctor(tuple(summands))


@dataclass(frozen=True)
class FreeFAlgebra:
    """Depth-bounded free algebra for a polynomial functor: carrier holds all
    terms over the generators up to the depth; the structure map is partial
    exactly at the frontier (terms whose construction would exceed it)."""

    functor: PolyFunctor
    generators: fs.FinSetObj
    depth: int
    carrier: fs.FinSetObj
    insertion: fs.FinFunction
    applied: fs.FinSetObj
    structure: dict[str, str] = field(compare=False)
    frontier: frozenset[str] = field(default_factory=frozenset)
    recipes: dict[str, tuple[str, tuple[str, ...]]] = field(compare=False, default_factory=dict)

    def apply(self, label: str) -> str:
        if label in self.frontier:
            raise DepthTooSmall(f"applying the structure map to {label!r} exceeds depth {self.depth}")
        if label not in self.structure:
            raise InvariantError(f"{label!r} is not in the functor's image of the carrier")
        return self.structure[label]

    def structure_function(self) -> fs.FinFunction:
        if self.frontier:
            raise DepthTooSmall("structure map is partial at the frontier; raise the depth")
        return fs.fin_function(self.applied, self.carrier, dict(self.structure))


def free_f_algebra(functor: PolyFunctor, generators: fs.FinSetObj, depth: int, cap: int = 5000) -> FreeFAlgebra:
    """Terms over the generators, grown breadth-first one constructor layer
    per depth step. Earlier layers are a prefix of later ones, so depth d
    embeds in depth d+1 by carrier inclusion."""
    if depth < 0:
        raise InvariantError("depth must be non-negative")
    seen: list[str] = list(generators.elements)
    index = set(seen)
    recipes: dict[str, tuple[str, tuple[str, ...]]] = {}
    for _ in range(depth):
        layer = []
        for cons, k in functor.summands:
            for args in itertools.product(seen, repeat=k):
                t = functor.term(cons, args)
                if t not in index:
                    index.add(t)
                    layer.append(t)
                    recipes[t] = (cons, args)
                    if len(seen) + len(layer) > cap:
                        raise BoundsTooLarge(f"free carrier exceeds {cap} terms")
        seen.extend(layer)
    carrier = fs.FinSetObj(tuple(seen))
    applied = functor.on_set(carrier)
    structure = {lab: lab for lab in applied.elements if lab in index}
    frontier = frozenset(lab for lab in applied.elements if lab not in index)
    insertion = fs.FinFunction(generators, carrier, generators.elements)
    return FreeFAlgebra(
        functor, generators, depth, carrier, insertion, applied,
        structure, frontier, recipes,
    )


_EXHAUSTIVE_CAP = 1_000_000  # candidate maps; alg.all_alg_homs' default cap


def free_universal_map(free: FreeFAlgebra, target: fs.FinFunction, gen_map: fs.FinFunction, exhaustive: bool = False) -> fs.FinFunction:
    """The unique map into a finite algebra (target: F(B) -> B) extending
    gen_map and commuting with the structure maps wherever the free one is
    defined. With exhaustive=True, uniqueness is re-checked by enumeration."""
    functor = free.functor
    B = target.cod
    expected = functor.on_set(B)
    if target.dom.elements != expected.elements:
        raise SourceMismatch("target structure map must start at the functor applied to its codomain")
    if gen_map.dom.elements != free.generators.elements:
        raise SourceMismatch("generator assignment must start at the generators")
    if gen_map.cod != B:
        raise SourceMismatch("generator assignment must land in the target carrier")

    idx = free.carrier._index
    law: list[list] = [[] for _ in free.carrier.elements]
    for e in free.applied.elements:
        if e not in free.frontier:
            # only the identity polynomial applies to a bare generator
            cons, args = free.recipes.get(e, ("", (e,)))
            pos, out = tuple(idx[a] for a in args), idx[free.structure[e]]
            law[max(pos + (out,))].append(
                lambda h, cons=cons, pos=pos, out=out:
                h[out] == target(functor.term(cons, tuple(h[p] for p in pos)))
            )

    # a term's value is forced by the check at its own position, which
    # follows its arguments', so the first table is the map built term by term
    pools = [B.elements if t in free.recipes else (gen_map(t),) for t in free.carrier.elements]
    tables = fs.search_tables(pools, law)
    table = next(tables, None)
    if table is None:
        raise InvariantError("constructed map fails the homomorphism law")
    if exhaustive:
        planned = len(B) ** len(free.carrier)
        if planned > _EXHAUSTIVE_CAP:
            raise BoundsTooLarge(f"exhaustive check would try {planned} maps (cap {_EXHAUSTIVE_CAP})")
        count = 1 + sum(1 for _ in tables)
        if count != 1:
            raise InvariantError(f"universal map is not unique: {count} candidates")
    return fs.FinFunction(free.carrier, B, table)


# --- signature algebras as a pair category ---------------------------------


@dataclass(frozen=True)
class SortedSignature:
    """Finitely many sorts and operation symbols; each symbol carries an
    argument word over the sorts and a result sort."""

    sorts: tuple[str, ...]
    ops: tuple[tuple[str, tuple[str, ...], str], ...]

    def __post_init__(self):
        if not self.sorts or len(set(self.sorts)) != len(self.sorts):
            raise InvariantError("sorts must be non-empty and distinct")
        names = [n for n, _, _ in self.ops]
        if len(set(names)) != len(names):
            raise InvariantError("operation names must be distinct")
        for n, word, res in self.ops:
            if res not in self.sorts or any(s not in self.sorts for s in word):
                raise InvariantError(f"operation {n} uses unknown sorts")


class _FamilyCatBuilder:
    """Accumulates a category whose objects are tuples of finite sets and
    whose morphisms are componentwise functions, stored as output tables."""

    def __init__(self):
        self.objects: dict[str, tuple[fs.FinSetObj, ...]] = {}
        self.entries: dict[str, tuple[str, str, tuple[tuple[str, ...], ...]]] = {}
        self.rev: dict[tuple, str] = {}
        self.counts: dict[tuple[str, str], int] = {}

    def add_object(self, name: str, comps) -> str:
        comps = tuple(comps)
        if name in self.objects:
            if self.objects[name] != comps:
                raise InvariantError(f"object name collision at {name}")
        else:
            self.objects[name] = comps
        return name

    def morphism(self, src: str, tgt: str, tables) -> str:
        tables = tuple(tuple(t) for t in tables)
        key = (src, tgt, tables)
        if key in self.rev:
            return self.rev[key]
        k = self.counts.get((src, tgt), 0)
        self.counts[(src, tgt)] = k + 1
        label = f"{src}>{tgt}#{k}"
        self.rev[key] = label
        self.entries[label] = key
        return label

    def identity(self, name: str) -> str:
        return self.morphism(name, name, tuple(c.elements for c in self.objects[name]))

    def add_all_functions(self, src: str, tgt: str):
        pools = [
            list(itertools.product(t.elements, repeat=len(s)))
            for s, t in zip(self.objects[src], self.objects[tgt])
        ]
        for tables in itertools.product(*pools):
            self.morphism(src, tgt, tables)

    def compose_key(self, after: str, first: str) -> tuple:
        asrc, atgt, a_tab = self.entries[after]
        fsrc, ftgt, f_tab = self.entries[first]
        if ftgt != asrc:
            raise InvariantError("composing non-composable family maps")
        mid = self.objects[asrc]
        out = tuple(
            tuple(a_tab[i][mid[i].elements.index(v)] for v in f_tab[i])
            for i in range(len(mid))
        )
        return (fsrc, atgt, out)

    def close(self, cap: int):
        for name in self.objects:
            self.identity(name)
        changed = True
        while changed:
            changed = False
            labels = list(self.entries)
            for after in labels:
                for first in labels:
                    if self.entries[first][1] != self.entries[after][0]:
                        continue
                    key = self.compose_key(after, first)
                    if key not in self.rev:
                        self.morphism(*key)
                        changed = True
            if len(self.entries) > cap:
                raise BoundTooLarge(f"category closure exceeds {cap} morphisms")

    def build(self, name: str) -> cats.FiniteCategory:
        return cats.tabulate_category(
            name,
            self.objects,
            {m: (src, tgt) for m, (src, tgt, _) in self.entries.items()},
            {x: self.identity(x) for x in self.objects},
            lambda after, first: self.rev[self.compose_key(after, first)],
        )


def _family_name(prefix: str, comps) -> str:
    return f"{prefix}[{';'.join(','.join(c.elements) for c in comps)}]"


def _word_product(comps: tuple[fs.FinSetObj, ...]) -> fs.FinSetObj:
    if len(comps) == 0:
        return fs.FinSetObj(("()",))
    if len(comps) == 1:
        return comps[0]
    combos = itertools.product(*(c.elements for c in comps))
    return fs.FinSetObj(tuple(fs.tuple_label(c) for c in combos))


def _mapped_word_label(word_comps, combo, tables_by_sort, sort_index, word):
    if len(word) == 0:
        return "()"
    outs = []
    for j, s in enumerate(word):
        comp = word_comps[j]
        outs.append(tables_by_sort[sort_index[s]][comp.elements.index(combo[j])])
    if len(word) == 1:
        return outs[0]
    return fs.tuple_label(outs)


def sigma_alg_as_inserter(sig: SortedSignature, size_bound: int,
                          base_cap: int = 4000, sigma_cap: int = 4000,
                          direct_cap: int = 4000) -> dict:
    """Build the category of signature algebras with carriers of size up to
    the bound twice: directly, and as the pair category for the arity
    functors (argument-tuple family vs result family). Returns the matching
    report with the object bijection."""
    if size_bound < 0:
        raise InvariantError("size bound must be non-negative")
    sorts = sig.sorts
    sort_index = {s: i for i, s in enumerate(sorts)}

    families: dict[str, tuple[fs.FinSetObj, ...]] = {}
    for sizes in itertools.product(range(size_bound + 1), repeat=len(sorts)):
        comps = tuple(
            fs.FinSetObj(tuple(f"{s}{i}" for i in range(k)))
            for s, k in zip(sorts, sizes)
        )
        families[f"A({','.join(map(str, sizes))})"] = comps

    planned = sum(
        _hom_size(x, y) for x in families.values() for y in families.values()
    )
    if planned > base_cap:
        raise BoundTooLarge(f"base category would hold {planned} morphisms (cap {base_cap})")
    base_b = _FamilyCatBuilder()
    for name, comps in families.items():
        base_b.add_object(name, comps)
    for xn in families:
        for yn in families:
            base_b.add_all_functions(xn, yn)
    base_b.close(base_cap * 2)
    base_cat = base_b.build("SetFam")

    def shape_src(comps):
        return tuple(
            _word_product(tuple(comps[sort_index[s]] for s in word))
            for _, word, _ in sig.ops
        )

    def shape_tgt(comps):
        return tuple(comps[sort_index[res]] for _, _, res in sig.ops)

    sigma_b = _FamilyCatBuilder()
    src_name: dict[str, str] = {}
    tgt_name: dict[str, str] = {}
    for name, comps in families.items():
        src_name[name] = sigma_b.add_object(_family_name("S", shape_src(comps)), shape_src(comps))
        tgt_name[name] = sigma_b.add_object(_family_name("S", shape_tgt(comps)), shape_tgt(comps))
    planned = sum(
        _hom_size(sigma_b.objects[src_name[xn]], sigma_b.objects[tgt_name[yn]])
        for xn in families for yn in families
    )
    if planned > sigma_cap:
        raise BoundTooLarge(f"operation-family category would hold {planned} morphisms (cap {sigma_cap})")
    seen_pairs = set()
    for xn in families:
        for yn in families:
            pair = (src_name[xn], tgt_name[yn])
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                sigma_b.add_all_functions(*pair)

    src_mor: dict[str, str] = {}
    tgt_mor: dict[str, str] = {}
    for d in base_cat.morphisms:
        xn, yn, tables = base_b.entries[d]
        xcomps = families[xn]
        out_src = []
        for _, word, _ in sig.ops:
            word_comps = tuple(xcomps[sort_index[s]] for s in word)
            table = tuple(
                _mapped_word_label(word_comps, combo, tables, sort_index, word)
                for combo in (itertools.product(*(c.elements for c in word_comps))
                              if word else [()])
            )
            out_src.append(table)
        src_mor[d] = sigma_b.morphism(src_name[xn], src_name[yn], out_src)
        out_tgt = [tables[sort_index[res]] for _, _, res in sig.ops]
        tgt_mor[d] = sigma_b.morphism(tgt_name[xn], tgt_name[yn], out_tgt)
    sigma_b.close(sigma_cap * 4)
    sigma_cat = sigma_b.build("OpFam")

    arg_functor = cats.FunctorData(
        base_cat, sigma_cat, {xn: src_name[xn] for xn in families}, src_mor)
    res_functor = cats.FunctorData(
        base_cat, sigma_cat, {xn: tgt_name[xn] for xn in families}, tgt_mor)
    ins = inserter(arg_functor, res_functor, name="Ins(args,results)")

    # direct side: objects are (family, one output table per operation)
    alg_content: dict[str, tuple[str, tuple]] = {}
    content_index: dict[tuple[str, tuple], str] = {}
    for xn, comps in families.items():
        pools = []
        for (_, word, res), dom_obj in zip(sig.ops, shape_src(comps)):
            res_obj = comps[sort_index[res]]
            pools.append(list(itertools.product(res_obj.elements, repeat=len(dom_obj))))
        for k, tables in enumerate(itertools.product(*pools)):
            name = f"{xn}!{k}"
            alg_content[name] = (xn, tuple(tables))
            content_index[(xn, tuple(tables))] = name
            if len(alg_content) > direct_cap:
                raise BoundTooLarge(f"more than {direct_cap} algebras at this bound")

    def alg_label(d: str, an: str, bn: str) -> str:
        return f"{an}>{bn}|{d}"

    direct_cat, _ = _category_over(
        "SigAlg",
        base_cat,
        {an: xn for an, (xn, _) in alg_content.items()},
        lambda an, bn, d: _is_family_hom(
            sig, sort_index, families[alg_content[an][0]], families[alg_content[bn][0]],
            alg_content[an][1], alg_content[bn][1], base_b.entries[d][2]),
        alg_label,
    )

    # match the two sides
    object_map: dict[str, str] = {}
    matched = len(ins.category.objects) == len(alg_content)
    for p, (xn, r) in ins.pairs.items():
        tables = sigma_b.entries[r][2]
        direct = content_index.get((xn, tables))
        if direct is None:
            matched = False
            break
        object_map[p] = direct
    if matched and len(set(object_map.values())) != len(object_map):
        matched = False
    # object_map is injective here, so distinct arrows lift to distinct labels
    mor_matched = matched and set(direct_cat.morphisms) == {
        alg_label(d, object_map[ins.category.src[m]], object_map[ins.category.tgt[m]])
        for m, d in ins.forgetful.mor_map.items()
    }
    return {
        "matched": bool(matched and mor_matched),
        "object_count": len(alg_content),
        "morphism_count": len(direct_cat.morphisms),
        "object_map": object_map,
        "ins_category": ins.category,
        "direct_category": direct_cat,
        "forgetful": ins.forgetful,
    }


def _hom_size(xcomps, ycomps) -> int:
    total = 1
    for xc, yc in zip(xcomps, ycomps):
        total *= len(yc) ** len(xc)
    return total


def _is_family_hom(sig, sort_index, xcomps, ycomps, x_tables, y_tables, map_tables) -> bool:
    for op_idx, (_, word, res) in enumerate(sig.ops):
        word_comps = tuple(xcomps[sort_index[s]] for s in word)
        combos = list(itertools.product(*(c.elements for c in word_comps))) if word else [()]
        y_dom = _word_product(tuple(ycomps[sort_index[s]] for s in word))
        y_lookup = dict(zip(y_dom.elements, y_tables[op_idx]))
        res_idx = sort_index[res]
        for i, combo in enumerate(combos):
            out = x_tables[op_idx][i]
            mapped_out = map_tables[res_idx][xcomps[res_idx].elements.index(out)]
            mapped_combo = _mapped_word_label(word_comps, combo, map_tables, sort_index, word)
            if mapped_out != y_lookup[mapped_combo]:
                return False
    return True
