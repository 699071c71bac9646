"""The hand-written category constructions that veq.cats.tabulate_category
and the pair-category helpers in veq.inserters replaced, kept as an oracle.

Every finite category is now laid out by one builder, `tabulate_category`,
and pair categories and signature algebras are one category over a base
(`_category_over`). These are the earlier versions, unchanged apart from
their names: each fills its own composition table with a loop over every
pair of arrows, `_subcategory_inclusion` checks identities and closure by
hand, the shift isomorphisms go through `_concrete_functor`, and
`free_universal_map` states the homomorphism law twice. `oracle_family_build`
is `_FamilyCatBuilder.build` with the builder passed in, and
`oracle_sigalg_direct` is the direct side of `sigma_alg_as_inserter`.
`oracle_validate` is the earlier `FiniteCategory.__post_init__`, whose
associativity check scans every arrow f for each composable (h, g), and
`oracle_validate_functor` the earlier `FunctorData.__post_init__`, whose
composition check scans every pair of arrows.

`OracleFinCat` holds the functor-shaped equalizer, intersection, pullback,
mono test and factorization that `FinCatCat` kept before it joined the
table-category base, and `oracle_table_pullback` that base's earlier
pullback, which asked each morphism for its value at a point.

The brute searches that `finset.search_tables` replaced are here too:
`oracle_all_functors` tries every object map and every choice of arrows in
the hom-sets it allows, `oracle_table_factor` every table in the product of
the preimage pools, and `oracle_verify_universal_property` every functor
into the pair category. The binary-product and equalizer checks below are
the two hand-written copies that `inserters._cones` and `_is_limit` made
one, with `oracle_limit_creation_report` on top of them.
"""

from __future__ import annotations

import itertools
import math

from veq import cats
from veq import finset as fs
from veq.cats import FiniteCategory
from veq.errors import (
    AdjunctionInvalid,
    BoundTooLarge,
    CarrierTooLarge,
    CodMismatch,
    InvariantError,
    NotParallel,
    SourceMismatch,
)
from veq.inserters import (
    FreeFAlgebra,
    InserterResult,
    SortedSignature,
    _check_parallel,
    inserter,
    mediating_functor,
    _is_family_hom,
    _mor_label,
    _word_product,
    pair_label,
)
from veq.instances import _POOL_CAP, _cat_product, _subcategory_inclusion
from veq.posets import Poset, _arrow_name


def oracle_validate(name, objects, morphisms, src, tgt, ids, comp) -> None:
    """Raise the InvariantError FiniteCategory(name, ...) raises, if any."""
    if len(set(objects)) != len(objects):
        raise InvariantError(f"{name}: duplicate objects")
    if len(set(morphisms)) != len(morphisms):
        raise InvariantError(f"{name}: duplicate morphisms")
    for m in morphisms:
        if src.get(m) not in objects or tgt.get(m) not in objects:
            raise InvariantError(f"{name}: morphism {m} has bad endpoints")
    for x in objects:
        i = ids.get(x)
        if i not in morphisms or src[i] != x or tgt[i] != x:
            raise InvariantError(f"{name}: bad identity at {x}")
    for g in morphisms:
        for f in morphisms:
            composable = src[g] == tgt[f]
            if composable != ((g, f) in comp):
                raise InvariantError(
                    f"{name}: composition table mismatch at ({g}, {f})"
                )
            if composable:
                gf = comp[(g, f)]
                if gf not in morphisms:
                    raise InvariantError(f"{name}: composite {gf} unknown")
                if src[gf] != src[f] or tgt[gf] != tgt[g]:
                    raise InvariantError(
                        f"{name}: composite ({g}, {f}) has wrong endpoints"
                    )
    for f in morphisms:
        if comp[(f, ids[src[f]])] != f:
            raise InvariantError(f"{name}: right identity fails at {f}")
        if comp[(ids[tgt[f]], f)] != f:
            raise InvariantError(f"{name}: left identity fails at {f}")
    for h in morphisms:
        for g in morphisms:
            if src[h] != tgt[g]:
                continue
            for f in morphisms:
                if src[g] != tgt[f]:
                    continue
                if comp[(comp[(h, g)], f)] != comp[(h, comp[(g, f)])]:
                    raise InvariantError(
                        f"{name}: associativity fails at ({h}, {g}, {f})"
                    )


def oracle_validate_functor(C, D, obj_map, mor_map) -> None:
    """Raise the InvariantError FunctorData(C, D, obj_map, mor_map) raises, if any."""
    for x in C.objects:
        if obj_map.get(x) not in D.objects:
            raise InvariantError(f"functor: object {x} unmapped or mapped outside")
    for m in C.morphisms:
        fm = mor_map.get(m)
        if fm not in D.morphisms:
            raise InvariantError(f"functor: morphism {m} unmapped or mapped outside")
        if D.src[fm] != obj_map[C.src[m]] or D.tgt[fm] != obj_map[C.tgt[m]]:
            raise InvariantError(f"functor: endpoints broken at {m}")
    for x in C.objects:
        if mor_map[C.ids[x]] != D.ids[obj_map[x]]:
            raise InvariantError(f"functor: identity broken at {x}")
    for g in C.morphisms:
        for f in C.morphisms:
            if C.src[g] != C.tgt[f]:
                continue
            if mor_map[C.comp[(g, f)]] != D.comp[(mor_map[g], mor_map[f])]:
                raise InvariantError(f"functor: composition broken at ({g}, {f})")


class OracleFinCat:
    """The constructions FinCatCat wrote for functors by hand."""

    def equalizer(self, p: cats.FunctorData, q: cats.FunctorData):
        if p.source != q.source or p.target != q.target:
            raise NotParallel("equalizer needs a parallel pair")
        C = p.source
        objs = [x for x in C.objects if p.obj_map[x] == q.obj_map[x]]
        oset = set(objs)
        morphs = [
            m
            for m in C.morphisms
            if C.src[m] in oset and C.tgt[m] in oset and p.mor_map[m] == q.mor_map[m]
        ]
        return _subcategory_inclusion(C, objs, morphs)

    def intersection(self, monos):
        C = monos[0].target
        objs = set(C.objects)
        morphs = set(C.morphisms)
        for m in monos:
            if m.target != C:
                raise CodMismatch("intersection needs a common target")
            objs &= {m.obj_map[x] for x in m.source.objects}
            morphs &= {m.mor_map[f] for f in m.source.morphisms}
        return _subcategory_inclusion(
            C,
            [x for x in C.objects if x in objs],
            [f for f in C.morphisms if f in morphs],
        )

    def pullback(self, f: cats.FunctorData, m: cats.FunctorData):
        if f.target != m.target:
            raise CodMismatch("pullback needs a cospan")
        prod = _cat_product([f.source, m.source])
        p0, p1 = prod.projections
        objs = [
            x
            for x in prod.obj.objects
            if f.obj_map[p0.obj_map[x]] == m.obj_map[p1.obj_map[x]]
        ]
        oset = set(objs)
        morphs = [
            mm
            for mm in prod.obj.morphisms
            if prod.obj.src[mm] in oset
            and prod.obj.tgt[mm] in oset
            and f.mor_map[p0.mor_map[mm]] == m.mor_map[p1.mor_map[mm]]
        ]
        incl = _subcategory_inclusion(prod.obj, objs, morphs)
        return (
            cats.compose_functors(p0, incl),
            cats.compose_functors(p1, incl),
        )

    def is_mono(self, f: cats.FunctorData) -> bool:
        return len(set(f.obj_map.values())) == len(f.source.objects) and len(
            set(f.mor_map.values())
        ) == len(f.source.morphisms)

    def factor(self, f: cats.FunctorData, g: cats.FunctorData):
        if f.target != g.target:
            raise CodMismatch("factorization needs a common target")
        for h in oracle_all_functors(f.source, g.source):
            if cats.functors_equal(cats.compose_functors(g, h), f):
                return h
        return None


def oracle_table_pullback(cat, f, m):
    """The pullback of _TableCategory before it went through the equalizer."""
    if f.cod != m.cod:
        raise CodMismatch("pullback needs a cospan")
    prod = cat.product([f.dom, m.dom])
    p0, p1 = prod.projections
    members = [
        x
        for x, a, b in zip(cat.carrier(prod.obj), p0.table, p1.table)
        if f(a) == m(b)
    ]
    incl = cat.sub(prod.obj, members)
    return cat.compose(p0, incl), cat.compose(p1, incl)


def oracle_all_functors(C: FiniteCategory, D: FiniteCategory) -> list[cats.FunctorData]:
    """Every functor C -> D, by brute enumeration. Exponential; keep C tiny."""
    out: list[cats.FunctorData] = []
    non_id = [m for m in C.morphisms if m not in set(C.ids.values())]
    for obj_choice in itertools.product(D.objects, repeat=len(C.objects)):
        obj_map = dict(zip(C.objects, obj_choice))
        pools = []
        for m in non_id:
            pools.append(
                [d for d in D.hom(obj_map[C.src[m]], obj_map[C.tgt[m]])]
            )
        if any(not p for p in pools):
            continue
        for mor_choice in itertools.product(*pools):
            mor_map = dict(zip(non_id, mor_choice))
            for x in C.objects:
                mor_map[C.ids[x]] = D.ids[obj_map[x]]
            try:
                out.append(cats.FunctorData(C, D, obj_map, mor_map))
            except InvariantError:
                continue
    return out


def oracle_table_factor(cat, f, g):
    """_TableCategory.factor before the table search: every table in the
    product of the preimage pools goes through the validating constructor."""
    if cat.target(f) != cat.target(g):
        raise CodMismatch("factorization needs a common target")
    dom, mid = cat.source(f), cat.source(g)
    preimages: dict = {}
    for x, gx in zip(cat.carrier(mid), cat.table(g)):
        preimages.setdefault(gx, []).append(x)
    pools = [preimages.get(y, []) for y in cat.table(f)]
    if not all(pools):
        return None
    size = math.prod(map(len, pools))
    if size > 1 and size > cat.hom_size(dom, mid):
        for h in cat.hom(dom, mid):
            if cat.table(cat.compose(g, h)) == cat.table(f):
                return h
        return None
    if size > _POOL_CAP:
        raise CarrierTooLarge(f"{size} candidate tables exceed {_POOL_CAP}")
    for table in itertools.product(*pools):
        try:
            return cat.morphism(dom, mid, table)
        except InvariantError:
            continue
    return None


def oracle_verify_universal_property(ins: InserterResult, V: cats.FunctorData, alpha: cats.NatTransData) -> bool:
    """Filter every functor into the pair category through the two equations."""
    W = mediating_functor(ins, V, alpha)
    U, lam = ins.forgetful, ins.inserted

    def fits(cand: cats.FunctorData) -> bool:
        if not cats.functors_equal(cats.compose_functors(U, cand), V):
            return False
        return all(lam.at(cand.obj_map[x]) == alpha.at(x) for x in V.source.objects)

    if not fits(W):
        return False
    matches = sum(1 for cand in oracle_all_functors(V.source, ins.category) if fits(cand))
    return matches == 1


def _is_product_cone(C: FiniteCategory, x: str, y: str, apex: str, p1: str, p2: str) -> bool:
    for z in C.objects:
        for f in C.hom(z, x):
            for g in C.hom(z, y):
                mediators = [
                    u for u in C.hom(z, apex)
                    if C.comp[(p1, u)] == f and C.comp[(p2, u)] == g
                ]
                if len(mediators) != 1:
                    return False
    return True


def binary_product_cone(C: FiniteCategory, x: str, y: str):
    """First product cone over (x, y) in object order, or None."""
    for apex in C.objects:
        for p1 in C.hom(apex, x):
            for p2 in C.hom(apex, y):
                if _is_product_cone(C, x, y, apex, p1, p2):
                    return apex, p1, p2
    return None


def has_binary_products(C: FiniteCategory) -> bool:
    return all(
        binary_product_cone(C, x, y) is not None
        for x in C.objects for y in C.objects
    )


def preserves_binary_products(F: cats.FunctorData) -> bool:
    """Every product cone the source has must map to a product cone."""
    C, D = F.source, F.target
    for x in C.objects:
        for y in C.objects:
            cone = binary_product_cone(C, x, y)
            if cone is None:
                continue
            apex, p1, p2 = cone
            if not _is_product_cone(
                D, F.obj_map[x], F.obj_map[y],
                F.obj_map[apex], F.mor_map[p1], F.mor_map[p2],
            ):
                return False
    return True


def _is_equalizer_cone(C: FiniteCategory, f: str, g: str, m: str) -> bool:
    if C.comp[(f, m)] != C.comp[(g, m)]:
        return False
    x = C.src[f]
    for z in C.objects:
        for h in C.hom(z, x):
            if C.comp[(f, h)] != C.comp[(g, h)]:
                continue
            mediators = [u for u in C.hom(z, C.src[m]) if C.comp[(m, u)] == h]
            if len(mediators) != 1:
                return False
    return True


def equalizer_cone(C: FiniteCategory, f: str, g: str):
    """First equalizing arrow of the parallel pair (f, g), or None."""
    if C.src[f] != C.src[g] or C.tgt[f] != C.tgt[g]:
        raise NotParallel("equalizer needs a parallel pair")
    for e in C.objects:
        for m in C.hom(e, C.src[f]):
            if _is_equalizer_cone(C, f, g, m):
                return e, m
    return None


def has_equalizers(C: FiniteCategory) -> bool:
    for f in C.morphisms:
        for g in C.morphisms:
            if f == g or C.src[f] != C.src[g] or C.tgt[f] != C.tgt[g]:
                continue
            if equalizer_cone(C, f, g) is None:
                return False
    return True


def preserves_equalizers(F: cats.FunctorData) -> bool:
    C, D = F.source, F.target
    for f in C.morphisms:
        for g in C.morphisms:
            if f == g or C.src[f] != C.src[g] or C.tgt[f] != C.tgt[g]:
                continue
            cone = equalizer_cone(C, f, g)
            if cone is None:
                continue
            if not _is_equalizer_cone(D, F.mor_map[f], F.mor_map[g], F.mor_map[cone[1]]):
                return False
    return True


def oracle_limit_creation_report(F: cats.FunctorData, G: cats.FunctorData) -> dict:
    _check_parallel(F, G)
    ins = inserter(F, G)
    U = ins.forgetful
    base = F.source
    report: dict[str, dict] = {}
    prod_hyp = has_binary_products(base) and preserves_binary_products(G)
    prod = {"hypothesis": prod_hyp, "created": None}
    if prod_hyp:
        prod["created"] = has_binary_products(ins.category) and preserves_binary_products(U)
    report["products"] = prod
    eq_hyp = has_equalizers(base) and preserves_equalizers(G)
    eq = {"hypothesis": eq_hyp, "created": None}
    if eq_hyp:
        eq["created"] = has_equalizers(ins.category) and preserves_equalizers(U)
    report["equalizers"] = eq
    return report


def oracle_category_from_generators(
    name: str,
    objects: list[str],
    generators: dict[str, tuple[str, str]],
    relations: dict[tuple[str, ...], tuple[str, ...]] | None = None,
    max_morphisms: int = 500,
) -> FiniteCategory:
    """Close generating arrows under composition, normalizing composites by
    the given word relations. Words are tuples of generator names, applied
    right-to-left; the empty word at an object is its identity. Relations
    must present a finite category or this raises after max_morphisms.
    """
    relations = dict(relations or {})

    def rewrite(word: tuple[str, ...]) -> tuple[str, ...]:
        changed = True
        while changed:
            changed = False
            for pat, rep in relations.items():
                for i in range(len(word) - len(pat) + 1):
                    if word[i : i + len(pat)] == pat:
                        word = word[:i] + rep + word[i + len(pat) :]
                        changed = True
                        break
                if changed:
                    break
        return word

    def word_src(word: tuple[str, ...], at: str) -> str:
        return generators[word[-1]][0] if word else at

    # enumerate normal-form words by BFS over right extension
    words: dict[tuple[str, tuple[str, ...]], str] = {}
    names: dict[str, tuple[str, tuple[str, ...]]] = {}

    def register(at: str, word: tuple[str, ...]) -> str:
        key = (at, word)
        if key not in words:
            label = f"id_{at}" if not word else ".".join(word)
            if label in names:
                label = f"{label}@{at}"
            words[key] = label
            names[label] = key
        return words[key]

    frontier: list[tuple[str, tuple[str, ...]]] = []
    for x in objects:
        register(x, ())
        frontier.append((x, ()))
    while frontier:
        at, word = frontier.pop(0)
        src = word_src(word, at)
        for g, (gs, gt) in generators.items():
            if gt != src:
                continue
            nw = rewrite(word + (g,))
            tgt_of_nw = at if not nw else generators[nw[0]][1]
            key = (tgt_of_nw, nw)
            if key not in words:
                register(tgt_of_nw, nw)
                frontier.append(key)
                if len(words) > max_morphisms:
                    raise InvariantError(f"{name}: generated category exceeds bound")

    morphs = tuple(sorted(names))
    src = {m: word_src(names[m][1], names[m][0]) for m in morphs}
    tgt = {m: names[m][0] for m in morphs}
    ids = {x: words[(x, ())] for x in objects}
    comp: dict[tuple[str, str], str] = {}
    for g in morphs:
        for f in morphs:
            if src[g] != tgt[f]:
                continue
            gw, fw = names[g][1], names[f][1]
            nw = rewrite(gw + fw)
            at = tgt[g]
            key = (at, nw)
            if key not in words:
                raise InvariantError(f"{name}: relations do not close composition")
            comp[(g, f)] = words[key]
    return FiniteCategory(name, tuple(objects), morphs, src, tgt, ids, comp)


def oracle_discrete_category(name: str, objects: list[str]) -> FiniteCategory:
    ids = {x: f"id_{x}" for x in objects}
    morphs = tuple(ids[x] for x in objects)
    return FiniteCategory(
        name,
        tuple(objects),
        morphs,
        {ids[x]: x for x in objects},
        {ids[x]: x for x in objects},
        ids,
        {(ids[x], ids[x]): ids[x] for x in objects},
    )


def oracle_to_category(P: Poset) -> FiniteCategory:
    """The thin category: one arrow x -> y exactly when x <= y."""
    morphs = tuple(_arrow_name(x, y) for x, y in sorted(P.rel))
    src = {_arrow_name(x, y): x for x, y in P.rel}
    tgt = {_arrow_name(x, y): y for x, y in P.rel}
    ids = {x: _arrow_name(x, x) for x in P.elements}
    comp = {}
    for g in morphs:
        for f in morphs:
            if src[g] == tgt[f]:
                comp[(g, f)] = _arrow_name(src[f], tgt[g])
    return FiniteCategory(f"cat({P.name})", P.elements, morphs, src, tgt, ids, comp)


def oracle_inserter(F: cats.FunctorData, G: cats.FunctorData, name: str | None = None) -> InserterResult:
    """Build the category of pairs (A, r: FA -> GA) over the source of F."""
    _check_parallel(F, G)
    base, target = F.source, F.target
    pairs: dict[str, tuple[str, str]] = {}
    objects: list[str] = []
    for x in base.objects:
        for r in target.hom(F.obj_map[x], G.obj_map[x]):
            lab = pair_label(x, r)
            pairs[lab] = (x, r)
            objects.append(lab)
    morphisms: list[str] = []
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    base_of: dict[str, str] = {}
    for p in objects:
        x, r = pairs[p]
        for q in objects:
            y, s = pairs[q]
            for d in base.hom(x, y):
                if target.comp[(G.mor_map[d], r)] == target.comp[(s, F.mor_map[d])]:
                    m = _mor_label(d, p, q)
                    morphisms.append(m)
                    src[m] = p
                    tgt[m] = q
                    base_of[m] = d
    ids = {p: _mor_label(base.ids[pairs[p][0]], p, p) for p in objects}
    comp: dict[tuple[str, str], str] = {}
    for after in morphisms:
        for first in morphisms:
            if src[after] != tgt[first]:
                continue
            d = base.comp[(base_of[after], base_of[first])]
            comp[(after, first)] = _mor_label(d, src[first], tgt[after])
    cat = cats.FiniteCategory(
        name or f"Ins({base.name},{target.name})",
        tuple(objects), tuple(morphisms), src, tgt, ids, comp,
    )
    forgetful = cats.FunctorData(cat, base, {p: pairs[p][0] for p in objects}, base_of)
    inserted = cats.NatTransData(
        cats.compose_functors(F, forgetful),
        cats.compose_functors(G, forgetful),
        {p: pairs[p][1] for p in objects},
    )
    return InserterResult(cat, forgetful, inserted, pairs, F, G)


def oracle_mediating_functor(ins: InserterResult, V: cats.FunctorData, alpha: cats.NatTransData) -> cats.FunctorData:
    """The unique functor W into the pair category with U o W = V and the
    inserted transformation restricting to alpha along W."""
    F, G = ins.lhs_functor, ins.rhs_functor
    if not cats.functors_equal(alpha.source, cats.compose_functors(F, V)):
        raise SourceMismatch("transformation must start at the first functor composed with the cone")
    if not cats.functors_equal(alpha.target, cats.compose_functors(G, V)):
        raise SourceMismatch("transformation must end at the second functor composed with the cone")
    shape = V.source
    obj_map = {x: pair_label(V.obj_map[x], alpha.at(x)) for x in shape.objects}
    mor_map = {
        m: _mor_label(V.mor_map[m], obj_map[shape.src[m]], obj_map[shape.tgt[m]])
        for m in shape.morphisms
    }
    return cats.FunctorData(shape, ins.category, obj_map, mor_map)


def oracle_concrete_functor(src_ins: InserterResult, tgt_ins: InserterResult, obj_map: dict[str, str]) -> cats.FunctorData:
    """A functor between pair categories acting as the identity on base
    arrows; the object map decides everything else."""
    C = src_ins.category
    mor_map = {
        m: _mor_label(src_ins.forgetful.mor_map[m], obj_map[C.src[m]], obj_map[C.tgt[m]])
        for m in C.morphisms
    }
    return cats.FunctorData(C, tgt_ins.category, obj_map, mor_map)


def oracle_shift_left(F: cats.FunctorData, G: cats.FunctorData, adj: cats.AdjunctionData) -> tuple[cats.FunctorData, cats.FunctorData]:
    """For H left adjoint to G, the pair category for (F, G) is concretely
    isomorphic to the one for (H o F, identity); returns the isomorphism pair
    (there, back)."""
    _check_parallel(F, G)
    if not cats.functors_equal(adj.right, G):
        raise AdjunctionInvalid("the adjunction's right side must be the second functor")
    H = adj.left
    base, target = F.source, F.target
    ins_fg = oracle_inserter(F, G)
    ins_shift = oracle_inserter(cats.compose_functors(H, F), cats.identity_functor(base))
    there_obj = {}
    for p, (x, r) in ins_fg.pairs.items():
        there_obj[p] = pair_label(x, base.comp[(adj.counit.at(x), H.mor_map[r])])
    there = oracle_concrete_functor(ins_fg, ins_shift, there_obj)
    back_obj = {}
    for p, (x, r) in ins_shift.pairs.items():
        eta = adj.unit.at(F.obj_map[x])
        back_obj[p] = pair_label(x, target.comp[(G.mor_map[r], eta)])
    back = oracle_concrete_functor(ins_shift, ins_fg, back_obj)
    return there, back


def oracle_shift_right(F: cats.FunctorData, G: cats.FunctorData, adj: cats.AdjunctionData) -> tuple[cats.FunctorData, cats.FunctorData]:
    """For H right adjoint to F, the pair category for (F, G) is concretely
    isomorphic to the one for (identity, H o G)."""
    _check_parallel(F, G)
    if not cats.functors_equal(adj.left, F):
        raise AdjunctionInvalid("the adjunction's left side must be the first functor")
    H = adj.right
    base, target = F.source, F.target
    ins_fg = oracle_inserter(F, G)
    ins_shift = oracle_inserter(cats.identity_functor(base), cats.compose_functors(H, G))
    there_obj = {}
    for p, (x, r) in ins_fg.pairs.items():
        there_obj[p] = pair_label(x, base.comp[(H.mor_map[r], adj.unit.at(x))])
    there = oracle_concrete_functor(ins_fg, ins_shift, there_obj)
    back_obj = {}
    for p, (x, s) in ins_shift.pairs.items():
        eps = adj.counit.at(G.obj_map[x])
        back_obj[p] = pair_label(x, target.comp[(eps, F.mor_map[s])])
    back = oracle_concrete_functor(ins_shift, ins_fg, back_obj)
    return there, back


def oracle_free_universal_map(free: FreeFAlgebra, target: fs.FinFunction, gen_map: fs.FinFunction, exhaustive: bool = False) -> fs.FinFunction:
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
    values: dict[str, str] = {}
    for t in free.carrier.elements:
        if t in free.recipes:
            cons, args = free.recipes[t]
            values[t] = target(functor.term(cons, tuple(values[a] for a in args)))
        else:
            values[t] = gen_map(t)
    h = fs.fin_function(free.carrier, B, values)
    for e in free.applied.elements:
        if e in free.frontier:
            continue
        cons, args = free.recipes.get(e, (None, None))
        if cons is None:
            # the functor image of a carrier element that is itself a
            # generator only happens for the identity polynomial
            mapped = values[e]
        else:
            mapped = target(functor.term(cons, tuple(values[a] for a in args)))
        if values[free.structure[e]] != mapped:
            raise InvariantError("constructed map fails the homomorphism law")
    if exhaustive:
        count = 0
        for combo in itertools.product(B.elements, repeat=len(free.carrier)):
            cand = dict(zip(free.carrier.elements, combo))
            if any(cand[g] != gen_map(g) for g in free.generators.elements):
                continue
            good = True
            for e in free.applied.elements:
                if e in free.frontier:
                    continue
                cons, args = free.recipes.get(e, ("", (e,)))
                if cand[free.structure[e]] != target(functor.term(cons, tuple(cand[a] for a in args))):
                    good = False
                    break
            if good:
                count += 1
        if count != 1:
            raise InvariantError(f"universal map is not unique: {count} candidates")
    return h


def oracle_family_build(self, name: str) -> cats.FiniteCategory:
    """_FamilyCatBuilder.build, with the builder passed as self."""
    objects = tuple(self.objects)
    morphs = tuple(self.entries)
    src = {m: self.entries[m][0] for m in morphs}
    tgt = {m: self.entries[m][1] for m in morphs}
    ids = {x: self.identity(x) for x in objects}
    comp = {}
    for after in morphs:
        for first in morphs:
            if src[after] != tgt[first]:
                continue
            comp[(after, first)] = self.rev[self.compose_key(after, first)]
    return cats.FiniteCategory(name, objects, morphs, src, tgt, ids, comp)


def oracle_subcategory_inclusion(
    C: cats.FiniteCategory, objs: list[str], morphs: list[str]
) -> cats.FunctorData:
    oset, mset = set(objs), set(morphs)
    for x in objs:
        if C.ids[x] not in mset:
            raise InvariantError("subcategory misses an identity")
    for g in morphs:
        for f in morphs:
            if C.src[g] == C.tgt[f] and C.comp[(g, f)] not in mset:
                raise InvariantError("subcategory not closed under composition")
    sub = cats.FiniteCategory(
        f"{C.name}|sub",
        tuple(objs),
        tuple(morphs),
        {m: C.src[m] for m in morphs},
        {m: C.tgt[m] for m in morphs},
        {x: C.ids[x] for x in objs},
        {
            (g, f): C.comp[(g, f)]
            for g in morphs
            for f in morphs
            if C.src[g] == C.tgt[f]
        },
    )
    return cats.FunctorData(sub, C, {x: x for x in objs}, {m: m for m in morphs})


class OracleCatProduct:
    def __init__(self, obj, projections, pair_obj, pair_mor):
        self.obj = obj
        self.projections = projections
        self._pair_obj = pair_obj
        self._pair_mor = pair_mor

    def tuple_of(self, legs):
        dom = legs[0].source
        obj_map = {
            x: self._pair_obj[tuple(leg.obj_map[x] for leg in legs)] for x in dom.objects
        }
        mor_map = {
            m: self._pair_mor[tuple(leg.mor_map[m] for leg in legs)]
            for m in dom.morphisms
        }
        return cats.FunctorData(dom, self.obj, obj_map, mor_map)


def oracle_cat_product(objs: list[cats.FiniteCategory]) -> OracleCatProduct:
    obj_combos = list(itertools.product(*(C.objects for C in objs)))
    mor_combos = list(itertools.product(*(C.morphisms for C in objs)))
    pair_obj = {c: fs.tuple_label(c) for c in obj_combos}
    pair_mor = {c: fs.tuple_label(c) for c in mor_combos}
    src = {
        pair_mor[c]: pair_obj[tuple(objs[i].src[c[i]] for i in range(len(objs)))]
        for c in mor_combos
    }
    tgt = {
        pair_mor[c]: pair_obj[tuple(objs[i].tgt[c[i]] for i in range(len(objs)))]
        for c in mor_combos
    }
    ids = {
        pair_obj[c]: pair_mor[tuple(objs[i].ids[c[i]] for i in range(len(objs)))]
        for c in obj_combos
    }
    comp = {}
    for g in mor_combos:
        for f in mor_combos:
            if all(objs[i].src[g[i]] == objs[i].tgt[f[i]] for i in range(len(objs))):
                comp[(pair_mor[g], pair_mor[f])] = pair_mor[
                    tuple(objs[i].comp[(g[i], f[i])] for i in range(len(objs)))
                ]
    P = cats.FiniteCategory(
        fs.tuple_label([C.name for C in objs]),
        tuple(pair_obj[c] for c in obj_combos),
        tuple(pair_mor[c] for c in mor_combos),
        src,
        tgt,
        ids,
        comp,
    )
    projections = tuple(
        cats.FunctorData(
            P,
            objs[i],
            {pair_obj[c]: c[i] for c in obj_combos},
            {pair_mor[c]: c[i] for c in mor_combos},
        )
        for i in range(len(objs))
    )
    return OracleCatProduct(P, projections, pair_obj, pair_mor)


def oracle_sigalg_direct(sig: SortedSignature, base_b, base_cat: cats.FiniteCategory,
                         direct_cap: int = 4000) -> cats.FiniteCategory:
    """The SigAlg category over the family base built by base_b."""
    sort_index = {s: i for i, s in enumerate(sig.sorts)}
    families = base_b.objects

    def shape_src(comps):
        return tuple(
            _word_product(tuple(comps[sort_index[s]] for s in word))
            for _, word, _ in sig.ops
        )

    # direct side: objects are (family, one output table per operation)
    alg_objects: list[str] = []
    alg_content: dict[str, tuple[str, tuple]] = {}
    content_index: dict[tuple[str, tuple], str] = {}
    for xn, comps in families.items():
        pools = []
        for (_, word, res), dom_obj in zip(sig.ops, shape_src(comps)):
            res_obj = comps[sort_index[res]]
            pools.append(list(itertools.product(res_obj.elements, repeat=len(dom_obj))))
        for k, tables in enumerate(itertools.product(*pools)):
            name = f"{xn}!{k}"
            alg_objects.append(name)
            alg_content[name] = (xn, tuple(tables))
            content_index[(xn, tuple(tables))] = name
            if len(alg_objects) > direct_cap:
                raise BoundTooLarge(f"more than {direct_cap} algebras at this bound")

    alg_morphs: list[str] = []
    asrc: dict[str, str] = {}
    atgt: dict[str, str] = {}
    abase: dict[str, str] = {}
    for d in base_cat.morphisms:
        xn, yn, tables = base_b.entries[d]
        xcomps, ycomps = families[xn], families[yn]
        for an in alg_objects:
            if alg_content[an][0] != xn:
                continue
            for bn in alg_objects:
                if alg_content[bn][0] != yn:
                    continue
                if _is_family_hom(sig, sort_index, xcomps, ycomps,
                                  alg_content[an][1], alg_content[bn][1], tables):
                    m = f"{an}>{bn}|{d}"
                    alg_morphs.append(m)
                    asrc[m], atgt[m], abase[m] = an, bn, d
    aids = {an: f"{an}>{an}|{base_cat.ids[alg_content[an][0]]}" for an in alg_objects}
    acomp = {}
    for after in alg_morphs:
        for first in alg_morphs:
            if asrc[after] != atgt[first]:
                continue
            d = base_cat.comp[(abase[after], abase[first])]
            acomp[(after, first)] = f"{asrc[first]}>{atgt[after]}|{d}"
    direct_cat = cats.FiniteCategory(
        "SigAlg", tuple(alg_objects), tuple(alg_morphs), asrc, atgt, aids, acomp)
    return direct_cat
