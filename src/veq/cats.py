"""Finite categories presented by explicit tables, plus functors, natural
transformations, and adjunctions between them. Everything validates
exhaustively on construction; these stay small (tens of morphisms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AdjunctionInvalid, BoundTooLarge, InvariantError
from .finset import Law, search_tables, table_equation


@dataclass(frozen=True)
class FiniteCategory:
    """Objects and morphisms are labels; composition is a finite table.

    comp maps (g, f) -> g o f for every composable pair (source of g equals
    target of f). Identities are given per object.
    """

    name: str
    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: dict[str, str] = field(compare=False)
    tgt: dict[str, str] = field(compare=False)
    ids: dict[str, str] = field(compare=False)
    comp: dict[tuple[str, str], str] = field(compare=False)
    # (source, target) -> its arrows in order, derived once on construction
    _homs: dict[tuple[str, str], tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise InvariantError(f"{self.name}: duplicate objects")
        if len(set(self.morphisms)) != len(self.morphisms):
            raise InvariantError(f"{self.name}: duplicate morphisms")
        for m in self.morphisms:
            if self.src.get(m) not in self.objects or self.tgt.get(m) not in self.objects:
                raise InvariantError(f"{self.name}: morphism {m} has bad endpoints")
        for x in self.objects:
            i = self.ids.get(x)
            if i not in self.morphisms or self.src[i] != x or self.tgt[i] != x:
                raise InvariantError(f"{self.name}: bad identity at {x}")
        # arrows by target, in order, so only composable pairs and triples are visited
        into: dict[str, list[str]] = {x: [] for x in self.objects}
        homs: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            into[self.tgt[m]].append(m)
            homs.setdefault((self.src[m], self.tgt[m]), []).append(m)
        object.__setattr__(self, "_homs", {k: tuple(v) for k, v in homs.items()})
        comp, src, tgt = self.comp, self.src, self.tgt
        # every bad table entry at its (g, f) place in morphism order; the
        # first is raised: an entry for a pair that does not compose, ...
        order = {m: i for i, m in enumerate(self.morphisms)}
        bad = [(order[g], order[f], f"composition table mismatch at ({g}, {f})")
               for g, f in comp if g in order and f in order and src[g] != tgt[f]]
        # ... and a composable pair that is missing or composes wrongly
        for i, g in enumerate(self.morphisms):
            for f in into[src[g]]:
                try:
                    gf = comp[(g, f)]
                except KeyError:
                    bad.append((i, order[f], f"composition table mismatch at ({g}, {f})"))
                    continue
                if gf not in order:
                    bad.append((i, order[f], f"composite {gf} unknown"))
                elif src[gf] != src[f] or tgt[gf] != tgt[g]:
                    bad.append((i, order[f], f"composite ({g}, {f}) has wrong endpoints"))
        if bad:
            raise InvariantError(f"{self.name}: {min(bad)[2]}")
        for f in self.morphisms:
            if comp[(f, self.ids[src[f]])] != f:
                raise InvariantError(f"{self.name}: right identity fails at {f}")
            if comp[(self.ids[tgt[f]], f)] != f:
                raise InvariantError(f"{self.name}: left identity fails at {f}")
        for h in self.morphisms:
            for g in into[src[h]]:
                hg = comp[(h, g)]
                for f in into[src[g]]:
                    if comp[(hg, f)] != comp[(h, comp[(g, f)])]:
                        raise InvariantError(
                            f"{self.name}: associativity fails at ({h}, {g}, {f})"
                        )

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._homs.get((x, y), ())

    def is_iso(self, f: str) -> bool:
        x, y = self.src[f], self.tgt[f]
        return any(
            self.comp[(g, f)] == self.ids[x] and self.comp[(f, g)] == self.ids[y]
            for g in self.hom(y, x)
        )


def category_from_generators(
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

    def compose(g: str, f: str) -> str:
        key = (names[g][0], rewrite(names[g][1] + names[f][1]))
        if key not in words:
            raise InvariantError(f"{name}: relations do not close composition")
        return words[key]

    return tabulate_category(
        name,
        objects,
        {m: (word_src(names[m][1], names[m][0]), names[m][0]) for m in sorted(names)},
        {x: words[(x, ())] for x in objects},
        compose,
    )


def discrete_category(name: str, objects: list[str]) -> FiniteCategory:
    ids = {x: f"id_{x}" for x in objects}
    return tabulate_category(
        name, objects, {ids[x]: (x, x) for x in objects}, ids, lambda g, f: g
    )


# the most composable pairs of arrows tabulate_category lays out; the largest
# category the test suite builds has 6404
_COMPOSABLE_CAP = 200_000


def tabulate_category(
    name: str,
    objects,
    arrows: dict[str, tuple[str, str]],
    ids: dict[str, str],
    compose,
) -> FiniteCategory:
    """The category whose arrows map each label to its (source, target), in
    order, with ids giving each object's identity and compose(g, f) the
    label of g o f for every composable pair. It counts the composable
    pairs first and raises BoundTooLarge past _COMPOSABLE_CAP of them; the
    constructor validates the result."""
    src = {m: s for m, (s, _) in arrows.items()}
    tgt = {m: t for m, (_, t) in arrows.items()}
    into: dict[str, list[str]] = {}  # arrows by target, in order
    for m, t in tgt.items():
        into.setdefault(t, []).append(m)
    pairs = sum(len(into.get(src[g], ())) for g in arrows)
    if pairs > _COMPOSABLE_CAP:
        raise BoundTooLarge(
            f"{name}: {pairs} composable arrow pairs exceed _COMPOSABLE_CAP ({_COMPOSABLE_CAP})"
        )
    comp = {(g, f): compose(g, f) for g in arrows for f in into.get(src[g], ())}
    return FiniteCategory(name, tuple(objects), tuple(arrows), src, tgt, ids, comp)


@dataclass(frozen=True)
class FunctorData:
    """A functor between finite categories, as object and morphism tables."""

    source: FiniteCategory
    target: FiniteCategory
    obj_map: dict[str, str] = field(compare=False)
    mor_map: dict[str, str] = field(compare=False)

    def __post_init__(self):
        C, D = self.source, self.target
        for x in C.objects:
            if self.obj_map.get(x) not in D.objects:
                raise InvariantError(f"functor: object {x} unmapped or mapped outside")
        for m in C.morphisms:
            fm = self.mor_map.get(m)
            if fm not in D.morphisms:
                raise InvariantError(f"functor: morphism {m} unmapped or mapped outside")
            if D.src[fm] != self.obj_map[C.src[m]] or D.tgt[fm] != self.obj_map[C.tgt[m]]:
                raise InvariantError(f"functor: endpoints broken at {m}")
        for x in C.objects:
            if self.mor_map[C.ids[x]] != D.ids[self.obj_map[x]]:
                raise InvariantError(f"functor: identity broken at {x}")
        F = self.mor_map
        for (g, f), gf in C.comp.items():
            if F[gf] != D.comp[(F[g], F[f])]:
                raise InvariantError(f"functor: composition broken at ({g}, {f})")


def identity_functor(C: FiniteCategory) -> FunctorData:
    return FunctorData(C, C, {x: x for x in C.objects}, {m: m for m in C.morphisms})


def compose_functors(G: FunctorData, F: FunctorData) -> FunctorData:
    if F.target is not G.source and F.target != G.source:
        raise InvariantError("functor composition endpoints mismatch")
    return FunctorData(
        F.source,
        G.target,
        {x: G.obj_map[F.obj_map[x]] for x in F.source.objects},
        {m: G.mor_map[F.mor_map[m]] for m in F.source.morphisms},
    )


def functors_equal(F: FunctorData, G: FunctorData) -> bool:
    return (
        F.source == G.source
        and F.target == G.target
        and F.obj_map == G.obj_map
        and F.mor_map == G.mor_map
    )


def cells(C: FiniteCategory) -> tuple:
    """C's objects, then its arrows, tagged apart as labels may collide."""
    return tuple([("obj", x) for x in C.objects] + [("arr", m) for m in C.morphisms])


def functor_cells(F: FunctorData) -> tuple:
    """F's table over cells(F.source), in cells(F.target)."""
    return tuple([("obj", F.obj_map[x]) for x in F.source.objects]
                 + [("arr", F.mor_map[m]) for m in F.source.morphisms])


def functor_of(C: FiniteCategory, D: FiniteCategory, table) -> FunctorData:
    """The functor C -> D whose table over cells(C) is table."""
    labels = [label for _, label in table]
    return FunctorData(C, D, dict(zip(C.objects, labels)),
                       dict(zip(C.morphisms, labels[len(C.objects):])))


def functor_checks(C: FiniteCategory, D: FiniteCategory) -> Law:
    """The functor laws C -> D for search_tables over cells(C), with values
    cells(D): identities, then composites, with D's ids and comp as fixed
    tables (a hole, no value, where undefined). Endpoints need no equation:
    F(m) = F(m) o F(id) is defined only where they agree."""
    values = cells(D)
    code = {v: i for i, v in enumerate(values)}
    n, at = len(values), {v: i for i, v in enumerate(cells(C))}
    ids, comp = [n] * n, [n] * (n * n)
    for x in D.objects:
        ids[code["obj", x]] = code["arr", D.ids[x]]
    for (g, f), gf in D.comp.items():
        comp[code["arr", g] * n + code["arr", f]] = code["arr", gf]
    instances = [table_equation([at["obj", x]], len(at), at["arr", C.ids[x]]) for x in C.objects]
    instances += (table_equation([at["arr", g], at["arr", f]], len(at) + n, at["arr", gf])
                  for (g, f), gf in C.comp.items())
    return Law(values, tuple(ids + comp), tuple(instances))


def all_functors(C: FiniteCategory, D: FiniteCategory) -> list[FunctorData]:
    """Every functor C -> D in table order, by the table search."""
    values, k = cells(D), len(D.objects)
    pools = [values[:k]] * len(C.objects) + [values[k:]] * len(C.morphisms)
    return [functor_of(C, D, t) for t in search_tables(pools, functor_checks(C, D))]


@dataclass(frozen=True)
class NatTransData:
    """A natural transformation F => G as a component table."""

    source: FunctorData
    target: FunctorData
    components: dict[str, str] = field(compare=False)

    def __post_init__(self):
        F, G = self.source, self.target
        if F.source != G.source or F.target != G.target:
            raise InvariantError("natural transformation endpoints mismatch")
        C, D = F.source, F.target
        for x in C.objects:
            c = self.components.get(x)
            if c not in D.morphisms:
                raise InvariantError(f"nat trans: missing component at {x}")
            if D.src[c] != F.obj_map[x] or D.tgt[c] != G.obj_map[x]:
                raise InvariantError(f"nat trans: component endpoints wrong at {x}")
        for m in C.morphisms:
            x, y = C.src[m], C.tgt[m]
            left = D.comp[(self.components[y], F.mor_map[m])]
            right = D.comp[(G.mor_map[m], self.components[x])]
            if left != right:
                raise InvariantError(f"nat trans: naturality square fails at {m}")

    def at(self, x: str) -> str:
        return self.components[x]


@dataclass(frozen=True)
class AdjunctionData:
    """left -| right, presented by unit and counit; triangle laws checked."""

    left: FunctorData
    right: FunctorData
    unit: NatTransData
    counit: NatTransData

    def __post_init__(self):
        L, R = self.left, self.right
        if L.source != R.target or L.target != R.source:
            raise AdjunctionInvalid("adjoint pair endpoints mismatch")
        C, D = L.source, L.target
        if not functors_equal(self.unit.source, identity_functor(C)):
            raise AdjunctionInvalid("unit must start at the identity functor")
        if not functors_equal(self.unit.target, compose_functors(R, L)):
            raise AdjunctionInvalid("unit must land in right o left")
        if not functors_equal(self.counit.source, compose_functors(L, R)):
            raise AdjunctionInvalid("counit must start at left o right")
        if not functors_equal(self.counit.target, identity_functor(D)):
            raise AdjunctionInvalid("counit must land at the identity functor")
        for x in C.objects:
            lx = L.obj_map[x]
            tri = D.comp[(self.counit.at(lx), L.mor_map[self.unit.at(x)])]
            if tri != D.ids[lx]:
                raise AdjunctionInvalid(f"triangle law (left) fails at {x}")
        for y in D.objects:
            ry = R.obj_map[y]
            tri = C.comp[(R.mor_map[self.counit.at(y)], self.unit.at(ry))]
            if tri != C.ids[ry]:
                raise AdjunctionInvalid(f"triangle law (right) fails at {y}")
