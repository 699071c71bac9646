"""Finite categories presented by explicit tables, plus functors, natural
transformations, and adjunctions between them. Everything validates
exhaustively on construction; these stay small (tens of morphisms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AdjunctionInvalid, InvariantError
from .finset import search_tables


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
        for g in self.morphisms:
            for f in self.morphisms:
                composable = self.src[g] == self.tgt[f]
                if composable != ((g, f) in self.comp):
                    raise InvariantError(
                        f"{self.name}: composition table mismatch at ({g}, {f})"
                    )
                if composable:
                    gf = self.comp[(g, f)]
                    if gf not in self.morphisms:
                        raise InvariantError(f"{self.name}: composite {gf} unknown")
                    if self.src[gf] != self.src[f] or self.tgt[gf] != self.tgt[g]:
                        raise InvariantError(
                            f"{self.name}: composite ({g}, {f}) has wrong endpoints"
                        )
        for f in self.morphisms:
            if self.comp[(f, self.ids[self.src[f]])] != f:
                raise InvariantError(f"{self.name}: right identity fails at {f}")
            if self.comp[(self.ids[self.tgt[f]], f)] != f:
                raise InvariantError(f"{self.name}: left identity fails at {f}")
        # arrows by target, in order, so only composable triples are visited
        into: dict[str, list[str]] = {x: [] for x in self.objects}
        homs: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            into[self.tgt[m]].append(m)
            homs.setdefault((self.src[m], self.tgt[m]), []).append(m)
        object.__setattr__(self, "_homs", {k: tuple(v) for k, v in homs.items()})
        comp = self.comp
        for h in self.morphisms:
            for g in into[self.src[h]]:
                hg = comp[(h, g)]
                for f in into[self.src[g]]:
                    if comp[(hg, f)] != comp[(h, comp[(g, f)])]:
                        raise InvariantError(
                            f"{self.name}: associativity fails at ({h}, {g}, {f})"
                        )

    def compose(self, g: str, f: str) -> str:
        return self.comp[(g, f)]

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


def tabulate_category(
    name: str,
    objects,
    arrows: dict[str, tuple[str, str]],
    ids: dict[str, str],
    compose,
) -> FiniteCategory:
    """The category whose arrows map each label to its (source, target), in
    order, with ids giving each object's identity and compose(g, f) the
    label of g o f for every composable pair. The constructor validates
    the result."""
    src = {m: s for m, (s, _) in arrows.items()}
    tgt = {m: t for m, (_, t) in arrows.items()}
    comp = {(g, f): compose(g, f) for g in arrows for f in arrows if src[g] == tgt[f]}
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


def functor_checks(C: FiniteCategory, D: FiniteCategory) -> list[list]:
    """The functor laws C -> D for search_tables over C's objects and then
    its arrows, indexed apart since labels may collide: each arrow's
    endpoints, then identities, then composites."""
    ob = {x: i for i, x in enumerate(C.objects)}
    ar = {m: len(ob) + j for j, m in enumerate(C.morphisms)}
    checks: list[list] = [[] for _ in range(len(ob) + len(ar))]
    for m, p in ar.items():
        s, t = ob[C.src[m]], ob[C.tgt[m]]
        checks[p].append(lambda F, p=p, s=s, t=t: D.src[F[p]] == F[s] and D.tgt[F[p]] == F[t])
    for x, i in ob.items():
        p = ar[C.ids[x]]
        checks[p].append(lambda F, p=p, i=i: F[p] == D.ids[F[i]])
    for (g, f), gf in C.comp.items():
        pg, pf, pgf = ar[g], ar[f], ar[gf]
        checks[max(pg, pf, pgf)].append(
            lambda F, pg=pg, pf=pf, pgf=pgf: F[pgf] == D.comp[(F[pg], F[pf])])
    return checks


def all_functors(C: FiniteCategory, D: FiniteCategory) -> list[FunctorData]:
    """Every functor C -> D in table order, by the table search."""
    n = len(C.objects)
    return [
        FunctorData(C, D, dict(zip(C.objects, t)), dict(zip(C.morphisms, t[n:])))
        for t in search_tables([D.objects] * n + [D.morphisms] * len(C.morphisms),
                               functor_checks(C, D))
    ]


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
