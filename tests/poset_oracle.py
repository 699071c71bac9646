"""The earlier FinPoset quotient, product, coproduct and coproduct legs
and the brute monotone-map enumeration, kept as an oracle.

veq.instances now collapses a poset with one Warshall closure and one merge
of the order-cycles among the classes, and builds coproduct legs from the
tagged labels. These are the earlier versions, unchanged apart from their
names: the quotient re-runs the closure after every round of merges until
none is left, and the legs are read off the coproduct carrier by offset.
The product and coproduct labelled their own tuples and tags, and their
tupling and cotupling checked no leg; veq now builds both with
finset.product_of and finset.coproduct_of.
The enumeration filters every table of itertools.product by the order
pairs; veq now finds them with finset.search_tables under
posets.order_checks.

`antichain`, `random_poset` and `random_galois_instance` build the poset
inputs of the tests; the last draws its maps from FinPosetCat().hom.
"""

import itertools
import random
from dataclasses import dataclass

from veq import finset as fs
from veq import posets as po
from veq.instances import FinPosetCat


def oracle_poset_collapse(P: po.Poset, pairs) -> po.MonotoneMap:
    """Quotient of P identifying the pairs, then repeatedly merging any
    order-cycles among classes until the induced relation is a partial
    order. Returns the canonical surjection.
    """
    uf = fs._UnionFind(P.elements)
    for a, b in pairs:
        uf.union(a, b)
    while True:
        classes: dict[str, list[str]] = {}
        for x in P.elements:
            classes.setdefault(uf.find(x), []).append(x)
        roots = list(classes)
        reach = {r: {r} for r in roots}
        edges = {(uf.find(a), uf.find(b)) for a, b in P.rel}
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                for r in roots:
                    if a in reach[r] and b not in reach[r]:
                        reach[r].add(b)
                        changed = True
        merged = False
        for r in roots:
            for s in reach[r]:
                if s != r and r in reach[s] and uf.find(r) != uf.find(s):
                    uf.union(r, s)
                    merged = True
        if not merged:
            rep = {
                root: min(members, key=P.elements.index)
                for root, members in classes.items()
            }
            order = sorted(rep.values(), key=P.elements.index)
            rel = frozenset((rep[a], rep[b]) for a in roots for b in reach[a])
            Q = po.Poset(f"{P.name}/~", tuple(order), rel)
            return po.MonotoneMap(P, Q, tuple(rep[uf.find(x)] for x in P.elements))


@dataclass(frozen=True)
class PosetProductResult:
    obj: po.Poset
    projections: tuple[po.MonotoneMap, ...]

    def tuple_of(self, legs):
        dom = legs[0].dom
        table = tuple(fs.tuple_label([leg(x) for leg in legs]) for x in dom.elements)
        return po.MonotoneMap(dom, self.obj, table)


def oracle_poset_product(objs: list[po.Poset]) -> PosetProductResult:
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
    return PosetProductResult(obj, projections)


@dataclass(frozen=True)
class PosetCoproductResult:
    obj: po.Poset
    coprojections: tuple[po.MonotoneMap, ...]

    def cotuple_of(self, legs):
        table = tuple(v for leg in legs for v in leg.table)
        return po.MonotoneMap(self.obj, legs[0].cod, table)


def oracle_poset_coproduct(objs: list[po.Poset]) -> PosetCoproductResult:
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
    return PosetCoproductResult(obj, coprojections)


def oracle_coprojections(objs: list[po.Poset], obj: po.Poset) -> tuple[po.MonotoneMap, ...]:
    """The legs into the coproduct carrier obj, read off by offset."""
    coprojections = []
    offset = 0
    for P in objs:
        coprojections.append(
            po.MonotoneMap(P, obj, tuple(obj.elements[offset + k] for k in range(len(P))))
        )
        offset += len(P)
    return tuple(coprojections)


def oracle_all_monotone_maps(P: po.Poset, Q: po.Poset) -> list[po.MonotoneMap]:
    out = []
    for table in itertools.product(Q.elements, repeat=len(P.elements)):
        cand = dict(zip(P.elements, table))
        if all(Q.leq(cand[x], cand[y]) for x, y in P.rel):
            out.append(po.MonotoneMap(P, Q, table))
    return out


def antichain(name: str, labels) -> po.Poset:
    return po.poset_from_cover(name, tuple(labels), [])


def random_poset(rng: random.Random, size: int, name: str = "P") -> po.Poset:
    """Random partial order: random DAG on a shuffled carrier, closed up."""
    labels = [f"p{i}" for i in range(size)]
    order = labels[:]
    rng.shuffle(order)
    covers = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                covers.append((order[i], order[j]))
    return po.poset_from_cover(name, labels, covers)


def random_galois_instance(rng: random.Random, max_size: int = 4):
    """A random (A, B, G: A -> B monotone, H: B -> A) with H lower adjoint of
    G. Retries until G has a lower adjoint; identity on a chain as fallback.
    """
    for _ in range(60):
        A = random_poset(rng, rng.randint(1, max_size), "A")
        B = random_poset(rng, rng.randint(1, max_size), "B")
        maps = FinPosetCat().hom(A, B)
        rng.shuffle(maps)
        for G in maps[:30]:
            H = po.left_adjoint_of(G)
            if H is not None and po.is_galois_connection(H, G):
                return A, B, G, H
    A = po.chain("A", ["p0", "p1"])
    G = po.identity_map(A)
    return A, A, G, G
