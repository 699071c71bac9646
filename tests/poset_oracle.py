"""The earlier FinPoset quotient and coproduct legs, kept as an oracle.

veq.instances now collapses a poset with one Warshall closure and one merge
of the order-cycles among the classes, and builds coproduct legs from the
tagged labels. These are the earlier versions, unchanged apart from their
names: the quotient re-runs the closure after every round of merges until
none is left, and the legs are read off the coproduct carrier by offset.
"""

from veq import finset as fs
from veq import posets as po


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
