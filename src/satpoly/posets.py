"""Weighted posets, their antichain and ideal polynomials, and both
antichain/ideal correspondences.

A bipartite graph turns into a two-level poset (x below y iff x sits in
the first part and the edge xy exists), under which antichains are exactly
the independent sets.  On finite posets the map sending an ideal to its
maximal elements is a bijection onto antichains, with inverse the downward
closure, so the two counts always agree.  The weighted correspondence used
on the two-level posets coming out of the double-incidence construction is
different: keep the top part, complement within the bottom part.  When the
bottom part carries only weight -1 and has even size, that map preserves
weights, which forces the two polynomials themselves to coincide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from ._bits import iter_bits
from .errors import BoundExceeded
from .graphs import (
    Var,
    Weight,
    WeightedGraph,
    _num_symbols,
    _weight_parts,
    format_weight,
    read_weighted_file,
    two_coloring,
)
from .polynomial import MultilinearPoly

MAX_POSET_POLY = 25


class Poset:
    """Finite strict poset; the order relation is stored transitively closed.

    levels, when set, is a pair (V1, V2) with every relation going from V1
    up to V2.  Treat instances as immutable.
    """

    __slots__ = ("elements", "less", "levels")

    def __init__(
        self,
        elements: dict[int, Weight],
        relations: Iterable[tuple[int, int]],
        levels: Optional[tuple[frozenset[int], frozenset[int]]] = None,
    ):
        self.elements = dict(elements)
        rel = set(tuple(p) for p in relations)
        for x, y in rel:
            if x not in self.elements or y not in self.elements:
                raise ValueError(f"relation ({x}, {y}) references a missing element")
            if x == y:
                raise ValueError(f"order must be irreflexive, got ({x}, {x})")
        self.less = _transitive_closure(list(self.elements), rel)
        if levels is not None:
            v1, v2 = frozenset(levels[0]), frozenset(levels[1])
            if v1 & v2 or (v1 | v2) != set(self.elements):
                raise ValueError("levels must partition the elements")
            for x, y in self.less:
                if not (x in v1 and y in v2):
                    raise ValueError("two-level structure requires all relations V1 -> V2")
            levels = (v1, v2)
        self.levels = levels

    def predecessors(self, x: int) -> frozenset[int]:
        return frozenset(a for a, b in self.less if b == x)

    def is_antichain(self, subset: Iterable[int]) -> bool:
        s = set(subset)
        return all(not (x in s and y in s) for x, y in self.less)

    def is_ideal(self, subset: Iterable[int]) -> bool:
        s = set(subset)
        return all(x in s for x, y in self.less if y in s)

    def __repr__(self):
        return f"Poset(|X|={len(self.elements)}, |<|={len(self.less)})"


def _transitive_closure(elements: list[int], rel: set[tuple[int, int]]) -> frozenset:
    """Close an irreflexive relation by Warshall's algorithm over bitset rows.

    Row i is the set of elements above elements[i].  A cycle, two-element
    cycles (antisymmetry violations) included, shows as a row reaching its
    own element.
    """
    index = {x: i for i, x in enumerate(elements)}
    reach = [0] * len(elements)
    for x, y in rel:
        reach[index[x]] |= 1 << index[y]
    for k in range(len(elements)):
        bit, row_k = 1 << k, reach[k]
        for i, row in enumerate(reach):
            if row & bit:
                reach[i] = row | row_k
    for i, row in enumerate(reach):
        if row >> i & 1:
            raise ValueError(f"cycle through {elements[i]} breaks antisymmetry")
    return frozenset((x, elements[j]) for x, row in zip(elements, reach) for j in iter_bits(row))


def poset(elements, relations, levels=None) -> Poset:
    els = {
        int(x): (w if isinstance(w, Var) else Fraction(w))
        for x, w in dict(elements).items()
    }
    return Poset(els, relations, levels)


def poset_from_bipartite(g: WeightedGraph) -> Poset:
    """Two-level poset of a bipartite graph: x < y iff x in V1 and xy is an edge.

    Uses the graph's recorded parts when present (parts[0] becomes V1),
    otherwise a BFS 2-coloring with the smallest vertex of each component
    in V1.  Loop-free bipartite input required.
    """
    if g.loops():
        raise ValueError("poset construction requires a loop-free graph")
    if g.parts is not None:
        v1, v2 = g.parts
    else:
        coloring = two_coloring(g)
        if coloring is None:
            raise ValueError("graph is not bipartite")
        v1 = frozenset(v for v, c in coloring.items() if c == 0)
        v2 = frozenset(v for v, c in coloring.items() if c == 1)
    relations = []
    for u, v in g.plain_edges():
        if u in v1:
            relations.append((u, v))
        else:
            relations.append((v, u))
    return Poset(dict(g.vertices), relations, (v1, v2))


def _linear_extension(p: Poset) -> list[int]:
    # transitively closed, so predecessor count strictly grows along chains
    return sorted(p.elements, key=lambda x: (len(p.predecessors(x)), x))


def antichain_poly(p: Poset) -> MultilinearPoly:
    """Weighted sum over antichains (pairwise incomparable subsets)."""
    if len(p.elements) > MAX_POSET_POLY:
        raise BoundExceeded(f"antichain enumeration is limited to {MAX_POSET_POLY} elements")
    order = sorted(p.elements)
    pos = {x: i for i, x in enumerate(order)}
    adj = [0] * len(order)
    for x, y in p.less:
        adj[pos[x]] |= 1 << pos[y]
        adj[pos[y]] |= 1 << pos[x]
    weights = [_weight_parts(p.elements[x]) for x in order]
    top = _num_symbols(p.elements.values())
    terms: dict = {}  # mask -> int or Fraction; normalized at construction
    n = len(order)

    def rec(i: int, banned: int, num: int, den: int, mask: int):
        if num == 0:
            return
        if i == n:
            terms[mask] = terms.get(mask, 0) + (num if den == 1 else Fraction(num, den))
            return
        rec(i + 1, banned, num, den, mask)
        if not banned >> i & 1:
            wn, wd, wm = weights[i]
            if wm & mask:
                raise ValueError("repeated symbolic weight would square a variable")
            rec(i + 1, banned | adj[i], num * wn, den * wd, mask | wm)

    rec(0, 0, 1, 1, 0)
    return MultilinearPoly(top, terms)


def ideal_poly(p: Poset) -> MultilinearPoly:
    """Weighted sum over ideals (downward-closed subsets)."""
    if len(p.elements) > MAX_POSET_POLY:
        raise BoundExceeded(f"ideal enumeration is limited to {MAX_POSET_POLY} elements")
    order = _linear_extension(p)
    pos = {x: i for i, x in enumerate(order)}
    pred_masks = []
    for x in order:
        m = 0
        for a in p.predecessors(x):
            m |= 1 << pos[a]
        pred_masks.append(m)
    weights = [_weight_parts(p.elements[x]) for x in order]
    top = _num_symbols(p.elements.values())
    terms: dict = {}  # mask -> int or Fraction; normalized at construction
    n = len(order)

    def rec(i: int, chosen: int, num: int, den: int, mask: int):
        if num == 0:
            return
        if i == n:
            terms[mask] = terms.get(mask, 0) + (num if den == 1 else Fraction(num, den))
            return
        rec(i + 1, chosen, num, den, mask)
        if pred_masks[i] & ~chosen == 0:  # all predecessors already in
            wn, wd, wm = weights[i]
            if wm & mask:
                raise ValueError("repeated symbolic weight would square a variable")
            rec(i + 1, chosen | 1 << i, num * wn, den * wd, mask | wm)

    rec(0, 0, 1, 1, 0)
    return MultilinearPoly(top, terms)


def antichain_ideal_bijection(p: Poset, antichain: Iterable[int]) -> frozenset[int]:
    """Downward closure of an antichain; inverse of `maximal_elements`."""
    a = frozenset(antichain)
    if not p.is_antichain(a):
        raise ValueError("input is not an antichain")
    closure = set(a)
    for x, y in p.less:
        if y in a:
            closure.add(x)
    return frozenset(closure)


def maximal_elements(p: Poset, ideal: Iterable[int]) -> frozenset[int]:
    """Maximal elements of an ideal; always an antichain."""
    s = frozenset(ideal)
    if not p.is_ideal(s):
        raise ValueError("input is not an ideal")
    dominated = {x for x, y in p.less if y in s}
    return frozenset(s - dominated)


def weighted_bijection(p: Poset, antichain: Iterable[int]) -> frozenset[int]:
    """Two-level correspondence: keep V2 members, complement within V1.

    Requires the two-level structure.  The image is always an ideal; when
    every V1 weight is -1 and |V1| is even the image has the same weight
    as the input antichain.
    """
    if p.levels is None:
        raise ValueError("weighted correspondence needs a two-level poset")
    a = frozenset(antichain)
    if not p.is_antichain(a):
        raise ValueError("input is not an antichain")
    v1, v2 = p.levels
    return frozenset((a & v2) | (v1 - a))


# ---------------------------------------------------------------------------
# Poset file format (graphs.read_weighted_file reads it):
#   p poset <n>
#   v <id> <weight>
#   r <i> <j>        meaning i < j; closure is computed on load


def parse_poset_file(text: str) -> Poset:
    return read_weighted_file(text, "p poset <n>", "r <i> <j>", ("element", "elements"), Poset)[0]


def format_poset_file(p: Poset) -> str:
    lines = [f"p poset {len(p.elements)}"]
    for x in sorted(p.elements):
        lines.append(f"v {x} {format_weight(p.elements[x])}")
    for x, y in sorted(p.less):
        lines.append(f"r {x} {y}")
    return "\n".join(lines) + "\n"
