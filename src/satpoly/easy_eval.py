"""Fast factored evaluation for formulas over easy relation sets.

When every relation in scope is a conjunction of width-2 constraints, the
variables split into parity-linked components that are either forced by a
unary constraint or free with exactly two global states.  The polynomial
then factors as

    forced_monomial * prod over free components (zero_branch + one_branch)

which evaluates in near-linear time, far beyond the reach of enumeration.

Factoring decomposes each distinct relation once and replays its local
forcings and parity links on every constraint.  Evaluation converts each
distinct coordinate once and stays in integers: every component yields a
numerator and a denominator, each list is multiplied as a balanced
product, and a single Fraction at the end does the only gcd reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from ._bits import balanced_product
from .errors import SatPolyError
from .formulas import Formula
from .polynomial import MultilinearPoly
from .relations import classify, _width2_expressible


@dataclass(frozen=True)
class FactoredPoly:
    """Factored form of an easy formula's polynomial.

    Component branches list the variables assigned 1 when the component's
    representative (its smallest variable) takes 0 resp. 1.  Branch and
    forced variable sets are pairwise disjoint.  An inconsistent formula
    has consistent=False and empty fields (the zero polynomial).
    """

    num_vars: int
    consistent: bool
    forced: frozenset[int]
    components: tuple[tuple[frozenset[int], frozenset[int]], ...]


class _ParityUnionFind:
    """Union-find where each node carries its parity relative to its root."""

    __slots__ = ("parent", "size", "parity")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.parity = [0] * n

    def find(self, v: int) -> tuple[int, int]:
        parent = self.parent
        parity = self.parity
        root, p = v, 0
        while parent[root] != root:
            p ^= parity[root]
            root = parent[root]
        # second pass: point the whole path at the root
        acc = p
        while parent[v] != root:
            nxt = parent[v]
            nxt_acc = acc ^ parity[v]
            parent[v] = root
            parity[v] = acc
            v, acc = nxt, nxt_acc
        return root, p

    def union(self, u: int, v: int, rel_parity: int) -> bool:
        """Record u xor v = rel_parity; False on contradiction.

        Union by size keeps every path within log2(n) links, so the two
        root walks here skip find's path compression and its call.
        """
        parent = self.parent
        parity = self.parity
        ru, pu = u, 0
        while parent[ru] != ru:
            pu ^= parity[ru]
            ru = parent[ru]
        rv, pv = v, 0
        while parent[rv] != rv:
            pv ^= parity[rv]
            rv = parent[rv]
        if ru == rv:
            return (pu ^ pv) == rel_parity
        if self.size[ru] > self.size[rv]:
            ru, rv = rv, ru
            pu, pv = pv, pu
        self.parent[ru] = rv
        self.parity[ru] = pu ^ pv ^ rel_parity
        self.size[rv] += self.size[ru]
        return True


def _local_decomposition(rel) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """A relation's width-2 constraints as (index, bit) forcings and (i, j, parity) links."""
    decomp = _width2_expressible(rel)
    if decomp is None:  # a used relation missing from the declared table
        raise SatPolyError(f"relation {rel.name} is not width-2 expressible")
    forcings = [(c[1], 1 if c[0] == "const1" else 0) for c in decomp if len(c) == 2]
    links = [(c[1], c[2], 0 if c[0] == "eq" else 1) for c in decomp if len(c) == 3]
    return forcings, links


def easy_factor(f: Formula) -> FactoredPoly:
    """Factor the polynomial of a formula over an easy relation set.

    Raises SatPolyError when the relation set is hard.
    """
    rels = f.relation_set
    if rels:  # a constraint-free formula is trivially easy
        cls = classify(list(rels))
        if not cls.is_easy:
            raise SatPolyError(f"relation set is not easy (witness: {cls.witness})")

    n = f.num_vars
    uf = _ParityUnionFind(n)
    union = uf.union
    # keyed by identity: a parsed formula shares one Relation object per name,
    # and hashing a Relation per constraint would cost more than the lookup saves
    local: dict[int, tuple] = {}
    forcings: list[tuple[int, int]] = []  # (variable, forced bit)
    consistent = True
    for rel, args in f.constraints:
        dec = local.get(id(rel))
        if dec is None:
            dec = local[id(rel)] = _local_decomposition(rel)
        rel_forcings, links = dec
        for i, bit in rel_forcings:
            forcings.append((args[i], bit))
        for i, j, parity in links:
            if not union(args[i], args[j], parity):
                consistent = False
                break
        if not consistent:
            break

    forced_value: dict[int, int] = {}  # root -> value of the root
    if consistent:
        for var, bit in forcings:
            root, p = uf.find(var)
            want = bit ^ p
            if forced_value.setdefault(root, want) != want:
                consistent = False
                break

    if not consistent:
        return FactoredPoly(n, False, frozenset(), ())

    # gathered in variable order, so each group starts with its smallest
    # variable and the groups come ordered by it
    members: dict[int, list[tuple[int, int]]] = {}  # root -> [(var, parity)]
    find = uf.find
    for v in range(n):
        root, p = find(v)
        group = members.get(root)
        if group is None:
            members[root] = [(v, p)]
        else:
            group.append((v, p))

    forced_vars: set[int] = set()
    components: list[tuple[frozenset[int], frozenset[int]]] = []
    for root, group in members.items():
        if root in forced_value:
            rv = forced_value[root]
            forced_vars.update(v for v, p in group if rv ^ p == 1)
        else:
            # the representative is the group's smallest variable; v equals
            # rep's value exactly when their parities to the root agree
            rep_parity = group[0][1]
            zero = frozenset(v for v, p in group if p != rep_parity)
            one = frozenset(v for v, p in group if p == rep_parity)
            components.append((zero, one))
    return FactoredPoly(n, True, frozenset(forced_vars), tuple(components))


# a left fold of small factors beats pairing up to 4096-8192 of them (measured)
_BALANCED_MIN = 4096


def _side_product(values: list[int], variables: frozenset[int]) -> int:
    xs = [values[v] for v in variables]
    return balanced_product(xs) if len(xs) >= _BALANCED_MIN else prod(xs)


def evaluate_factored(fp: FactoredPoly, point: Sequence) -> Fraction:
    """Evaluate a factored polynomial exactly at a rational point.

    Each distinct coordinate object becomes a Fraction once.  Each free
    component contributes the integer numerator zn*od + on*zd over the
    denominator zd*od of its two branches; all numerators and all
    denominators are multiplied as balanced products, and the one Fraction
    built at the end is the only gcd reduction.
    """
    if len(point) != fp.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {fp.num_vars}")
    if not fp.consistent:
        return Fraction(0)
    # keyed by identity: a parsed point shares one object per distinct token,
    # and Fraction hashing per coordinate would cost more than the conversion
    keys = [id(x) for x in point]
    num_of: dict[int, int] = {}
    den_of: dict[int, int] = {}
    for key, x in dict(zip(keys, point)).items():
        q = Fraction(x)
        num_of[key], den_of[key] = q.numerator, q.denominator
    num = [num_of[k] for k in keys]
    den = [den_of[k] for k in keys]
    nums = [_side_product(num, fp.forced)]
    dens = [_side_product(den, fp.forced)]
    for zero, one in fp.components:
        zd, od = _side_product(den, zero), _side_product(den, one)
        nums.append(_side_product(num, zero) * od + _side_product(num, one) * zd)
        dens.append(zd * od)
    return Fraction(balanced_product(nums), balanced_product(dens))


def easy_evaluate(f: Formula, point: Sequence) -> Fraction:
    """Factor and evaluate in one call; near-linear in formula size."""
    return evaluate_factored(easy_factor(f), point)


def expand_factored(fp: FactoredPoly) -> MultilinearPoly:
    """Multiply the factored form out into an explicit term map (small n only)."""
    if not fp.consistent:
        return MultilinearPoly.zero(fp.num_vars)
    mask = 0
    for v in fp.forced:
        mask |= 1 << v
    poly = MultilinearPoly(fp.num_vars, {mask: Fraction(1)})
    for zero, one in fp.components:
        zmask = 0
        for v in zero:
            zmask |= 1 << v
        omask = 0
        for v in one:
            omask |= 1 << v
        poly = poly.multiply(
            MultilinearPoly(fp.num_vars, {zmask: Fraction(1), omask: Fraction(1)})
        )
    return poly
