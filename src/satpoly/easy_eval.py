"""Fast factored evaluation for formulas over easy relation sets.

When every relation a formula applies is a conjunction of width-2
constraints, the variables split into parity-linked components that are
either forced by a unary constraint or free with exactly two global
states.  The polynomial then factors as

    forced_monomial * prod over free components (zero_branch + one_branch)

which evaluates in near-linear time, far beyond the reach of enumeration.

Factoring decomposes each distinct relation once and applies its local
forcings and parity links to all of its constraints at once, as numpy
arrays.  The components come from hook and compress in the style of
Shiloach and Vishkin: rounds of pointer jumping and of hooking roots onto
their smallest neighbouring root, with each variable's parity to its root
carried along, so the rounds grow with log n, not with the number of
constraints.  Link consistency, the forcings and the two sides of every
component are then read off whole arrays.  Evaluation converts each
distinct coordinate once and stays in integers: every component yields a
numerator and a denominator, each list is multiplied as a balanced
product, and a single Fraction at the end does the only gcd reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import prod
from operator import itemgetter
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


def _parity_roots(n: int, u: np.ndarray, v: np.ndarray, p: np.ndarray):
    """Each variable's root and its parity to the root, under the links x_u xor x_v = p.

    Hook and compress: every round points each variable at its root by
    pointer jumping, drops the links inside one root's tree, and hooks
    each root that is the larger end of a live link onto its smallest
    neighbouring root.  Hooks only go downwards, so every root ends as the
    smallest variable of its component.  A root that has no smaller
    neighbour and receives no hook in one round has one in the next, so
    the number of roots in a component halves at least every two rounds,
    and a round past that bound is a fault.  The parities are only carried
    here; the caller checks the links.
    """
    import numpy as np
    parent = np.arange(n, dtype=u.dtype)
    par = np.zeros(n, dtype=np.int8)  # x_w = x_parent[w] xor par[w]
    for _ in range(2 * n.bit_length() + 1):
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            par ^= par[parent]
            parent = grand
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            return parent, par
        # the live links, restated between the two roots
        p = par[u[live]] ^ par[v[live]] ^ p[live]
        ru, rv = ru[live], rv[live]
        u, v = np.maximum(ru, rv), np.minimum(ru, rv)
        best = np.full(n, n, dtype=u.dtype)
        np.minimum.at(best, u, v)
        win = v == best[u]
        hooked = u[win]
        # several winners for one root agree unless the links are inconsistent
        parent[hooked] = v[win]
        par[hooked] = p[win]
    raise RuntimeError(f"hooking took more than {2 * n.bit_length()} rounds")


def easy_factor(f: Formula) -> FactoredPoly:
    """Factor the polynomial of a formula over an easy relation set.

    Raises SatPolyError when the relation set is hard.
    """
    rels = f.relation_set
    if rels:  # a constraint-free formula is trivially easy
        cls = classify(list(rels))
        if not cls.is_easy:
            raise SatPolyError(f"relation set is not easy (witness: {cls.witness})")

    import numpy as np  # here, so that CLI calls which never factor skip its import

    n = f.num_vars
    idx = np.int32 if n < 1 << 30 else np.int64  # 2 * n + 1 fits
    # gather: one code per constraint for its relation object, and every
    # argument in one flat array; constraint k's arguments start at start[k]
    by_id = f._relations_by_id
    code_of = dict(zip(by_id, range(len(by_id))))
    cons_ids = map(id, map(itemgetter(0), f.constraints))
    codes = np.fromiter(map(code_of.__getitem__, cons_ids), dtype=np.int32,
                        count=len(f.constraints))
    ranks = np.array([rel.rank for rel in by_id.values()], dtype=idx)[codes]
    start = np.cumsum(ranks) - ranks
    all_args = chain.from_iterable(map(itemgetter(1), f.constraints))
    flat = np.fromiter(all_args, dtype=idx, count=int(ranks.sum()))
    del ranks

    # each relation's width-2 constraints (classify passed, so it has them)
    # applied to all of its rows at once: forcings ("const0"/"const1", i)
    # and parity links ("eq"/"ne", i, j)
    link_u, link_v, link_p, force_var, force_bit = [], [], [], [], []
    for code, rel in enumerate(by_id.values()):
        rows = start[codes == code]
        for c in _width2_expressible(rel):
            bit = np.full(len(rows), c[0] in ("const1", "ne"), dtype=np.int8)
            if len(c) == 2:
                force_var.append(flat[rows + c[1]])
                force_bit.append(bit)
            else:
                link_u.append(flat[rows + c[1]])
                link_v.append(flat[rows + c[2]])
                link_p.append(bit)
    del flat, start, codes
    u = np.concatenate(link_u or [np.zeros(0, dtype=idx)])
    v = np.concatenate(link_v or [np.zeros(0, dtype=idx)])
    p = np.concatenate(link_p or [np.zeros(0, dtype=np.int8)])
    del link_u, link_v, link_p
    root, par = _parity_roots(n, u, v, p)

    inconsistent = FactoredPoly(n, False, frozenset(), ())
    if np.any(par[u] ^ par[v] != p):
        return inconsistent
    del u, v, p

    # the value forced on each root, -1 when its component is free
    state = np.full(n, -1, dtype=np.int8)
    if force_var:
        fvar = np.concatenate(force_var)
        fval = np.concatenate(force_bit) ^ par[fvar]
        froot = root[fvar]
        state[froot] = fval
        if np.any(state[froot] != fval):
            return inconsistent
    state = state[root]  # now of each variable's root
    forced = frozenset(np.flatnonzero(state ^ par == 1).tolist())

    # free variables sorted by (root, side): components ordered by their
    # representative, the root, and in each the zero side (parity 1 to the
    # root) before the one side, which holds the root
    free = np.flatnonzero(state < 0).astype(idx)
    key = 2 * root[free] + (par[free] ^ 1)
    order = np.argsort(key)
    key = key[order]
    reps = free[root[free] == free]
    cuts = np.searchsorted(key, np.stack([2 * reps, 2 * reps + 1], axis=1).ravel()).tolist()
    cuts.append(len(key))
    members = free[order].tolist()
    sides = map(frozenset, map(members.__getitem__, map(slice, cuts, cuts[1:])))
    return FactoredPoly(n, True, forced, tuple(zip(sides, sides)))


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
