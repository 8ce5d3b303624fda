"""Exact weighted model counting: folds, components, variable elimination, conditioning.

A factor is a scope (a tuple of distinct variables) and a table: a Python
list whose entry e holds the factor's value at the assignment giving
scope[j] the value of bit j of e.  Each variable v carries a weight pair
(w0, w1) for the values 0 and 1, and the weighted count sums, over all
assignments, the product of the factors and the weights.  Only ring
operations on Python integers are used, so every result is exact, and
reducing every product and sum modulo N gives the result modulo N.

weighted_count eliminates variables along an order of the primal graph
(two variables adjacent when a factor uses both); along a min-degree order
of width d every table it builds has at most 2**(d + 1) entries.  count
is the one counter for model counts, formula values and vertex covers
alike, whatever their size: it solves the parity (xor) equations among
the factors over GF(2), folds what needs no table, splits the rest into
components, eliminates those at most ELIM_WIDTH wide and conditions wider
ones.  No other module reads ELIM_WIDTH or chooses between these steps.
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache, reduce
from operator import xor
from typing import Iterable, Optional, Sequence

from ._bits import balanced_product, factor_table, iter_bits, table_bits, table_full, table_var
from .relations import Relation

Factor = tuple[tuple[int, ...], list[int]]

# Widest min-degree order count eliminates; a wider component is conditioned.
# Set where covers of a 9x9 grid counted fastest: 0.008 s, against 0.03 s at
# 8 and 0.4 s at 4.
ELIM_WIDTH = 11


def min_degree_order(
    num_vars: int, scopes: Iterable[Sequence[int]], max_width: Optional[int] = None
) -> tuple[list[int], int]:
    """A min-degree elimination order of variables 0..num_vars-1 and its width.

    The heap holds (degree, vertex) entries; an entry whose degree is no
    longer current is dropped when popped, so no step scans for the next
    vertex.  Ties go to the lowest index.  Once the width passes max_width
    the search stops: the order is then cut short and only its width,
    above max_width, means anything.
    """
    adj: list[set[int]] = [set() for _ in range(num_vars)]
    for scope in scopes:
        for u in scope:
            adj[u].update(scope)
    for u, nbrs in enumerate(adj):
        nbrs.discard(u)
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    done = [False] * num_vars
    order: list[int] = []
    width = 0
    while heap:
        degree, v = heapq.heappop(heap)
        if done[v] or degree != len(adj[v]):
            continue
        if max_width is not None and degree > max_width:
            return order, degree
        done[v] = True
        order.append(v)
        width = max(width, degree)
        nbrs = adj[v]
        for u in nbrs:
            fill = adj[u]
            fill.discard(v)
            fill.update(nbrs)  # the neighbours of v become a clique
            fill.discard(u)
            heapq.heappush(heap, (len(fill), u))
    return order, width


def constraint_factor(rel: Relation, args: Sequence[int]) -> Factor:
    """The 0/1 factor of one applied constraint over its distinct variables.

    A repeated argument restricts the relation to the diagonal: a tuple
    counts only when it gives every copy of a variable the same value.
    """
    scope = tuple(dict.fromkeys(args))
    return scope, _slot_table(rel, tuple(scope.index(a) for a in args))


@lru_cache(maxsize=None)
def _slot_table(rel: Relation, slot: tuple[int, ...]) -> list[int]:
    """rel's table when argument i is variable slot[i]; shared, so never written to."""
    table = [0] * (2 << max(slot))
    for t in rel.accepted:
        e = 0
        for bit, j in zip(t, slot):
            e |= bit << j
        if all(e >> j & 1 == bit for bit, j in zip(t, slot)):
            table[e] = 1
    return table


def _spread_index(scope: tuple[int, ...], joint: Sequence[int]) -> list[int]:
    """For every assignment of the joint scope, the index of its restriction to scope."""
    where = {u: j for j, u in enumerate(scope)}
    idx = [0]
    for u in joint:
        j = where.get(u)
        if j is None:
            idx = idx + idx
        else:
            bit = 1 << j
            idx = idx + [k + bit for k in idx]
    return idx


def weighted_count(
    factors: Iterable[Factor],
    weights: Sequence[tuple[int, int]],
    order: Sequence[int],
    modulus: Optional[int] = None,
) -> int:
    """Sum over all assignments of the product of 0/1 factors and the weights.

    weights[v] = (w0, w1) weighs variable v at 0 and at 1; order must list
    every variable once.  A bucket's factors meet as bit tables, one AND
    each; only the messages from earlier buckets are multiplied entry by
    entry.  With a modulus every product and sum is reduced modulo it; each
    bucket picks the exact or the reducing loop once.
    """
    rank = {v: i for i, v in enumerate(order)}
    buckets: list[list[Factor]] = [[] for _ in order]
    messages: list[list[Factor]] = [[] for _ in order]
    for scope, table in factors:
        buckets[min(rank[u] for u in scope)].append((scope, table))
    terms = []
    for v, bucket, inbox in zip(order, buckets, messages):
        w0, w1 = weights[v]
        if not bucket and not inbox:
            terms.append(w0 + w1)
            continue
        # v is bit 0, so its two values sit side by side
        joint = list(dict.fromkeys(u for scope, _ in bucket + inbox for u in scope if u != v))
        joint.insert(0, v)
        prod = None
        if bucket:
            k = len(joint)
            full = table_full(k)
            bases = {u: table_var(j, k) for j, u in enumerate(joint)}
            mask = full
            for scope, table in bucket:
                mask &= factor_table(scope, table, bases, full)
            prod = table_bits(mask, k)
        for scope, table in inbox:
            idx = _spread_index(scope, joint)
            if prod is None:
                prod = [table[i] for i in idx]
            elif modulus is None:
                prod = [a * table[i] if a else 0 for a, i in zip(prod, idx)]
            else:
                prod = [a * table[i] % modulus if a else 0 for a, i in zip(prod, idx)]
        if modulus is None:
            summed = [lo * w0 + hi * w1 for lo, hi in zip(prod[0::2], prod[1::2])]
        else:
            summed = [(lo * w0 + hi * w1) % modulus for lo, hi in zip(prod[0::2], prod[1::2])]
        if not any(summed):
            return 0
        rest = tuple(joint[1:])
        if rest:
            messages[min(rank[u] for u in rest)].append((rest, summed))
        else:
            terms.append(summed[0])
    return _product(terms, modulus)


def _product(terms: list[int], modulus: Optional[int]) -> int:
    if modulus is None:
        return balanced_product(terms)
    p = 1 % modulus
    for x in terms:
        p = p * x % modulus
    return p


@lru_cache(maxsize=None)
def _restrict_index(k: int, j: int, b: int) -> list[int]:
    """The entries of a k-variable table with bit j equal to b, as a table without bit j."""
    low = (1 << j) - 1
    return [e & low | (e >> j) << (j + 1) | b << j for e in range(1 << (k - 1))]


class _Part:
    """Weights w, 0/1 factors facs (by id) and their ids inc (by variable) left to sum.

    terms collects what the folds take out, each a factor of the part's value.
    """

    __slots__ = ("w", "inc", "facs", "terms", "modulus", "fids")

    def __init__(self, w, inc, facs, modulus, fids):
        self.w, self.inc, self.facs, self.modulus = w, inc, facs, modulus
        self.fids = fids  # new factor ids, shared by every part of one count
        self.terms: list[int] = []

    def place(self, scope, table) -> bool:
        """Add a factor, dropping it if constant 1 and folding it if unary; False if all 0."""
        if all(table):
            return True
        if not any(table):
            return False
        if len(scope) == 1:
            w0, w1 = self.w[scope[0]]
            self.w[scope[0]] = (w0 if table[0] else 0, w1 if table[1] else 0)
            return True
        fid = next(self.fids)
        self.facs[fid] = (scope, table)
        for u in scope:
            self.inc[u].add(fid)
        return True

    def fold(self, pending) -> bool:
        """Fold the variables in pending and those each fold touches; False if the part is 0."""
        w, inc, facs, terms, modulus = self.w, self.inc, self.facs, self.terms, self.modulus
        while pending:
            v = pending.pop()
            pair = w.get(v)
            if pair is None:
                continue
            w0, w1 = pair
            fids = inc[v]
            if not (w0 and w1):  # v is fixed: restrict every factor on it
                if not (w0 or w1):
                    return False
                if (w0 or w1) != 1:
                    terms.append(w0 or w1)
                del w[v], inc[v]
                b = 0 if w0 else 1
                for fid in fids:
                    scope, t = facs.pop(fid)
                    if len(scope) == 2:  # place the partner's unary factor, without building it
                        if scope[0] == v:
                            u, t0, t1 = scope[1], t[b], t[b + 2]
                        else:
                            u, t0, t1 = scope[0], t[b + b], t[b + b + 1]
                        fu = inc[u]
                        fu.discard(fid)
                        if not (t0 and t1):
                            if not (t0 or t1):
                                return False
                            w[u] = (w[u][0], 0) if t0 else (0, w[u][1])
                        elif len(fu) > 1:
                            continue  # dropped, and no fold can apply to u yet
                        pending.append(u)
                        continue
                    j = scope.index(v)
                    rest = scope[:j] + scope[j + 1:]
                    for u in rest:
                        inc[u].discard(fid)
                    pending.extend(rest)
                    if not self.place(rest, [t[e] for e in _restrict_index(len(scope), j, b)]):
                        return False
            elif not fids:  # free
                terms.append(w0 + w1)
                del w[v], inc[v]
            elif len(fids) == 1 and len(facs[next(iter(fids))][0]) == 2:  # pendant: sum v out
                fid = fids.pop()
                scope, t = facs.pop(fid)
                j = scope.index(v)
                u = scope[1 - j]
                inc[u].discard(fid)
                del w[v], inc[v]
                u0, u1 = w[u]
                s0, s1 = (t[e] * w0 + t[e + (1 << j)] * w1 for e in _restrict_index(2, j, 0))
                w[u] = (u0 * s0, u1 * s1) if modulus is None else (u0 * s0 % modulus, u1 * s1 % modulus)
                pending.append(u)
        return 0 not in terms

    def components(self):
        """The connected components left: (variables, factor ids, narrow) each.

        narrow is False when every variable has more than ELIM_WIDTH
        neighbours, so that the first one any order removes is too wide.
        """
        inc, facs = self.inc, self.facs
        seen: set[int] = set()
        for start in self.w:
            if start in seen:
                continue
            seen.add(start)
            comp, fids, narrow = [start], set(), False
            for v in comp:
                nb = set()
                for fid in inc[v]:
                    nb.update(facs[fid][0])
                    if fid not in fids:
                        fids.add(fid)
                        for u in facs[fid][0]:
                            if u not in seen:
                                seen.add(u)
                                comp.append(u)
                narrow = narrow or len(nb) <= ELIM_WIDTH + 1
            comp.sort()  # min-degree ties go to the lowest variable, whatever the factor ids
            yield comp, fids, narrow

    def eliminate(self, comp, fids) -> Optional[int]:
        """A component's weighted count by elimination; None if its order is too wide."""
        facs = self.facs
        pos = {v: i for i, v in enumerate(comp)}
        local = [(tuple(map(pos.__getitem__, facs[fid][0])), facs[fid][1]) for fid in fids]
        order, width = min_degree_order(len(comp), (scope for scope, _ in local), ELIM_WIDTH)
        if width > ELIM_WIDTH:
            return None
        return weighted_count(local, [self.w[v] for v in comp], order, self.modulus)


@lru_cache(maxsize=None)
def _parity_table(k: int, c: int) -> list[int]:
    """The table of x1 xor ... xor xk = c; shared, so never written to."""
    return [(bin(e).count("1") + c + 1) & 1 for e in range(1 << k)]


def _solve_parity(factors: list[Factor], w: dict) -> Optional[list[Factor]]:
    """The factors with their parity equations solved over GF(2); None if unsolvable.

    The equations are brought to reduced row echelon form, each row's pivot
    its lowest variable, so a pivot p equals a constant plus the xor of its
    row's other variables, none of them a pivot.  p is then written out of
    every other factor, each rebuilt as a bit table over its new scope.  p
    keeps its row as its only factor, unless its two weights are equal: its
    value is forced and adds that weight whichever it is, so p is left with
    no factor and weight (w0, 0).  A parity factor's table is the xor of its
    scope's variables, complemented or not.  If a rebuilt factor or a kept
    row would span more variables than the widest factor given, the factors
    are returned as they are, so solving never builds a larger table; a
    dense system of high rank leaves rows of few variables.
    """
    rows: dict[int, tuple[int, int]] = {}  # pivot -> (row mask, constant)
    rest = []
    for scope, table in factors:
        k = len(scope)
        if k < 2 or table != _parity_table(k, 1 - table[0]):
            rest.append((scope, table))
            continue
        mask, c = sum(1 << u for u in scope), 1 - table[0]
        for p, (m, pc) in rows.items():
            if mask >> p & 1:
                mask, c = mask ^ m, c ^ pc
        if not mask:
            if c:
                return None
            continue
        p = (mask & -mask).bit_length() - 1
        for q, (m, qc) in rows.items():
            if m >> p & 1:
                rows[q] = (m ^ mask, qc ^ c)
        rows[p] = (mask, c)
    if not rows:
        return factors
    widest = max(len(scope) for scope, _ in factors)
    kept = [p for p in rows if w[p][0] != w[p][1]]
    if any(rows[p][0].bit_count() > widest for p in kept):
        return factors
    solved = [((p, *iter_bits(m ^ 1 << p)), _parity_table(m.bit_count(), c))
              for p, (m, c) in ((p, rows[p]) for p in kept)]
    for scope, table in rest:
        joint = tuple(dict.fromkeys(
            x for u in scope for x in (iter_bits(rows[u][0] ^ 1 << u) if u in rows else (u,))))
        if joint == scope:
            solved.append((scope, table))
            continue
        if len(joint) > widest:
            return factors
        k = len(joint)
        full = table_full(k)
        bases = {x: table_var(j, k) for j, x in enumerate(joint)}
        for u in rows.keys() & set(scope):
            m, c = rows[u]
            bases[u] = reduce(xor, map(bases.get, iter_bits(m ^ 1 << u)), full * c)
        solved.append((joint, table_bits(factor_table(scope, table, bases, full), k)))
    for p in rows.keys() - set(kept):
        w[p] = (w[p][0], 0)
    return solved


def count(
    factors: Iterable[Factor],
    weights: Sequence[tuple[int, int]],
    modulus: Optional[int] = None,
) -> int:
    """Sum over all assignments of the product of 0/1 factors and the weights.

    weights[v] = (w0, w1) weighs variable v at 0 and at 1.  The parity
    equations among the factors are solved over GF(2) first (see
    _solve_parity).  The folds then run from a worklist: a zero weight
    fixes its variable and restricts every factor on it, a factor that
    becomes constant 1 is dropped and a unary one multiplies into its
    variable's weights; a variable in no factor contributes w0 + w1, and
    one whose only factor is binary is summed into its partner's weights.
    What is left splits into connected components, whose counts multiply.
    A component whose min-degree order is at most ELIM_WIDTH wide is
    eliminated along it; a wider one is conditioned on a variable of
    highest degree, and each branch (one weight of it set to 0) is folded
    from that variable and split again.

    The parts and branches form a tree of products and sums, built from an
    explicit stack and evaluated in reverse order of making, so separate
    wide components are conditioned once each and no recursion is used.
    Exact products multiply as a balanced tree; with a modulus every
    weight, fold, table entry and product is reduced modulo it.
    """
    w = {v: pair if modulus is None else (pair[0] % modulus, pair[1] % modulus)
         for v, pair in enumerate(weights)}
    factors = _solve_parity(list(factors), w)
    if factors is None:
        return 0
    root = _Part(w, {v: set() for v in w}, {}, modulus, itertools.count())
    pending = list(w)
    if not all([root.place(scope, table) for scope, table in factors]):
        return 0
    # nodes[i] = (parent, is_sum, terms): a part's terms and component
    # counts, to multiply, or a wide component's two branches, to add.  A
    # node is made after its parent, so folding the nodes into their
    # parents in reverse order of making evaluates the tree.
    nodes: list[tuple[int, bool, list[int]]] = []
    stack = [(-1, root, pending)]
    while stack:
        parent, part, pending = stack.pop()
        nodes.append((parent, False, part.terms))
        here = len(nodes) - 1
        if not part.fold(pending):
            part.terms.append(0)
            continue
        for comp, fids, narrow in part.components():
            value = part.eliminate(comp, fids) if narrow else None
            if value is not None:
                part.terms.append(value)
                continue
            nodes.append((here, True, []))
            v = max(comp, key=lambda u: (len(part.inc[u]), -u))
            for b in (0, 1):  # the branch with v = b; the second may take over the part
                if b and len(comp) == len(part.w):
                    branch = _Part(part.w, part.inc, part.facs, modulus, part.fids)
                else:
                    branch = _Part({u: part.w[u] for u in comp}, {u: set(part.inc[u]) for u in comp},
                                   {fid: part.facs[fid] for fid in fids}, modulus, part.fids)
                w0, w1 = branch.w[v]
                branch.w[v] = (0, w1) if b else (w0, 0)
                stack.append((len(nodes) - 1, branch, [v]))
    for parent, is_sum, terms in reversed(nodes[1:]):
        nodes[parent][2].append(sum(terms) if is_sum else _product(terms, modulus))
    return _product(nodes[0][2], modulus)
