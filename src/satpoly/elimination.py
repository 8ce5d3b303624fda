"""Exact weighted model counting by variable elimination.

The primal graph of a formula joins two variables when some constraint
uses both.  Variables are eliminated in a min-degree order of that graph;
the largest degree met along the way (fill edges included) is the order's
width, and every table built here has at most 2**(width + 1) entries, so
narrow formulas cost time linear in their size rather than in their models.

A factor is a scope (a tuple of distinct variables) and a table: a Python
list whose entry e holds the factor's value at the assignment giving
scope[j] the value of bit j of e.  Every constraint becomes a 0/1 factor;
each variable v carries a weight pair (w0, w1) for the values 0 and 1.
Bucket elimination sums v out of the product of the factors in its bucket
and passes the result on to the bucket of the earliest variable left in
its scope.  Only ring operations on Python integers are used, so the
result is exact for any integer weights, and reducing every product and
sum modulo N gives the result modulo N.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .relations import Relation

Factor = tuple[tuple[int, ...], list[int]]


def min_degree_order(
    num_vars: int, scopes: Iterable[Sequence[int]], max_width: Optional[int] = None
) -> tuple[list[int], int, int]:
    """A min-degree elimination order of variables 0..num_vars-1, its width and its cost.

    The cost is the sum of 2**(degree + 1) over the eliminated variables:
    the number of entries of the joint tables weighted_count builds along
    the order.  The heap holds (degree, vertex) entries; an entry whose
    degree is no longer current is dropped when popped, so no step scans
    for the next vertex.  Ties go to the lowest index.  Once the width
    passes max_width the search stops: the order is then cut short and
    only its width, above max_width, means anything.
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
    width = cost = 0
    while heap:
        degree, v = heapq.heappop(heap)
        if done[v] or degree != len(adj[v]):
            continue
        if max_width is not None and degree > max_width:
            return order, degree, cost
        done[v] = True
        order.append(v)
        width = max(width, degree)
        cost += 2 << degree
        nbrs = adj[v]
        for u in nbrs:
            fill = adj[u]
            fill.discard(v)
            fill.update(nbrs)  # the neighbours of v become a clique
            fill.discard(u)
            heapq.heappush(heap, (len(fill), u))
    return order, width, cost


def constraint_factor(rel: Relation, args: Sequence[int]) -> Factor:
    """The 0/1 factor of one applied constraint over its distinct variables.

    A repeated argument restricts the relation to the diagonal: a tuple
    counts only when it gives every copy of a variable the same value.
    """
    scope = tuple(dict.fromkeys(args))
    slot = [scope.index(a) for a in args]
    table = [0] * (1 << len(scope))
    for t in rel.accepted:
        e = 0
        for bit, j in zip(t, slot):
            e |= bit << j
        if all(e >> j & 1 == bit for bit, j in zip(t, slot)):
            table[e] = 1
    return scope, table


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
    """Sum over all assignments of the product of the factors and the weights.

    weights[v] = (w0, w1) weighs variable v at 0 and at 1; order must list
    every variable once.  Products skip 0/1 entries: a 0 ends the product
    and a 1 is left out.  With a modulus every product and sum is reduced
    modulo it, and so is the result; each bucket picks the exact or the
    reducing loop once, so exact counts pay nothing for the option.
    """
    rank = {v: i for i, v in enumerate(order)}
    buckets: list[list[Factor]] = [[] for _ in order]
    for scope, table in factors:
        buckets[min(rank[u] for u in scope)].append((scope, table))
    total = 1
    for v, bucket in zip(order, buckets):
        w0, w1 = weights[v]
        if not bucket:
            total *= w0 + w1
            if modulus is not None:
                total %= modulus
            continue
        rest = sorted({u for scope, _ in bucket for u in scope if u != v}, key=rank.__getitem__)
        joint = [v, *rest]  # v is bit 0, so its two values sit side by side
        prod = None
        for scope, table in bucket:
            idx = _spread_index(scope, joint)
            if prod is None:
                prod = [table[k] for k in idx]
            elif modulus is None:
                prod = [(a if (t := table[k]) == 1 else a * t) if a else 0
                        for a, k in zip(prod, idx)]
            else:
                prod = [(a if (t := table[k]) == 1 else a * t % modulus) if a else 0
                        for a, k in zip(prod, idx)]
        if modulus is None:
            summed = [lo * w0 + hi * w1 for lo, hi in zip(prod[0::2], prod[1::2])]
        else:
            summed = [(lo * w0 + hi * w1) % modulus for lo, hi in zip(prod[0::2], prod[1::2])]
        if not any(summed):
            return 0
        if rest:
            buckets[rank[rest[0]]].append((tuple(rest), summed))
        else:
            total *= summed[0]
            if modulus is not None:
                total %= modulus
    return total if modulus is None else total % modulus
