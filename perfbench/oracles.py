"""Answer oracles for the benchmark, written apart from the code under test.

Nothing here imports satpoly.  Each oracle takes a different route from
the program it checks:

- weighted model counting by variable elimination (the program enumerates
  models through truth tables or depth-first search);
- an existence search for gadgets that keeps one atom per distinct truth
  table and prunes on the first accepted input left without an extension
  (the program scans every constraint multiset in canonical order);
- the permanent by Ryser's inclusion-exclusion formula (the program counts
  vertex covers of a reduction instance);
- independent-set counts by a row transfer matrix on grids and by
  memoized branching on vertex bitmasks elsewhere; covers are counted
  through the complement bijection;
- antichain counts on a poset closed by bitset Warshall, which also give
  the ideal counts through the antichain/ideal bijection.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import prod


def product_tree(values) -> int:
    """Product of integers by balanced halving (fast on many large factors)."""
    vals = list(values)
    if not vals:
        return 1
    while len(vals) > 1:
        nxt = [vals[i] * vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


# ---------------------------------------------------------------------------
# Easy formulas: closed form of a planted factor structure


def planted_value(forced_ones, components, num, den) -> Fraction:
    """Value of prod(x_v for forced ones) * prod over components (A-branch + B-branch).

    components is a list of (a_ones, b_ones) variable lists: the variables
    set to 1 in each of the component's two states.  x_v = num[v] / den[v].
    """
    nums = [num[v] for v in forced_ones]
    dens = [den[v] for v in forced_ones]
    for a_ones, b_ones in components:
        an = prod([num[v] for v in a_ones])
        ad = prod([den[v] for v in a_ones])
        bn = prod([num[v] for v in b_ones])
        bd = prod([den[v] for v in b_ones])
        nums.append(an * bd + bn * ad)
        dens.append(ad * bd)
    return Fraction(product_tree(nums), product_tree(dens))


# ---------------------------------------------------------------------------
# Constraint formulas: weighted model counting by variable elimination


def weighted_model_count(num_vars, constraints, weights) -> int:
    """Sum over satisfying assignments of prod(weights[v][bit of v]).

    constraints is a list of (accepted set of bit tuples, argument tuple);
    arguments within one constraint must be distinct.  weights[v] is a pair
    of integers (weight of v=0, weight of v=1).  Variables are eliminated
    greedily by smallest resulting scope.
    """
    factors = []  # (scope tuple, table list indexed by local assignment code)
    for accepted, args in constraints:
        if len(set(args)) != len(args):
            raise ValueError("oracle needs distinct arguments per constraint")
        k = len(args)
        table = [0] * (1 << k)
        for t in accepted:
            table[sum(b << i for i, b in enumerate(t))] = 1
        factors.append((tuple(args), table))
    constant = 1
    remaining = set(range(num_vars))
    while remaining:
        best = None
        for v in remaining:
            scope = set()
            for sc, _ in factors:
                if v in sc:
                    scope.update(sc)
            size = len(scope)
            if best is None or size < best[0]:
                best = (size, v)
        v = best[1]
        remaining.discard(v)
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        w0, w1 = weights[v]
        if not bucket:
            constant *= w0 + w1
            continue
        new_scope = tuple(sorted({u for sc, _ in bucket for u in sc} - {v}))
        pos = {u: i for i, u in enumerate(new_scope)}
        m = len(new_scope)
        table = [0] * (1 << m)
        plans = []
        for sc, tab in bucket:
            plans.append(([(pos[u], i) for i, u in enumerate(sc) if u != v], sc.index(v), tab))
        for code in range(1 << m):
            total = 0
            for bit, w in ((0, w0), (1, w1)):
                if not w:
                    continue
                val = w
                for shifts, vi, tab in plans:
                    local = bit << vi
                    for p, i in shifts:
                        local |= (code >> p & 1) << i
                    val *= tab[local]
                    if not val:
                        break
                total += val
            table[code] = total
        if m == 0:
            constant *= table[0]
        else:
            factors.append((new_scope, table))
    for sc, tab in factors:  # only scope-free factors can be left
        constant *= tab[0]
    return constant


def satisfies(constraints, mask: int) -> bool:
    """Does the assignment whose bit v is variable v satisfy every constraint?"""
    return all(
        tuple(mask >> a & 1 for a in args) in accepted for accepted, args in constraints
    )


# ---------------------------------------------------------------------------
# Gadget existence


def _bit_table(accepted, args, t: int) -> int:
    table = 0
    for e in range(1 << t):
        if tuple(e >> a & 1 for a in args) in accepted:
            table |= 1 << e
    return table


def implementation_exists(target, blocks, max_aux: int, max_constraints: int) -> bool:
    """Is there a perfect faithful implementation within the bounds?

    target is (rank, accepted set); blocks is a list of (rank, accepted
    set).  Conjunction is idempotent and atoms with equal tables are
    interchangeable, so it suffices to search sets of distinct tables;
    a partial conjunction that leaves some accepted input without an
    extension can never recover it, so that branch is cut.
    """
    k, target_acc = target
    for q in range(max_aux + 1):
        t = k + q
        full = (1 << (1 << t)) - 1
        tables = sorted(
            {
                _bit_table(acc, args, t)
                for rank, acc in blocks
                for args in product(range(t), repeat=rank)
            }
        )
        selectors = []
        for x in range(1 << k):
            sel = 0
            for y in range(1 << q):
                sel |= 1 << (x | y << k)
            selectors.append(sel)
        acc_codes = {sum(b << i for i, b in enumerate(a)) for a in target_acc}
        accepted = [x in acc_codes for x in range(1 << k)]

        def valid(table: int) -> bool:
            for x in range(1 << k):
                c = (table & selectors[x]).bit_count()
                if c != (1 if accepted[x] else 0):
                    return False
            return True

        def alive(table: int) -> bool:
            return all((table & selectors[x]) for x in range(1 << k) if accepted[x])

        def search(start: int, table: int, size: int) -> bool:
            if size and valid(table):
                return True
            if size == max_constraints:
                return False
            for i in range(start, len(tables)):
                nxt = table & tables[i]
                if alive(nxt) and search(i + 1, nxt, size + 1):
                    return True
            return False

        if search(0, full, 0):
            return True
    return False


def gadget_certificate_ok(target, formula_constraints, num_aux: int) -> bool:
    """Exactly one extension per accepted input and none per rejected input."""
    k, target_acc = target
    for x in product((0, 1), repeat=k):
        n_ext = 0
        for y in product((0, 1), repeat=num_aux):
            a = x + y
            if all(tuple(a[i] for i in args) in acc for acc, args in formula_constraints):
                n_ext += 1
        if n_ext != (1 if x in target_acc else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Permanent


def permanent(matrix) -> int:
    """Ryser's formula: sum over column subsets S of (-1)^(n-|S|) prod_i sum_{j in S} a_ij."""
    n = len(matrix)
    total = 0
    for r in range(1, n + 1):
        for cols in combinations(range(n), r):
            total += (-1) ** (n - r) * prod(sum(row[j] for j in cols) for row in matrix)
    return total


# ---------------------------------------------------------------------------
# Independent sets, vertex covers, antichains


def grid_independent_sets(k: int, length: int) -> int:
    """Independent sets of the k x length grid by a row transfer matrix."""
    rows = [s for s in range(1 << k) if not s & (s >> 1)]
    counts = {s: 1 for s in rows}
    for _ in range(length - 1):
        counts = {s: sum(c for p, c in counts.items() if not p & s) for s in rows}
    return sum(counts.values())


def independent_sets(num_vertices: int, edges) -> int:
    """Independent sets of a loop-free graph by memoized branching on bitmasks."""
    nbr = [0] * num_vertices
    for u, v in edges:
        if u == v:
            raise ValueError("loop-free graphs only")
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo: dict[int, int] = {}

    def count(alive: int) -> int:
        if not alive:
            return 1
        if alive in memo:
            return memo[alive]
        best, best_deg = -1, -1
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            d = (nbr[v] & alive).bit_count()
            if d > best_deg:
                best, best_deg = v, d
            rest ^= low
        if best_deg == 0:
            result = 1 << alive.bit_count()
        else:
            without = alive & ~(1 << best)
            result = count(without) + count(without & ~nbr[best])
        memo[alive] = result
        return result

    return count((1 << num_vertices) - 1)


def transitive_closure(num_elements: int, relations) -> list[int]:
    """Bitset Warshall: above[x] has bit y set iff x < y in the closure."""
    above = [0] * num_elements
    for x, y in relations:
        above[x] |= 1 << y
    for m in range(num_elements):
        bit = 1 << m
        for x in range(num_elements):
            if above[x] & bit:
                above[x] |= above[m]
    return above


def antichains(num_elements: int, relations) -> int:
    """Antichains of the poset generated by relations (pairs x < y)."""
    above = transitive_closure(num_elements, relations)
    comparable = []
    for x in range(num_elements):
        if above[x] >> x & 1:
            raise ValueError("relations contain a cycle")
        comparable.append([y for y in range(num_elements) if above[x] >> y & 1])
    edges = [(x, y) for x in range(num_elements) for y in comparable[x]]
    return independent_sets(num_elements, edges)
