"""Constraint formulas: conjunctions of relation applications over indexed variables.

The polynomial of a formula sums one monomial per satisfying assignment,
the monomial collecting the variables assigned 1.  Evaluating that
polynomial at all-ones recovers the model count.  count_sat and
eval_formula_poly are each one weighted count by satpoly.elimination.count
over the 0/1 factors of the constraints: the model count weighs every
variable (1, 1), and the value at a point p/q weighs variable v by
(q_v, p_v) and divides by the product of the q_v.  Numerators and
denominators are carried separately as integers, so every result is exact.

poly_of_formula lists the models themselves, from a bit-parallel truth
table up to _TABLE_VARS constrained variables and depth-first above.  The
listing shares no counting code with count_sat and eval_formula_poly at
any size, so verify can compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._bits import factor_table, table_bits, table_full, table_var
from .elimination import constraint_factor, count
from .errors import MAX_INT_CHARS, BoundExceeded, ParseError, check_int_chars
from .polynomial import MultilinearPoly
from .relations import Relation, parity_constant, resolve_relation

MAX_ENUM_VARS = 30  # hard ceiling for exact enumeration
# poly_of_formula lists the models of at most this many constrained
# variables from their truth table, and of more depth-first
_TABLE_VARS = 22

Constraint = tuple[Relation, tuple[int, ...]]


@dataclass(frozen=True)
class Formula:
    """A conjunction of relation applications; variables are 0-based indices.

    Repeated variables inside one application are legal and mean the
    relation restricted to the corresponding diagonal.  relation_table
    optionally records the full relation set in scope (it may list
    relations no constraint uses); by default it is the set of relations
    that appear.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]
    relation_table: Optional[tuple[Relation, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("a formula needs at least one variable")
        for rel, args in self.constraints:
            if len(args) != rel.rank:
                raise ValueError(
                    f"{rel.name} has rank {rel.rank} but got {len(args)} arguments"
                )
            for a in args:
                if not 0 <= a < self.num_vars:
                    raise ValueError(f"argument {a} out of range [0, {self.num_vars})")

    @cached_property
    def relation_set(self) -> tuple[Relation, ...]:
        if self.relation_table is not None:
            return self.relation_table
        seen: dict[Relation, None] = {}
        for rel, _ in self.constraints:
            seen.setdefault(rel)
        return tuple(seen)


def formula(num_vars: int, constraints, relation_table=None) -> Formula:
    return Formula(
        num_vars,
        tuple((rel, tuple(args)) for rel, args in constraints),
        tuple(relation_table) if relation_table is not None else None,
    )


def eval_assignment(f: Formula, assignment: Sequence[int]) -> bool:
    """Does the assignment satisfy every constraint?"""
    if len(assignment) != f.num_vars:
        raise ValueError(
            f"assignment has {len(assignment)} bits, expected {f.num_vars}"
        )
    a = tuple(assignment)
    return all(tuple(a[i] for i in args) in rel.accepted for rel, args in f.constraints)


# ---------------------------------------------------------------------------
# Bit-parallel satisfying-set tables


def _constrained_vars(f: Formula) -> list[int]:
    seen: set[int] = set()
    for _, args in f.constraints:
        seen.update(args)
    return sorted(seen)


def _constraint_table(rel: Relation, positions: Sequence[int], bases: list[int], full: int) -> int:
    """Truth table of one applied constraint over the compressed variable space."""
    c = parity_constant(rel)
    if c is not None:
        acc = 0
        for p in positions:
            acc ^= bases[p]  # repeated arguments cancel, matching xor semantics
        return acc if c == 1 else ~acc & full
    return factor_table(*constraint_factor(rel, positions), bases, full)


def _sat_table(f: Formula, cvars: list[int]) -> int:
    """Truth table of the conjunction over the constrained variables."""
    m = len(cvars)
    pos = {v: i for i, v in enumerate(cvars)}
    full = table_full(m)
    bases = [table_var(i, m) for i in range(m)]
    table = full
    for rel, args in f.constraints:
        table &= _constraint_table(rel, [pos[a] for a in args], bases, full)
        if not table:
            break
    return table


def _table_models(table: int, m: int) -> list[int]:
    """The set entries of a truth table over m variables, ascending, in one pass."""
    return np.flatnonzero(table_bits(table, m)).tolist()


def _sat_assignments_dfs(f: Formula, cvars: list[int]):
    """Yield satisfying assignments (as bitmasks over cvars) by backtracking."""
    pos = {v: i for i, v in enumerate(cvars)}
    m = len(cvars)
    # constraints become checkable once their last variable is assigned
    by_last: list[list[tuple[Relation, tuple[int, ...]]]] = [[] for _ in range(m)]
    for rel, args in f.constraints:
        local = tuple(pos[a] for a in args)
        by_last[max(local)].append((rel, local))

    def rec(i: int, mask: int):
        if i == m:
            yield mask
            return
        for bit in (0, 1):
            cur = mask | (bit << i)
            ok = True
            for rel, local in by_last[i]:
                if tuple(cur >> p & 1 for p in local) not in rel.accepted:
                    ok = False
                    break
            if ok:
                yield from rec(i + 1, cur)

    yield from rec(0, 0)


def count_sat(f: Formula) -> int:
    """Exact number of satisfying assignments."""
    if f.num_vars > MAX_ENUM_VARS:
        raise BoundExceeded(f"count_sat is limited to {MAX_ENUM_VARS} variables")
    factors = (constraint_factor(rel, args) for rel, args in f.constraints)
    return count(factors, [(1, 1)] * f.num_vars)


def poly_of_formula(f: Formula) -> MultilinearPoly:
    """The polynomial with one unit-coefficient monomial per satisfying assignment."""
    if f.num_vars > MAX_ENUM_VARS:
        raise BoundExceeded(f"poly_of_formula is limited to {MAX_ENUM_VARS} variables")
    cvars = _constrained_vars(f)
    if len(cvars) <= _TABLE_VARS:
        local_masks = _table_models(_sat_table(f, cvars), len(cvars))
    else:
        local_masks = _sat_assignments_dfs(f, cvars)
    terms: dict[int, Fraction] = {}
    one = Fraction(1)
    for local in local_masks:
        mask = 0
        for i, v in enumerate(cvars):
            if local >> i & 1:
                mask |= 1 << v
        terms[mask] = one
    poly = MultilinearPoly(f.num_vars, terms)
    cset = set(cvars)
    for v in range(f.num_vars):
        if v not in cset:
            poly = poly.multiply(
                MultilinearPoly(f.num_vars, {0: one, 1 << v: one})
            )
    return poly


def eval_formula_poly(f: Formula, point: Sequence) -> Fraction:
    """Value of the formula's polynomial at a rational point, monomials never built."""
    if len(point) != f.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {f.num_vars}")
    if f.num_vars > MAX_ENUM_VARS:
        raise BoundExceeded(f"eval_formula_poly is limited to {MAX_ENUM_VARS} variables")
    pt = [Fraction(x) for x in point]
    factors = (constraint_factor(rel, args) for rel, args in f.constraints)
    total = count(factors, [(x.denominator, x.numerator) for x in pt])
    return Fraction(total, math.prod(x.denominator for x in pt))


# ---------------------------------------------------------------------------
# Formula file format:
#   p csp <num_vars> <num_constraints>
#   <relation-name> <i1> ... <ik>     (1-based variable indices)


def parse_formula_file(text: str, relations: Optional[dict[str, Relation]] = None) -> Formula:
    num_vars = None
    declared = 0
    constraints: list[Constraint] = []
    resolved: dict[str, Relation] = {}  # each relation name is looked up once per file
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        if len(line) > MAX_INT_CHARS:  # only a line this long can hold an overlong token
            check_int_chars(parts[1:], lineno)
        name = parts[0]
        if name == "p":
            if num_vars is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "csp":
                raise ParseError(f"line {lineno}: expected 'p csp <vars> <constraints>'")
            try:
                num_vars = int(parts[2])
                declared = int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header numbers") from None
            if num_vars < 1:
                raise ParseError(f"line {lineno}: need at least one variable")
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: constraint before header")
        rel = resolved.get(name)
        if rel is None:
            rel = resolved[name] = resolve_relation(name, relations)
        try:
            args = [int(tok) - 1 for tok in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: bad variable index") from None
        if len(args) != rel.rank:
            raise ParseError(
                f"line {lineno}: {rel.name} has rank {rel.rank}, got {len(args)} arguments"
            )
        if min(args) < 0 or max(args) >= num_vars:
            raise ParseError(f"line {lineno}: variable index out of range")
        constraints.append((rel, tuple(args)))
    if num_vars is None:
        raise ParseError("missing 'p csp' header")
    if len(constraints) != declared:
        raise ParseError(
            f"header declares {declared} constraints, found {len(constraints)}"
        )
    table = None
    if relations is not None:
        merged = dict(relations)
        for rel in dict.fromkeys(resolved.values()):
            merged.setdefault(rel.name, rel)
        table = tuple(merged.values())
    return Formula(num_vars, tuple(constraints), table)


def format_formula_file(f: Formula) -> str:
    lines = [f"p csp {f.num_vars} {len(f.constraints)}"]
    for rel, args in f.constraints:
        lines.append(" ".join([rel.name] + [str(a + 1) for a in args]))
    return "\n".join(lines) + "\n"
