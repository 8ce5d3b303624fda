"""Constraint formulas: conjunctions of relation applications over indexed variables.

The polynomial of a formula sums one monomial per satisfying assignment,
the monomial collecting the variables assigned 1.  Evaluating that
polynomial at all-ones recovers the model count.  count_sat and
eval_formula_poly are each one weighted count by satpoly.elimination.count
over the 0/1 factors of the constraints: the model count weighs every
variable (1, 1), and the value at a point p/q weighs variable v by
(q_v, p_v) and divides by the product of the q_v.  Numerators and
denominators are carried separately as integers, so every result is exact.

poly_of_formula lists the models themselves by one depth-first search
over the constrained variables, checking each constraint against the
masks its relation accepts, and stops past MAX_POLY_TERMS terms.  The
listing shares no code with count_sat and eval_formula_poly, so verify
can compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

from .elimination import constraint_factor, count
from .errors import MAX_INT_CHARS, BoundExceeded, ParseError, check_int_chars
from .polynomial import MultilinearPoly
from .relations import Relation, resolve_relation

MAX_ENUM_VARS = 30  # variable cap of count_sat, eval_formula_poly and poly_of_formula
MAX_POLY_TERMS = 1 << 20  # poly_of_formula's output has one term per model

Constraint = tuple[Relation, tuple[int, ...]]


@dataclass(frozen=True)
class Formula:
    """A conjunction of relation applications; variables are 0-based indices.

    Repeated variables inside one application are legal and mean the
    relation restricted to the corresponding diagonal.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]

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
    def _relations_by_id(self) -> dict[int, Relation]:
        """The distinct relation objects the constraints apply, keyed by id(), first-seen order.

        A parsed formula shares one Relation object per name, and hashing the
        dataclass per constraint would cost more than the id() lookups.
        """
        rels = list(map(itemgetter(0), self.constraints))
        return dict(zip(map(id, rels), rels))

    @cached_property
    def relation_set(self) -> tuple[Relation, ...]:
        """The distinct relations the constraints apply, first-seen order.

        Of equal relations the first-seen object is kept.
        """
        return tuple(dict.fromkeys(self._relations_by_id.values()))


def _checked_formula(num_vars: int, constraints: tuple[Constraint, ...]) -> Formula:
    """A Formula built without __post_init__'s checks, for a caller that made them."""
    f = object.__new__(Formula)
    for fld, value in zip(fields(Formula), (num_vars, constraints)):
        object.__setattr__(f, fld.name, value)
    return f


def formula(num_vars: int, constraints) -> Formula:
    return Formula(num_vars, tuple((rel, tuple(args)) for rel, args in constraints))


def eval_assignment(f: Formula, assignment: Sequence[int]) -> bool:
    """Does the assignment satisfy every constraint?"""
    if len(assignment) != f.num_vars:
        raise ValueError(
            f"assignment has {len(assignment)} bits, expected {f.num_vars}"
        )
    a = tuple(assignment)
    return all(tuple(a[i] for i in args) in rel.accepted for rel, args in f.constraints)


# ---------------------------------------------------------------------------
# Counting the models, and listing them depth-first


def _patterns(rel: Relation, args: Sequence[int]) -> frozenset[int]:
    """The masks over args' bits that satisfy rel(args).

    A tuple that gives two copies of a repeated variable different values
    adds no mask, so a repeated argument restricts rel to the diagonal.
    """
    out = set()
    for t in rel.accepted:
        value: dict[int, int] = {}
        if all(value.setdefault(a, bit) == bit for a, bit in zip(args, t)):
            out.add(sum(1 << a for a, bit in value.items() if bit))
    return frozenset(out)


def _models(f: Formula, cvars: list[int], limit: int) -> list[int]:
    """The models of f as masks over its variables, its free variables 0.

    Sets the constrained variables in ascending order from an explicit
    stack and checks each constraint once its last variable is set.  Raises
    BoundExceeded once more than limit models are found.
    """
    checks: list[list[tuple[int, frozenset[int]]]] = [[] for _ in cvars]
    depth = {v: i for i, v in enumerate(cvars)}
    for rel, args in f.constraints:
        scope = sum(1 << a for a in set(args))
        checks[depth[max(args)]].append((scope, _patterns(rel, args)))
    models: list[int] = []
    m = len(cvars)
    stack = [(0, 0)]  # (variables set, mask)
    while stack:
        i, mask = stack.pop()
        if i == m:
            models.append(mask)
            if len(models) > limit:
                raise BoundExceeded(f"poly_of_formula is limited to {MAX_POLY_TERMS} terms")
            continue
        for cur in (mask | 1 << cvars[i], mask):
            for scope, patterns in checks[i]:
                if cur & scope not in patterns:
                    break
            else:
                stack.append((i + 1, cur))
    return models


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
    cvars = sorted({a for _, args in f.constraints for a in args})
    free = set(range(f.num_vars)).difference(cvars)
    models = _models(f, cvars, MAX_POLY_TERMS >> len(free))
    for v in free:  # each free variable doubles the models
        models += [m | 1 << v for m in models]
    return MultilinearPoly(f.num_vars, dict.fromkeys(models, Fraction(1)))


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
    # every rank and range is checked above, with the line number
    return _checked_formula(num_vars, tuple(constraints))


def format_formula_file(f: Formula) -> str:
    lines = [f"p csp {f.num_vars} {len(f.constraints)}"]
    for rel, args in f.constraints:
        lines.append(" ".join([rel.name] + [str(a + 1) for a in args]))
    return "\n".join(lines) + "\n"
